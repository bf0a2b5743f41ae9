"""Machine replay of the case-analysis proof of the beta-function lower bound.

The inequality being certified is

    B(x, y) > ((x + y) / (x y)) * (1 - 2 x y / (x + y + 1))      on (0,1]^2.

Writing F(x, y) = log[Gamma(x+1) Gamma(y+1) / Gamma(x+y+1)]
               - log(1 - 2xy/(x+y+1)),
the claim is F > 0 away from x = 0.  F is symmetric, and no step covers
the region x + y > 1 yet, so the argument on x <= y, x + y <= 1 splits
into the diagonal gap f(x) = F(x, x), the strip 1/5 <= x <= 1/2 where
the digamma-difference lower bound reduces dF/dy to the sign of the
bivariate polynomial Q(x, y), and the trapezoid
D = {x < y < 1 - x, 0 < x < 1/5} where G = dF/dx - dF/dy is shown to be
positive (no interior extremum) and the boundary values pin the minimum.

Each displayed step of that argument becomes a ``ProofStep``: algebraic
identities are certified by exact cross-multiplication, polynomial sign
claims by the one-sign-change criterion with exact evaluations, the
seven transcendental values (three steps) by rigorous enclosures on
integers (``specials.stirling_enclosure`` and ``ln_enclosure``) whose
lower ends must be positive, and the conclusions follow from their parent
steps.  Each phase is a table of (id, claim, method, check, parents) rows
that one runner, ``_Phase.run``, turns into steps.  A check returns only
its evidence, in which each ``bool`` is a clause of the step's claim and
``None`` a clause it could not decide; the runner alone decides a status,
from those clauses and the parents' statuses (a derived row has no check).

Each input has one source: the catalogue's polynomials (Q is built from
q0..q5); ``derive_lx``/``derive_lxx``, which differentiate Yang's L; L's log
terms (``psibounds.log_terms``), whose arguments the certificate denominators
clear; ``A_SMALL``, ``A_LARGE`` and ``EDGE_OFFSET``; and F's log term
(``log_correction``), whose argument gives the rational parts of dF/dx, dF/dy.

F, G and B - bound are written once, as enclosures at rationals, which the
replay and the sweep read; ``big_F``, ``big_G`` and ``theorem_margin`` round
their midpoints at the working precision.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .catalogue import Catalogue, load_catalogue
from .constants import agrees_with_printed
from .polys import BiPoly, Poly, RationalFn
from .psibounds import (
    A_LARGE,
    A_SMALL,
    alzer_bracket_rf,
    derive_lx,
    derive_lxx,
    log_terms,
)
from .specials import (
    DEFAULT_DPS,
    GUARD_DIGITS,
    Interval,
    evaluate,
    exact,
    exp_enclosure,
    ln_enclosure,
    psi,   # unused; perfbench/selftest.py checks that proof.psi is specials.psi
    stirling_enclosure,
)
from . import constants, signs

# ---------------------------------------------------------------------------
# formulas, written once as plain arithmetic: floats, mpfs and Fractions give
# numbers, Poly/BiPoly symbols give the RationalFn that the replay certifies.
# The sweep's CSV is bit-for-bit reproducible only while their operation
# order stays fixed.  The three bounds the sweep reads keep one expression tree
# under the swap of x and y, up to the operand order of + and *, which IEEE
# 754 rounds commutatively: they are symmetric for every pair of doubles.
# ---------------------------------------------------------------------------


def new_bound(x, y):
    """((x+y)/(xy)) (1 - 2xy/(x+y+1)), the certified lower bound for B(x, y)."""
    s, p = x + y, x * y
    return (s / p) * (1 - 2 * p / (s + 1))


def ivady_lower_bound(x, y):
    """(x + y - xy)/(xy), the classical polynomial lower bound."""
    s, p = x + y, x * y
    return (s - p) / p


def ivady_upper_bound(x, y):
    """(x + y)/(xy (1 + xy)), the matching upper bound."""
    return (x + y) / (x * y * (1 + x * y))


def alzer_lower_bound(x, y, alpha):
    """(1/(xy)) [1 - alpha (1-x)(1-y)/((1+x)(1+y))]; sharp for alpha = 2 pi^2/3 - 4."""
    return (1 - alpha * ((1 - x) * (1 - y)) / ((1 + x) * (1 + y))) / (x * y)


def log_correction(x, y, ln):
    """log(1 - 2xy/(x+y+1)), the logarithmic term of F; `ln` is the log of x's type."""
    return ln(1 - 2 * x * y / (x + y + 1))


def dFdx_rational(x, y):
    """2y(1+y)/((1+x+y)(1+x+y-2xy)): dF/dx minus psi(x+1) - psi(x+y+1)."""
    return 2 * y * (1 + y) / ((1 + x + y) * (1 + x + y - 2 * x * y))


def G_rational(x, y):
    """-2(x-y)/(1+x+y-2xy): G minus psi(x+1) - psi(y+1)."""
    return -2 * (x - y) / (1 + x + y - 2 * x * y)


def dGdx_rational(x, y):
    """-2(1+2y-2y^2)/(1+x+y-2xy)^2: dG/dx minus psi'(x+1)."""
    return -2 * (1 + 2 * y - 2 * y * y) / (1 + x + y - 2 * x * y) ** 2


# ---------------------------------------------------------------------------
# F, G and B - bound: enclosures at rationals, and their rounded midpoints
# ---------------------------------------------------------------------------

EDGE_OFFSET = Fraction(9, 25)   # the upper trapezoid subregion is y >= x + 9/25


def _enclosed_F(x: Fraction, y: Fraction, dps: int) -> Interval:
    """F(x, y) at rationals, on the enclosures of ``specials``."""
    lg = lambda t: stirling_enclosure(t, -1, dps)
    ln = lambda arg: ln_enclosure(arg, dps)
    return lg(x + 1) + lg(y + 1) - lg(x + y + 1) - log_correction(x, y, ln)


def _enclosed_G(x: Fraction, y: Fraction, dps: int) -> Interval:
    """G(x, y) = psi(x+1) - psi(y+1) + G_rational(x, y) at rationals."""
    psi_ = lambda t: stirling_enclosure(t, 0, dps)
    return psi_(x + 1) - psi_(y + 1) + G_rational(x, y)


def _enclosed_margin(x: Fraction, y: Fraction, dps: int) -> Interval:
    """B(x, y), exp of log Gamma's enclosures, less the bound, at rationals."""
    lg = lambda t: stirling_enclosure(t, -1, dps)
    return exp_enclosure(lg(x) + lg(y) - lg(x + y), dps) - new_bound(x, y)


def _guarded(value, scale, what: str):
    """`value`, a difference of terms as large as `scale`, if it kept its digits.

    Where |value| <= |scale| 10^-GUARD_DIGITS the subtraction has cancelled
    every guard digit, so fewer than `dps` digits would be right: it raises.
    """
    if abs(value) * 10**GUARD_DIGITS <= abs(scale):
        raise ValueError(f"inconclusive: {what} cancels the guard digits")
    return value


def _on_unit_square(value, dps: int, x, y, allow_zero: bool = False):
    """value(x, y, work.dps) at the exact values of x, y in (0, 1], or in
    [0, 1] with `allow_zero`, rounded to `dps` digits (``evaluate``)."""

    def raw(work, x, y):
        low_ok = (x >= 0 and y >= 0) if allow_zero else (x > 0 and y > 0)
        if not (low_ok and x <= 1 and y <= 1):
            raise ValueError("domain error: arguments must lie in (0, 1]")
        return value(exact(x), exact(y), work.dps)

    return evaluate(raw, dps, x, y)


def theorem_margin(x, y, dps: int = DEFAULT_DPS):
    """B(x, y) minus the certified lower bound; positive on (0,1]^2.

    Near the axes the subtraction cancels leading digits; where it cancels
    more than GUARD_DIGITS, it raises ``inconclusive``.
    """

    def value(x, y, work_dps):
        margin = _enclosed_margin(x, y, work_dps).mid
        return _guarded(margin, margin + new_bound(x, y), "B(x, y) - bound")

    return _on_unit_square(value, dps, x, y)


def big_F(x, y, dps: int = DEFAULT_DPS):
    """The log-scale margin F(x, y); like `theorem_margin`, it raises
    ``inconclusive`` where its subtraction cancels the guard digits: near
    the axes, and on them, where F = 0 (``trapezoid.boundary.left-edge``).
    Its terms carry an absolute error, so the guard's scale is 1."""
    value = lambda x, y, work_dps: _guarded(_enclosed_F(x, y, work_dps).mid, 1, "F(x, y)")
    return _on_unit_square(value, dps, x, y, allow_zero=True)


def big_G(x, y, dps: int = DEFAULT_DPS):
    """dF/dx - dF/dy = psi(x+1) - psi(y+1) - 2(x-y)/(1+x+y-2xy)."""
    value = lambda x, y, work_dps: _enclosed_G(x, y, work_dps).mid
    return _on_unit_square(value, dps, x, y, allow_zero=True)


# ---------------------------------------------------------------------------
# proof steps
# ---------------------------------------------------------------------------

METHOD_DERIVED = "derived"
METHOD_EXACT_POLY = "exact-polynomial"
METHOD_EXACT_IDENTITY = "exact-identity"
METHOD_EXACT_ENCLOSURE = "exact-enclosure"
METHOD_SIGN_ENGINE = "sign-engine"

VERIFIED = "verified"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"


class ProofStep(NamedTuple):
    id: str
    claim: str
    method: str
    status: str
    depends_on: list   # ids of its parent steps
    evidence: dict

    def to_json_obj(self) -> dict:
        return self._asdict()


def _step(table: list, sid: str, method: str, claim: str, depends_on=()):
    """Append the row (id, claim, method, check, parents) of the decorated check."""

    def add(check):
        table.append((sid, claim, method, check, tuple(depends_on)))
        return check

    return add


def _derived(table: list, sid: str, claim: str, depends_on):
    """Append a conclusion row: no check of its own, its status its parents'."""
    table.append((sid, claim, METHOD_DERIVED, None, tuple(depends_on)))


class _Phase:
    """One phase of the replay: its step table and what its checks share.

    A subclass lists its rows in ``STEPS``, in proof order, through ``_step``
    and ``_derived``; each check is a method returning its evidence.
    All work runs inside the checks: a value that several checks share is a
    ``cached_property``, so if it raises, each check that reads it is
    inconclusive and the replay goes on.  Every phase has two such values:
    ``log_argument``, the argument of F's log term over ``BiPoly``s, and the
    clause ``yang_positive``.
    """

    STEPS: list

    def __init__(self, dps: int):
        self.dps = dps

    @cached_property
    def cat(self) -> Catalogue:
        return load_catalogue()

    @cached_property
    def log_argument(self) -> RationalFn:
        """v/u, v = 1 + x + y - 2xy and u = x + y + 1, read from ``log_correction``."""
        return _log_argument(BiPoly.x(), BiPoly.y())

    @cached_property
    def yang_positive(self) -> bool:
        """The clause that ``YANG_ARGS`` at A_SMALL and A_LARGE, and at A_SMALL
        with x -> 2x, have positive coefficients: four certificates divide by them."""
        small = YANG_ARGS[A_SMALL]
        return _positive_coefficients([small, YANG_ARGS[A_LARGE], small.compose(2 * _T)])

    def run(self, earlier: Sequence[ProofStep] = ()) -> list[ProofStep]:
        """Run the rows in order; the one place a step is built and its status decided.

        A check returns its evidence: a ``bool`` value is a clause of the
        step's claim, ``None`` a clause it could not decide, any other value
        data.  A step's status is the ``_combine`` of its clauses' statuses
        (``_CLAUSE_STATUS``) and its parents'; a derived row runs no check.
        A parent is looked up among the `earlier` steps and the rows before
        it; one found in neither (unknown, later, the step itself) counts as
        failed, so no cycle passes.  Evidence values are reported as their
        ``str``.  A check that raises ValueError (a sign criterion that does
        not apply, root enclosures too wide to order) gives an inconclusive
        step that carries the message, and the later rows still run.
        """
        known = {step.id: step.status for step in earlier}
        steps = []
        for sid, claim, method, check, parents in self.STEPS:
            statuses, evidence = [known.get(p, FAILED) for p in parents], {}
            if check:
                try:
                    evidence = check(self)
                except ValueError as exc:
                    statuses, evidence = statuses + [INCONCLUSIVE], {"error": str(exc)}
                # isinstance, not ==: Fraction(0) == False, and 0 is data
                statuses += [_CLAUSE_STATUS[v] for v in evidence.values()
                             if v is None or isinstance(v, bool)]
            known[sid] = _combine(statuses)
            evidence = {k: str(v) for k, v in evidence.items()}
            step = ProofStep(sid, claim, method, known[sid], list(parents), evidence)
            steps.append(step)
        return steps


_CLAUSE_STATUS = {True: VERIFIED, False: FAILED, None: INCONCLUSIVE}


def _combine(statuses) -> str:
    statuses = list(statuses)
    if any(s == FAILED for s in statuses):
        return FAILED
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return VERIFIED


def _positive(values: dict, dps: int) -> dict:
    """Evidence for enclosures of values claimed positive: each Interval's
    ``digits(dps)`` and the clause that its lower end is positive (False when
    its upper end is not, None when it holds 0); where ``PRINTED`` names
    values, their prefixes and the clause that both ends of each agree."""
    evidence = {}
    for k, v in values.items():
        evidence[k] = v.digits(dps)
        evidence[f"{k} > 0"] = True if v.lo > 0 else False if v.hi <= 0 else None
    printed = {k: PRINTED[k] for k in values if k in PRINTED}
    if printed:
        evidence["printed"] = ", ".join(printed.values())
        evidence["agrees_with_printed"] = all(
            agrees_with_printed(end, p) for k, p in printed.items() for end in values[k])
    return evidence


def _positive_coefficients(polys) -> bool:
    """No Poly or BiPoly in `polys` has a negative coefficient (``nums`` holds
    the nonzero ones, over a positive ``den``): each but 0 is positive for x, y > 0."""
    return all(n > 0 for p in polys for n in p.nums.values())


def _unit_square_min(bp: BiPoly) -> Fraction:
    """Exact minimum over [0, 1]^2 of a polynomial of degree <= 1 per variable."""
    if any(i > 1 or j > 1 for (i, j) in bp.nums):
        raise ValueError("corner minimization needs degree <= 1 per variable")
    return min(bp(Fraction(cx), Fraction(cy)) for cx in (0, 1) for cy in (0, 1))


# -- shared exact building blocks -------------------------------------------

_T = Poly.x()
HALF = Fraction(1, 2)

# numerator of the lower bound for the half-slope derivative of the
# diagonal gap (all coefficients positive, degree 12)
DIAG_SLOPE_NUMERATOR = Poly(
    (
        5533, 37994, 92054, 935456, 11448028, 67479864, 232646232,
        513934848, 747879552, 717361920, 442143360, 158630400, 18662400,
    )
)

# 17 + 16x - 25x^2 = (25/2)(1 + x + y - 2xy) on the edge y = x + 9/25: the
# denominator of g and g', positive on (0, 1/5] (``_Trapezoid.guard_ok``)
EDGE_GUARD = 17 + 16 * _T - 25 * _T**2

EDGE_SLOPE_QUOTIENT = (913 + 350 * _T - 1250 * _T**2) / (2 * EDGE_GUARD**2)

# the prefixes that the paper prints of g(1/5) and of the two corner values of G
PRINTED = {"g(1/5)": "0.001914", "G(0,9/25)": "0.0554", "G(1/5,9/25)": "0.04015"}

# imported facts that a step uses and does not prove, named in its "imports"
GAMMA_AT_1 = "Gamma(1) = 1 (DLMF 5.4.1)"


def _log_argument(x, y):
    """1 - 2xy/(x+y+1), the argument of F's log term, from ``log_correction``."""
    return log_correction(x, y, lambda arg: arg)


# Yang's two log arguments at a, each cleared of its denominator and
# multiplied: the factor that L_x(., a) leaves in a denominator
YANG_ARGS = {
    a: math.prod(u.den * u for _, u in log_terms(_T, a)) for a in (A_SMALL, A_LARGE)
}


# ---------------------------------------------------------------------------
# replay of the diagonal-gap positivity argument
# ---------------------------------------------------------------------------


class _Diagonal(_Phase):
    STEPS: list = []

    @_step(STEPS, "diagonal.slope-rational-identity", METHOD_EXACT_IDENTITY,
           "The non-polygamma part of f'(x) equals 4x(1+x)/((1+2x)(1+2x-2x^2)) "
           "exactly, and f(0) = f'(0) = 0: at x = 0 the log Gamma and psi "
           "terms cancel, the log argument is 1 and the rational part 0.")
    def slope_rational(self):
        t, zero = _T, Fraction(0)
        arg = _log_argument(t, t)   # f' carries -d/dx log arg(x, x) = -arg'/arg
        identity = (-arg.derivative() / arg).equivalent(2 * dFdx_rational(t, t))
        # f(0) = 2 log Gamma(1) - log Gamma(1) - log arg(0, 0), with Gamma(1) = 1,
        # and f'(0) = 2 psi(1) - 2 psi(1) + 2 dFdx_rational(0, 0)
        at_0 = {"log_argument(0,0)": _log_argument(zero, zero),
                "dFdx_rational(0,0)": dFdx_rational(zero, zero)}
        return {"identity": identity, **at_0, "f(0)=f'(0)=0": list(at_0.values()) == [1, 0],
                "imports": GAMMA_AT_1}

    @_step(STEPS, "diagonal.slope-lower-identity", METHOD_EXACT_IDENTITY,
           "The sandwich lower bound for the half-slope derivative equals the "
           "displayed degree-12 quotient after clearing denominators.")
    def slope_lower(self):
        t = _T
        small = derive_lx(A_SMALL)
        lower = (
            derive_lx(A_LARGE)
            - 2 * RationalFn(small.num.compose(2 * t), small.den.compose(2 * t))
            + dFdx_rational(t, t).derivative()
        )
        den = (
            2 * dFdx_rational(t, t).den ** 2
            * YANG_ARGS[A_LARGE] * YANG_ARGS[A_SMALL].compose(2 * t)
        )
        return {
            "identity": lower.equivalent(RationalFn(DIAG_SLOPE_NUMERATOR, den)),
            "numerator_constant": DIAG_SLOPE_NUMERATOR.coefficient(0),
            "numerator_leading": DIAG_SLOPE_NUMERATOR.coeffs[-1],
        }

    @_step(STEPS, "diagonal.slope-numerator-positive", METHOD_EXACT_POLY,
           "Every coefficient of the degree-12 numerator is positive and the "
           "denominator is a product of squares and positive-coefficient "
           "factors, so the quotient is positive for x > 0.")
    def numerator_positive(self):
        return {
            "degree": DIAG_SLOPE_NUMERATOR.degree,
            "numerator_coefficients_positive": all(c > 0 for c in DIAG_SLOPE_NUMERATOR.coeffs),
            "yang_factors_positive": self.yang_positive,
        }


def replay_diagonal(dps: int = DEFAULT_DPS, earlier=()) -> list[ProofStep]:
    """Certify f(x) = F(x, x) > 0 on the diagonal.

    (a) the rational part of f' matches 2 * 2x(1+x)/((1+2x)(1+2x-2x^2));
    (b) the half-slope derivative dominates an explicit quotient whose
        degree-12 numerator has positive coefficients only, so the
        half-slope is increasing from its zero at x = 0, and f from f(0) = 0,
        both checked exactly in (a).
    """
    return _Diagonal(dps).run(earlier)


# ---------------------------------------------------------------------------
# replay of the strip argument (1/5 <= x <= 1/2, x <= y <= 1 - x)
# ---------------------------------------------------------------------------


def _q_sign_vectors(enclosures, right: Fraction) -> tuple[list[str], dict]:
    """Sign vectors of Q's y-coefficients (-q0, q1..q5, 2x-1) on (0, right].

    Takes q0 < 0 and 2x - 1 <= 0, and each q_k NP with its crossing root in
    ``enclosures[k-1]``: negative left of the enclosure, positive right of
    it.  The enclosure endpoints cut (0, right] into pieces.  On a piece
    that meets an enclosure that q_k is undetermined ('?'), and both of its
    signs are classified.  Returns one vector per piece and the count of
    each sign pattern over all classified vectors.
    """
    ends = {e for enc in enclosures for e in (enc.lo, enc.hi)}
    cuts = sorted(ends | {Fraction(0), right})
    vectors, patterns = [], Counter()
    for a, b in zip(cuts, cuts[1:]):
        middle = ("+" if a >= e.hi else "-" if b <= e.lo else "?" for e in enclosures)
        vector = "+" + "".join(middle) + "-"
        vectors.append(vector)
        for choice in itertools.product("+-", repeat=vector.count("?")):
            filled = vector.replace("?", "{}").format(*choice)
            coeffs = [1 if c == "+" else -1 for c in filled]
            patterns[signs.classify(Poly(coeffs)).value] += 1
    return vectors, dict(patterns)


def q_root_enclosures(width) -> list[signs.Enclosure]:
    """Enclosures of the crossing roots of q1..q5 in [0, 1/2], bisected to ``width``."""
    return [signs.isolate_crossing(q, 0, HALF, width) for q in load_catalogue().q[1:]]


class _Strip(_Phase):
    STEPS: list = []
    # the inner factor of Q(x, 1 - x)
    INNER = 7137 + (1 - _T) * (24365 + 375 * _T**2) + 5300 * _T**2
    X_ENDS = (Fraction(1, 5), HALF)   # the strip's x-range
    # (y+1), (x+y+1), ..., (x+y+3): the reduction's cleared factors besides v
    CLEARED = [f + k for k in (1, 2, 3) for f in (BiPoly.y(), BiPoly.x() + BiPoly.y())]

    @cached_property
    def enclosures(self) -> list[signs.Enclosure]:
        return q_root_enclosures(signs.DEFAULT_WIDTH)

    def q_chain(self) -> dict:
        """Clauses: the q1..q5 enclosures increase (raises on overlap), q0 < 0 on (0, 1/2]."""
        return {"enclosures_increasing": signs.verify_root_ordering(self.enclosures),
                "q0_negative": signs.negative_below(self.cat.q[0], HALF)}

    @_step(STEPS, "strip.gradient-identities", METHOD_EXACT_IDENTITY,
           "The rational parts of dF/dx, dF/dy and of G = dF/dx - dF/dy match "
           "their displayed closed forms exactly.")
    def gradients(self):
        # dF/dy carries -d/dy log of F's log argument; the argument is
        # symmetric in x and y, so dF/dx carries the same with x, y swapped
        x, y, arg = BiPoly.x(), BiPoly.y(), self.log_argument
        symmetric = arg.equivalent(_log_argument(y, x))
        id_dy = (-arg.partial_y() / arg).equivalent(dFdx_rational(y, x))
        id_g = (dFdx_rational(x, y) - dFdx_rational(y, x)).equivalent(G_rational(x, y))
        return {"log_argument_symmetric": symmetric, "dFdy_identity": id_dy, "G_identity": id_g}

    @_step(STEPS, "strip.dFdy-reduction-identity", METHOD_EXACT_IDENTITY,
           "The three-term digamma-difference lower bound for dF/dy minus "
           "1/(x+y) plus the rational term equals x Q(x,y) over the product "
           "of the shifted linear factors, as rational functions.")
    def reduction(self):
        x, y, v = BiPoly.x(), BiPoly.y(), self.log_argument.num
        lhs = (
            alzer_bracket_rf(3)
            - RationalFn(BiPoly.const(1), x + y)
            + dFdx_rational(y, x)
        )
        den = math.prod(self.CLEARED, start=v)
        return {"identity": lhs.equivalent(RationalFn(x * self.cat.Q, den))}

    @_step(STEPS, "strip.q-root-ordering", METHOD_SIGN_ENGINE,
           "q0 < 0 on (0, 1/2]; each of q1..q5 has a unique crossing root "
           "there and the enclosures are disjoint and increasing, so "
           "q_j < 0 implies q_{j+1} < 0.")
    def root_ordering(self):
        return self.q_chain() | {
            "enclosures": [(str(e.lo), str(e.hi)) for e in self.enclosures],
            "width": signs.DEFAULT_WIDTH,
        }

    @_step(STEPS, "strip.pn-sign-vectors", METHOD_SIGN_ENGINE,
           "For every x in (0, 1/2] the y-coefficient sequence -q0, q1..q5, "
           "2x-1 of Q has at most one sign change, positive block first: "
           "q1..q5 are NP, so each changes sign only inside its root "
           "enclosure; the sign vector is fixed and PN on each of the six "
           "intervals between enclosures, and PN inside each enclosure for "
           "either sign of the one undetermined q_k.")
    def pn_sign_vectors(self):
        NP, q_kinds = signs.PatternKind.NP, [signs.classify(q) for q in self.cat.q[1:]]
        top = self.cat.Q.y_coefficients()[-1]  # 2x - 1: NP, top(1/2) = 0, so <= 0
        vectors, patterns = _q_sign_vectors(self.enclosures, HALF)
        return self.q_chain() | {
            "q1..q5_NP": all(kind is NP for kind in q_kinds),
            "top_NP_and_nonpositive": signs.classify(top) is NP and top(HALF) <= 0,
            "all_PN": set(patterns) == {signs.PatternKind.PN.value},
            "q1..q5_patterns": " ".join(kind.value for kind in q_kinds),
            "sign_vectors": " ".join(vectors),
            "patterns": patterns,
        }

    @_step(STEPS, "strip.antidiagonal-identity", METHOD_EXACT_IDENTITY,
           "Q(x, 1-x) equals its displayed factored form coefficient for "
           "coefficient.")
    def antidiagonal_identity(self):
        t = _T
        factored = Fraction(4, 625) * (1 - t) * (252 + (5 * t - 1) * self.INNER)
        substituted = self.cat.Q.substitute_y(Poly((1, -1)))  # y := 1 - x
        return {"identity": substituted == factored, "leading_constant": Fraction(4, 625)}

    @_step(STEPS, "strip.antidiagonal-positive", METHOD_EXACT_POLY,
           "On [1/5, 1/2] the factored form is positive: the inner factor "
           "has a certified positive minimum, (5x-1) is nonnegative and "
           "(1-x) at least 1/2.")
    def antidiagonal_positive(self):
        # each monomial c x^k is monotone for x >= 0, so it is smallest at an
        # endpoint of [1/5, 1/2]; the sum of those minima bounds the inner factor
        coeffs = enumerate(self.INNER.coeffs)
        inner_min = sum(min(c * end**k for end in self.X_ENDS) for k, c in coeffs)
        # (5x - 1) >= 0 and (1 - x) >= 1/2 on [1/5, 1/2], so the bracket >= 252;
        # both are linear, so they hold on the range if they hold at its ends
        edge_lower = Fraction(4, 625) * (1 - HALF) * 252
        return {
            "inner_min_positive": inner_min > 0,
            "5x-1>=0": all(5 * x - 1 >= 0 for x in self.X_ENDS),
            "1-x>=1/2": all(1 - x >= HALF for x in self.X_ENDS),
            "inner_min_bound": inner_min,
            "edge_lower_bound": edge_lower,
        }

    @_step(STEPS, "strip.denominator-positivity", METHOD_EXACT_POLY,
           "1 + x + y - 2xy >= 1 on the unit square (bilinear, so its "
           "minimum is at a corner); the remaining cleared factors have "
           "positive coefficients.")
    def denominators(self):
        corner_min = _unit_square_min(self.log_argument.num)
        return {"corner_min": corner_min, "corner_min_at_least_1": corner_min >= 1,
                "cleared_factors_positive": _positive_coefficients(self.CLEARED)}

    _derived(STEPS, "strip.reduce-to-diagonal",
             "With dF/dy > 0 on the strip, F(x, y) >= F(x, x) = f(x) > 0.",
             [row[0] for row in _Diagonal.STEPS + STEPS])


def replay_strip(dps: int = DEFAULT_DPS, earlier=()) -> list[ProofStep]:
    """Certify F(x, y) >= f(x) > 0 on the strip via dF/dy > 0.

    The digamma-difference lower bound (n = 3) turns dF/dy into
    x Q(x, y) / [positive factors]; Q is a one-sign-change polynomial in y
    whose positivity on x <= y <= 1 - x follows from Q(x, 1-x) > 0.  Its
    derived step reads the diagonal steps among the `earlier` steps, and
    fails without them.
    """
    return _Strip(dps).run(earlier)


# ---------------------------------------------------------------------------
# replay of the trapezoid argument (0 < x < 1/5)
# ---------------------------------------------------------------------------


class _Trapezoid(_Phase):
    STEPS: list = []
    G_LOWER_END = Fraction(3, 20)   # A.g-lower: g > 0 on (0, G_LOWER_END]
    DECREASING = (Fraction(1, 10), Fraction(1, 5))   # where A.g-decreasing has g' < 0
    LEFT_EDGE_BASE = 1 + _T   # cubed in the denominator of A.left-edge-concavity
    B_EDGE_BASE = 34 + 7 * _T   # cubed in the denominator of B.concavity

    @cached_property
    def guard_ok(self) -> bool:
        """17 + 16x - 25x^2 > 0 on (0, 1/5], a denominator of g and g'."""
        return signs.positive_below(EDGE_GUARD, Fraction(1, 5))

    # --- subregion A: y >= x + 9/25 --------------------------------------
    @_step(STEPS, "trapezoid.A.mixed-partial", METHOD_EXACT_IDENTITY,
           "d2G/dxdy = 12(y-x)/(1+x+y-2xy)^3 exactly, and the cube's base "
           "is at least 1 on the unit square, so dG/dx increases in y "
           "(and dG/dy in x) above the diagonal.")
    def mixed_partial(self):
        x, y, v = BiPoly.x(), BiPoly.y(), self.log_argument.num
        # dG/dx(y, x) is the y-derivative of G(y, x): ties dGdx_rational to G
        tied = G_rational(y, x).partial_y().equivalent(dGdx_rational(y, x))
        mixed = dGdx_rational(x, y).partial_y()
        mixed_ok = mixed.equivalent((12 * (y - x)) / (v * v * v))
        corner_min = _unit_square_min(v)
        return {"dGdx_identity": tied, "identity": mixed_ok, "corner_min": corner_min,
                "corner_min_at_least_1": corner_min >= 1}

    @_step(STEPS, "trapezoid.A.edge-slope-identity", METHOD_EXACT_IDENTITY,
           "Substituting y = x + 9/25 into the rational part of dG/dx "
           "gives (913+350x-1250x^2)/(2(17+16x-25x^2)^2) exactly.")
    def edge_slope_identity(self):
        # dG/dx on the edge y = x + 9/25: the g that A.g-at-right-edge encloses
        return {"identity": dGdx_rational(_T, _T + EDGE_OFFSET).equivalent(-EDGE_SLOPE_QUOTIENT)}

    @_step(STEPS, "trapezoid.A.g-lower", METHOD_SIGN_ENGINE,
           "g(x) exceeds a quotient whose numerator is p0(x) plus "
           "nonnegative tail terms; p0(3/20) > 0 certifies p0 > 0 on "
           "(0, 3/20], hence g > 0 there.")
    def g_lower(self):
        t = _T
        p0 = self.cat.p[0]
        tail = 307230 * t**5 + 823500 * t**6 + 675000 * t**7
        rhs = RationalFn(p0 + tail, 2 * YANG_ARGS[A_LARGE] * EDGE_GUARD**2)
        return {
            "identity": (derive_lx(A_LARGE) - EDGE_SLOPE_QUOTIENT).equivalent(rhs),
            "p0_at_3_20": p0(self.G_LOWER_END),
            "p0_certificate": signs.positive_below(p0, self.G_LOWER_END),
            "edge_guard_positive": self.guard_ok,
            "yang_factors_positive": self.yang_positive,
            "tail": "307230 x^5 + 823500 x^6 + 675000 x^7 (nonnegative)",
        }

    @_step(STEPS, "trapezoid.A.g-decreasing", METHOD_SIGN_ENGINE,
           "g'(x) is below minus a quotient whose numerator combines "
           "127679911(10x-1) with x p1(x): positive on (1/10, 1/5) since "
           "p1(1/5) > 0 certifies p1 > 0 on (0, 1/5]; hence g decreases "
           "there and g(x) > g(1/5).")
    def g_decreasing(self):
        t = _T
        p1 = self.cat.p[1]
        deriv_num = 11633 - 21600 * t - 13125 * t**2 + 31250 * t**3
        deriv_quotient = deriv_num / EDGE_GUARD**3
        deriv_ok = (-EDGE_SLOPE_QUOTIENT).derivative().equivalent(deriv_quotient)
        den = 2 * YANG_ARGS[A_LARGE] ** 2 * EDGE_GUARD**3
        factor, (lo, hi) = 10 * t - 1, self.DECREASING
        rhs = RationalFn(-(127679911 * factor + t * p1), den)
        return {
            "derivative_identity": deriv_ok,
            "identity": (derive_lxx(A_LARGE) + deriv_quotient).equivalent(rhs),
            "p1_at_1_5": p1(hi),
            "p1_certificate": signs.positive_below(p1, hi),
            "edge_guard_positive": self.guard_ok,
            "yang_factors_positive": self.yang_positive,
            # linear: 0 at lo and positive at hi, so positive on (lo, hi]
            "10x-1>0": factor(lo) == 0 and factor(hi) > 0,
        }

    @_step(STEPS, "trapezoid.A.g-at-right-edge", METHOD_EXACT_ENCLOSURE,
           "g(1/5) = 0.001914... > 0; with g decreasing on (1/10, 1/5) and "
           "positive on (0, 3/20], the intervals overlap (1/10 < 3/20) and "
           "cover (0, 1/5), so dG/dx > 0 on the whole subregion.")
    def g_at_right_edge(self):
        # g(x) = psi'(x+1) - EDGE_SLOPE_QUOTIENT(x), by A.edge-slope-identity
        x, (lo, hi) = Fraction(1, 5), self.DECREASING
        g = stirling_enclosure(x + 1, 1, self.dps) - EDGE_SLOPE_QUOTIENT(x)
        # (0, G_LOWER_END] and (lo, hi) overlap, and the union reaches x
        return _positive({"g(1/5)": g}, self.dps) | {
            "interval_cover": lo < self.G_LOWER_END and hi >= x,
        }

    @_step(STEPS, "trapezoid.A.left-edge-concavity", METHOD_SIGN_ENGINE,
           "d2/dy2 G(0, y) = -4/(1+y)^3 - psi''(1+y) is bounded above by "
           "-p2(y)/[positive], and p2(1) > 0 certifies p2 > 0 on (0, 1]: "
           "G(0, .) is strictly concave on [0, 1].")
    def left_edge_concavity(self):
        t = _T
        p2, base = self.cat.p[2], self.LEFT_EDGE_BASE
        quotient = RationalFn(Poly((-4,)), base**3)
        second = G_rational(0, t).derivative().derivative()
        second_ok = second.equivalent(quotient)
        rhs = RationalFn(-p2, 2 * base**3 * YANG_ARGS[A_SMALL] ** 2)
        return {
            "second_derivative_identity": second_ok,
            "identity": (quotient - derive_lxx(A_SMALL)).equivalent(rhs),
            "p2_at_1": p2(Fraction(1)),
            "p2_certificate": signs.positive_below(p2, Fraction(1)),
            "cube_base_positive": _positive_coefficients([base]),
            "yang_factors_positive": self.yang_positive,
        }

    @_step(STEPS, "trapezoid.A.left-edge-endpoints", METHOD_EXACT_IDENTITY,
           "G(0,0) = 0 and G(0,1) = psi(1) - psi(2) + 1 = 0, so concavity "
           "makes G(0, y) nonnegative on [0, 1].")
    def left_edge_endpoints(self):
        # G(0, y) = psi(1) - psi(y+1) + G_rational(0, y): the psi terms cancel
        # at y = 0, and at y = 1 they are -1 by the recurrence
        at_0, at_1 = (G_rational(Fraction(0), Fraction(y)) for y in (0, 1))
        return {
            "G_rational(0,0)": at_0,
            "G_rational(0,1)": at_1,
            "G(0,0)=0": at_0 == 0,
            "G(0,1)=0": at_1 == 1,
            "imports": "psi(2) = psi(1) + 1 (DLMF 5.5.2)",
        }

    _derived(STEPS, "trapezoid.A.conclusion",
             "dG/dx > 0 on 0 < x < 1/5 and G(0, y) >= 0 give G > 0 for "
             "y >= x + 9/25.", [row[0] for row in STEPS])

    # --- subregion B: 9/25 < y < x + 9/25 --------------------------------------
    @_step(STEPS, "trapezoid.B.slope-positive", METHOD_SIGN_ENGINE,
           "On the edge x = y - 9/25 the rational part of dG/dy matches "
           "(13+2150y-1250y^2)/(2(8+34y-25y^2)^2); subtracting the upper "
           "psi' bound leaves [5275352 + (25y-9) * bracket]/[positive] "
           "with the bracket positive on (0, 1], so dG/dy > 0 for "
           "9/25 < y < 1 (using the mixed-partial monotonicity).",
           ["trapezoid.A.mixed-partial"])
    def b_slope(self):
        # dG/dy(x, y) = -dG/dx(y, x) by antisymmetry; on the edge x = y - 9/25
        t = _T
        guard = 8 + 34 * t - 25 * t**2   # (25/2)(1 + x + y - 2xy) on the edge
        quotient = (13 + 2150 * t - 1250 * t**2) / (2 * guard**2)
        sub_ok = dGdx_rational(t, t - EDGE_OFFSET).equivalent(-quotient)
        # the bracket multiplying (25y - 9) in the slope bound
        bracket = (
            4404553 + 18643550 * t + 55576875 * t**2 + 88996875 * t**3
            + 9375000 * t**4 + 843750 * t**4 * (1 - t) * (57 + 50 * t)
        )
        den = 6250 * YANG_ARGS[A_SMALL] * guard**2
        rhs = RationalFn(5275352 + (25 * t - 9) * bracket, den)
        return {
            "substitution_identity": sub_ok,
            "identity": (quotient - derive_lx(A_SMALL)).equivalent(rhs),
            "bracket_pattern": signs.classify(bracket).value,
            "bracket_at_1": bracket(Fraction(1)),
            "bracket_certificate": signs.positive_below(bracket, Fraction(1)),
            "edge_guard_positive": signs.positive_below(guard, Fraction(1)),
            "yang_factors_positive": self.yang_positive,
        }

    @_step(STEPS, "trapezoid.B.concavity", METHOD_SIGN_ENGINE,
           "d2/dx2 G(x, 9/25) = psi''(x+1) + 25564/(34+7x)^3 is bounded by "
           "-[p3(x) + 200037600 x^9]/[positive]; p3(1) > 0 certifies p3 > 0 "
           "on (0, 1], so G(., 9/25) is strictly concave on (0, 1/5).")
    def b_concavity(self):
        t = _T
        p3, base = self.cat.p[3], self.B_EDGE_BASE
        quotient = RationalFn(Poly((25564,)), base**3)
        second = G_rational(t, EDGE_OFFSET).derivative().derivative()
        second_ok = second.equivalent(quotient)
        den = 2 * base**3 * YANG_ARGS[A_LARGE] ** 2
        rhs = RationalFn(-(p3 + 200037600 * t**9), den)
        return {
            "second_derivative_identity": second_ok,
            "identity": (derive_lxx(A_LARGE) + quotient).equivalent(rhs),
            "p3_at_1": p3(Fraction(1)),
            "p3_certificate": signs.positive_below(p3, Fraction(1)),
            "cube_base_positive": _positive_coefficients([base]),
            "yang_factors_positive": self.yang_positive,
        }

    @_step(STEPS, "trapezoid.B.corner-values", METHOD_EXACT_ENCLOSURE,
           "G(0, 9/25) = 0.0554... and G(1/5, 9/25) = 0.04015... are both "
           "positive; concavity pins G(x, 9/25) above their minimum.")
    def b_corners(self):
        y = EDGE_OFFSET
        values = {f"G({x},{y})": _enclosed_G(x, y, self.dps)
                  for x in (Fraction(0), Fraction(1, 5))}
        return _positive(values, self.dps)

    _derived(STEPS, "trapezoid.B.conclusion",
             "G increases in y past 9/25 and G(., 9/25) is concave with "
             "positive corner values, so G > 0 for 9/25 < y < x + 9/25.",
             ["trapezoid.B.slope-positive", "trapezoid.B.concavity",
              "trapezoid.B.corner-values"])

    # --- subregion C: x < y <= 9/25 --------------------------------------------
    @_step(STEPS, "trapezoid.C.slope-positive", METHOD_SIGN_ENGINE,
           "dG/dy at x = 0 equals 2/(1+y)^2 - psi'(y+1), bounded below by "
           "p4(y)/[positive]; p4(9/25) > 0 certifies p4 > 0 on (0, 9/25], "
           "so dG/dy > 0 there and G(x, y) > G(x, x) = 0.",
           ["trapezoid.A.mixed-partial"])
    def c_slope(self):
        t = _T
        p4 = self.cat.p[4]
        slope = RationalFn(Poly((2,)), (1 + t) ** 2)
        sub_ok = dGdx_rational(t, 0).equivalent(-slope)
        rhs = RationalFn(p4, 2 * (1 + t) ** 2 * YANG_ARGS[A_SMALL])
        return {
            "substitution_identity": sub_ok,
            "identity": (slope - derive_lx(A_SMALL)).equivalent(rhs),
            "p4_at_9_25": p4(EDGE_OFFSET),
            "p4_certificate": signs.positive_below(p4, EDGE_OFFSET),
            "yang_factors_positive": self.yang_positive,
        }

    _derived(STEPS, "trapezoid.C.conclusion",
             "G > 0 for x < y <= 9/25.", ["trapezoid.C.slope-positive"])

    # --- boundary of D -----------------------------------------------------------
    @_step(STEPS, "trapezoid.boundary.antidiagonal", METHOD_EXACT_ENCLOSURE,
           "On x + y = 1 the two lower bounds coincide exactly and "
           "B stays strictly above them, so F(x, 1-x) > 0.")
    def boundary_antidiagonal(self):
        t = _T
        coincide = new_bound(t, 1 - t).equivalent(ivady_lower_bound(t, 1 - t))
        xs = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(19, 100))
        values = {f"F({x},{1 - x})": _enclosed_F(x, 1 - x, self.dps) for x in xs}
        return {"bounds_coincide_identity": coincide} | _positive(values, self.dps)

    @_step(STEPS, "trapezoid.boundary.left-edge", METHOD_EXACT_IDENTITY,
           "F(0, y) vanishes identically (the log arguments collapse to 1).")
    def boundary_left_edge(self):
        # F(0, y) = log Gamma(1) + log Gamma(y+1) - log Gamma(y+1) - log(argument):
        # log Gamma(1) = 0 as Gamma(1) = 1, and the argument is 1 for every y
        return {
            "log_argument_is_1": _log_argument(Fraction(0), _T).equivalent(1),
            "imports": GAMMA_AT_1,
        }

    _derived(STEPS, "trapezoid.boundary.diagonal",
             "F(x, x) = f(x) > 0 on the fold diagonal.",
             [row[0] for row in _Diagonal.STEPS])
    _derived(STEPS, "trapezoid.boundary.right-edge",
             "F(1/5, y) > 0 for y in [1/5, 4/5] (covered by the strip "
             "argument).", ["strip.reduce-to-diagonal"])
    _derived(STEPS, "trapezoid.no-interior-extremum",
             "G > 0 throughout D rules out interior critical points of F, "
             "so F attains its minimum on the boundary, where it is 0 only "
             "on the x = 0 edge: F(x, y) >= 0 with equality only at x = 0.",
             [f"trapezoid.{part}.conclusion" for part in "ABC"]
             + [row[0] for row in STEPS if row[0].startswith("trapezoid.boundary.")])


def replay_trapezoid(dps: int = DEFAULT_DPS, earlier=()) -> list[ProofStep]:
    """Certify that G > 0 on D (no interior extremum of F) and that F >= 0
    on the boundary of D with equality only on the x = 0 edge.  Its boundary
    steps read the diagonal and strip steps among the `earlier` steps, and
    fail without them."""
    return _Trapezoid(dps).run(earlier)


# ---------------------------------------------------------------------------
# aggregation and the global sweep
# ---------------------------------------------------------------------------


class ProofReport(NamedTuple):
    dps: int
    steps: list[ProofStep]

    @property
    def counts(self) -> dict:
        statuses = [s.status for s in self.steps]
        return {k: statuses.count(k) for k in (VERIFIED, FAILED, INCONCLUSIVE)}

    @property
    def all_verified(self) -> bool:
        return all(s.status == VERIFIED for s in self.steps)

    @property
    def failed_ids(self) -> list[str]:
        return [s.id for s in self.steps if s.status != VERIFIED]

    def to_json_obj(self) -> dict:
        return {
            "precision_digits": self.dps,
            "steps": [s.to_json_obj() for s in self.steps],
            "summary": {
                "total": len(self.steps),
                **self.counts,
                "all_verified": self.all_verified,
            },
        }


def replay_all(dps: int = DEFAULT_DPS) -> ProofReport:
    """Run the three phases in order, each given the steps before it, and
    collect the report."""
    steps = replay_diagonal(dps)
    steps += replay_strip(dps, steps)
    steps += replay_trapezoid(dps, steps)
    return ProofReport(dps=dps, steps=steps)


class SweepResult(NamedTuple):
    grid_n: int
    rows_written: int
    min_margin_new: float
    argmin_new: tuple[float, float]
    min_margin_ivady: float          # over interior cells: i, j < n
    argmin_ivady: tuple[float, float]
    min_margin_alzer: float          # over interior cells: i, j < n
    argmin_alzer: tuple[float, float]
    alpha_used: float
    classical_edges_exact: bool      # both classical bounds = B on x = 1 and y = 1
    hp_min_margin: str               # argmin margin's digits, enclosed at full precision
    hp_agrees: bool


CSV_HEADER = "x,y,beta,margin_new"
CSV_HEADER_LINE = CSV_HEADER + "\r\n"   # CRLF ends every line, as in the rows
MIRROR_BLOCK = 1000   # rows that keep mirrored cell text for one another


def classical_edges_exact() -> bool:
    """Both classical lower bounds equal B exactly on the edges x = 1 and y = 1.

    B(1, t) = Gamma(1) Gamma(t) / Gamma(1 + t) = 1/t.  The shared formulas
    give ivady_lower_bound(1, t) = alzer_lower_bound(1, t, alpha) = 1/t as
    rational functions of t and a free alpha, and the same with the
    arguments swapped; the check is by exact cross-multiplication.
    """
    t, alpha = BiPoly.x(), BiPoly.y()
    one = Fraction(1)
    reciprocal = RationalFn(BiPoly.const(1), t)
    edges = (
        ivady_lower_bound(one, t),
        ivady_lower_bound(t, one),
        alzer_lower_bound(one, t, alpha),
        alzer_lower_bound(t, one, alpha),
    )
    return all(bound.equivalent(reciprocal) for bound in edges)


def sweep_theorem(
    grid_n: int,
    dps: int = DEFAULT_DPS,
    row_sink: Optional[Callable[[str], object]] = None,
) -> SweepResult:
    """Audit the bound on the grid {(i/n, j/n)}, i, j = 1..n.

    Grid cells are evaluated in double precision through the shared
    formulas.  The margin on the edge y = 1 is x/(x+2), so from n = 10 on
    the grid minimum is 1/(2n+1) at (1/n, 1) (below, at (1/n, 1/n)), far
    above double rounding at desk grid sizes; the worst cell's margin is
    then enclosed on integers at `dps` digits (`_enclosed_margin`), and both
    ends of the enclosure must agree with the double margin to 1e-9
    relative.  ``hp_min_margin`` prints the digits, up to `dps`, to which
    both ends round alike (``Interval.rounded``).  Both classical bounds
    equal B exactly on the edges x = 1 and y = 1 (`classical_edges_exact`),
    where a double-precision margin is rounding noise of either sign, so
    their minima are taken over the interior cells i, j < n.

    B's double expression and the three bounds are symmetric bit for bit,
    so the three minima are decided on the cells x <= y alone, in scan
    order (strict ``<``): the first of a symmetric pair of equal margins
    in scan order is the one with x <= y, so the minima and argmins are
    those of the whole grid.  A cell (i, j) below the diagonal decides no
    minimum and evaluates neither classical bound.  With a sink it writes
    the text of its twin (j, i), which row j kept with x and y swapped;
    text is kept only within a block of `MIRROR_BLOCK` rows, so at most one
    block's text is held, and a cell whose twin lies in an earlier block
    recomputes only beta and margin_new for its text.  Without a sink it is
    not visited.

    `row_sink`, when given, is called once per grid line x = i/n with the
    CSV text of its n cells (columns as in `CSV_HEADER`, shortest
    round-trip ``repr`` of each double, CRLF line ends); a file's
    ``write`` fits.  Without it no cell is formatted.  The bounds are left
    out of the rows: the shared formulas recompute each of them from x, y
    and alpha bit for bit.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    exp, lgamma = math.exp, math.lgamma
    al = constants.alpha_of(math.pi)
    n = grid_n
    best = (math.inf, (0.0, 0.0))
    best_iv = (math.inf, (0.0, 0.0))
    best_az = (math.inf, (0.0, 0.0))
    axis = [(v, lgamma(v), repr(v) + ",") for v in (k / n for k in range(1, n + 1))]
    kept = [[] for _ in axis]   # kept[j]: row j's text of the cells it mirrors
    for i, (xv, lg_x, head) in enumerate(axis):
        start = i - i % MIRROR_BLOCK   # first row, and column, of this row's block
        stop = min(n, start + MIRROR_BLOCK)
        cells = []
        if row_sink is not None:   # the cells below the diagonal, twins of earlier cells
            for yv, lg_y, r_y in axis[:start]:   # twins in an earlier block kept no text
                b = exp(lg_x + lg_y - lgamma(xv + yv))
                cells.append(f"{head}{r_y}{b!r},{b - new_bound(xv, yv)!r}\r\n")
            cells += kept[i]
            kept[i] = None
        for j, (yv, lg_y, r_y) in enumerate(axis[i:], start=i):
            b = exp(lg_x + lg_y - lgamma(xv + yv))
            m_new = b - new_bound(xv, yv)
            if m_new < best[0]:
                best = (m_new, (xv, yv))
            if yv < 1:   # an interior cell, as x <= y
                m_iv = b - ivady_lower_bound(xv, yv)
                if m_iv < best_iv[0]:
                    best_iv = (m_iv, (xv, yv))
                m_az = b - alzer_lower_bound(xv, yv, al)
                if m_az < best_az[0]:
                    best_az = (m_az, (xv, yv))
            if row_sink is not None:
                tail = f"{b!r},{m_new!r}\r\n"
                cells.append(f"{head}{r_y}{tail}")
                if i < j < stop:
                    mirror = kept[j]
                    mirror.append(f"{r_y}{head}{tail}")
                    if len(mirror) == 64:   # joined, kept text costs about its bytes
                        kept[j] = ["".join(mirror)]
        if row_sink is not None:
            row_sink("".join(cells))

    xa, ya = best[1]
    hp = _enclosed_margin(Fraction(round(xa * n), n), Fraction(round(ya * n), n), dps)
    tolerance = 1e-9 * max(1.0, abs(best[0]))
    hp_agrees = all(abs(float(end) - best[0]) <= tolerance for end in hp)
    return SweepResult(
        grid_n=n,
        rows_written=n * n,
        min_margin_new=best[0],
        argmin_new=best[1],
        min_margin_ivady=best_iv[0],
        argmin_ivady=best_iv[1],
        min_margin_alzer=best_az[0],
        argmin_alzer=best_az[1],
        alpha_used=al,
        classical_edges_exact=classical_edges_exact(),
        hp_min_margin=hp.rounded(dps),
        hp_agrees=hp_agrees,
    )
