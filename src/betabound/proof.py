"""Machine replay of the case-analysis proof of the beta-function lower bound.

The inequality being certified is

    B(x, y) > ((x + y) / (x y)) * (1 - 2 x y / (x + y + 1))      on (0,1]^2.

Writing F(x, y) = log[Gamma(x+1) Gamma(y+1) / Gamma(x+y+1)]
               - log(1 - 2xy/(x+y+1)),
the claim is F > 0 away from x = 0 (F is symmetric, and the region
x + y >= 1 follows from the classical two-sided bounds), so the argument
splits into the diagonal gap f(x) = F(x, x), the strip 1/5 <= x <= 1/2
where the digamma-difference lower bound reduces dF/dy to the sign of the
bivariate polynomial Q(x, y), and the trapezoid
D = {x < y < 1 - x, 0 < x < 1/5} where G = dF/dx - dF/dy is shown to be
positive (no interior extremum) and the boundary values pin the minimum.

Each displayed step of that argument becomes a ``ProofStep``: algebraic
identities are certified by exact cross-multiplication, polynomial sign
claims by the one-sign-change criterion with exact evaluations, and the
finitely many transcendental values by high-precision evaluation with a
10x error-budget margin rule.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .catalogue import load_catalogue
from .constants import agrees_with_printed
from .polys import BiPoly, Poly, RationalFn
from .psibounds import (
    A_LARGE,
    A_SMALL,
    PRINTED_LX,
    PRINTED_LXX,
    alzer_bracket_rf,
    error_budget,
)
from .specials import (
    DEFAULT_DPS,
    GUARD_DIGITS,
    beta,
    context,
    log_gamma,
    psi,
    psi1,
    to_mpf,
)
from . import signs

# ---------------------------------------------------------------------------
# formulas, written once as plain arithmetic: floats, mpfs and Fractions give
# numbers, Poly/BiPoly symbols give the RationalFn that the replay certifies.
# The sweep's CSV is bit-for-bit reproducible only while their operation
# order stays fixed.
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
    return (1 - alpha * (1 - x) * (1 - y) / ((1 + x) * (1 + y))) / (x * y)


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
# high-precision wrappers: F, its partials, G, the diagonal and edge functions
# ---------------------------------------------------------------------------

EDGE_OFFSET = Fraction(9, 25)   # the upper trapezoid subregion is y >= x + 9/25


def _unit_args(ctx, x, y, allow_zero: bool = False):
    xm, ym = to_mpf(ctx, x), to_mpf(ctx, y)
    low_ok = (xm >= 0 and ym >= 0) if allow_zero else (xm > 0 and ym > 0)
    if not (low_ok and xm <= 1 and ym <= 1):
        raise ValueError("domain error: arguments must lie in (0, 1]")
    return xm, ym


def _evaluate(compute, x, y, dps: int, allow_zero: bool = False):
    """compute(work, x, y) on the unit square, rounded to `dps` digits.

    `work` is the context with GUARD_DIGITS extra digits; x and y arrive as
    its mpfs, and special functions inside are evaluated at ``work.dps``.
    """
    work = context(dps + GUARD_DIGITS)
    xm, ym = _unit_args(work, x, y, allow_zero)
    return context(dps).mpf(compute(work, xm, ym))


def new_lower_bound(x, y, dps: int = DEFAULT_DPS):
    """The certified bound ((x+y)/(xy)) (1 - 2xy/(x+y+1))."""
    return _evaluate(lambda work, x, y: new_bound(x, y), x, y, dps)


def ivady_lower(x, y, dps: int = DEFAULT_DPS):
    """(x + y - xy) / (xy), the classical polynomial lower bound."""
    return _evaluate(lambda work, x, y: ivady_lower_bound(x, y), x, y, dps)


def ivady_upper(x, y, dps: int = DEFAULT_DPS):
    """(x + y) / (xy (1 + xy)), the matching upper bound."""
    return _evaluate(lambda work, x, y: ivady_upper_bound(x, y), x, y, dps)


def theorem_margin(x, y, dps: int = DEFAULT_DPS):
    """B(x, y) minus the certified lower bound; positive on (0,1]^2."""
    return _evaluate(
        lambda work, x, y: beta(x, y, work.dps) - new_bound(x, y), x, y, dps
    )


def _log_margin(work, x, y):
    lg = lambda t: log_gamma(t, work.dps)
    return lg(x + 1) + lg(y + 1) - lg(x + y + 1) - log_correction(x, y, work.ln)


def big_F(x, y, dps: int = DEFAULT_DPS):
    """The log-scale margin; zero exactly on the x = 0 and y = 0 edges."""
    return _evaluate(_log_margin, x, y, dps, allow_zero=True)


def _dF_dx(work, x, y):
    return psi(x + 1, work.dps) - psi(x + y + 1, work.dps) + dFdx_rational(x, y)


def dF_dx(x, y, dps: int = DEFAULT_DPS):
    """psi(x+1) - psi(x+y+1) + 2y(1+y)/((1+x+y)(1+x+y-2xy))."""
    return _evaluate(_dF_dx, x, y, dps, allow_zero=True)


def dF_dy(x, y, dps: int = DEFAULT_DPS):
    """psi(y+1) - psi(x+y+1) + 2x(1+x)/((1+x+y)(1+x+y-2xy))."""
    return dF_dx(y, x, dps)


def _G(work, x, y):
    return psi(x + 1, work.dps) - psi(y + 1, work.dps) + G_rational(x, y)


def big_G(x, y, dps: int = DEFAULT_DPS):
    """dF/dx - dF/dy = psi(x+1) - psi(y+1) - 2(x-y)/(1+x+y-2xy)."""
    return _evaluate(_G, x, y, dps, allow_zero=True)


def _dG_dx(work, x, y):
    return psi1(x + 1, work.dps) + dGdx_rational(x, y)


def dG_dx(x, y, dps: int = DEFAULT_DPS):
    """psi'(x+1) - 2(1+2y-2y^2)/(1+x+y-2xy)^2."""
    return _evaluate(_dG_dx, x, y, dps, allow_zero=True)


def diag_gap(x, dps: int = DEFAULT_DPS):
    """f(x) = F(x, x): log[Gamma(x+1)^2/Gamma(2x+1)] - log(1 - 2x^2/(1+2x)).

    Defined while 1 + 2x - 2x^2 > 0, i.e. up to x = (sqrt(3)+1)/2; the
    denominator positivity is checked explicitly before evaluating.
    """
    work = context(dps + GUARD_DIGITS)
    xm = to_mpf(work, x)
    if not xm > 0:
        raise ValueError("domain error: diag_gap requires x > 0")
    if not 1 + 2 * xm - 2 * xm * xm > 0:
        raise ValueError("domain error: diag_gap requires 1 + 2x - 2x^2 > 0")
    return context(dps).mpf(_log_margin(work, xm, xm))


def edge_slope(x, dps: int = DEFAULT_DPS):
    """g(x) = dG/dx(x, x + 9/25), the slope along the binding edge y = x + 9/25.

    Equals psi'(x+1) - (913+350x-1250x^2)/(2(17+16x-25x^2)^2); the replay
    step ``trapezoid.A.edge-slope-identity`` certifies that rational part.
    """
    work = context(dps + GUARD_DIGITS)
    xm = to_mpf(work, x)
    return dG_dx(xm, xm + to_mpf(work, EDGE_OFFSET), dps)


@dataclass(frozen=True)
class RemarkOrdering:
    """Three-way comparison of B, the classical polynomial bound and ours."""

    x: object
    y: object
    regime: str                  # "x+y>=1" or "x+y<=1"
    beta: object
    new_bound: object
    ivady_bound: object
    ok: bool
    equalities: tuple[str, ...]


def remark_sandwich(x, y, dps: int = DEFAULT_DPS) -> RemarkOrdering:
    """Verify the bound ordering on either side of the line x + y = 1.

    For x + y >= 1:  B >= (x+y-xy)/(xy) >= new bound (the classical bound
    is at least as strong); for x + y <= 1 the second comparison reverses
    and the new bound is the stronger one.
    """
    work = context(dps + GUARD_DIGITS)
    xm, ym = _unit_args(work, x, y)
    b = beta(xm, ym, work.dps)
    new = new_bound(xm, ym)
    iv = ivady_lower_bound(xm, ym)
    tol = 10 * to_mpf(work, error_budget(dps))
    equalities = []
    if xm + ym >= 1:
        regime = "x+y>=1"
        first = b - iv
        second = iv - new
    else:
        regime = "x+y<=1"
        first = b - new
        second = new - iv
    ok = first > -tol and second > -tol
    if abs(first) <= tol:
        equalities.append("beta == stronger bound")
    if abs(second) <= tol:
        equalities.append("bounds coincide")
    out = context(dps)
    return RemarkOrdering(
        x=out.mpf(xm),
        y=out.mpf(ym),
        regime=regime,
        beta=out.mpf(b),
        new_bound=out.mpf(new),
        ivady_bound=out.mpf(iv),
        ok=bool(ok),
        equalities=tuple(equalities),
    )


# ---------------------------------------------------------------------------
# proof steps
# ---------------------------------------------------------------------------

METHOD_EXACT_POLY = "exact-polynomial"
METHOD_EXACT_IDENTITY = "exact-identity"
METHOD_HIGH_PRECISION = "high-precision"
METHOD_SIGN_ENGINE = "sign-engine"

VERIFIED = "verified"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"


@dataclass
class ProofStep:
    id: str
    claim: str
    method: str
    status: str
    evidence: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "method": self.method,
            "status": self.status,
            "evidence": self.evidence,
        }


def _identity_step(sid: str, claim: str, ok: bool, **evidence) -> ProofStep:
    ev = {k: str(v) for k, v in evidence.items()}
    return ProofStep(sid, claim, METHOD_EXACT_IDENTITY, VERIFIED if ok else FAILED, ev)


def _hp_status(margin, dps: int) -> str:
    threshold = 10 * error_budget(dps)
    if margin > threshold:
        return VERIFIED
    if abs(margin) <= threshold:
        return INCONCLUSIVE
    return FAILED


def _combine(statuses) -> str:
    statuses = list(statuses)
    if any(s == FAILED for s in statuses):
        return FAILED
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return VERIFIED


def poly_lower_bound_on_box(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact lower bound for p on [lo, hi], 0 <= lo <= hi.

    Each monomial c x^k is monotone on the nonnegative axis, so its
    minimum sits at one of the two endpoints; summing the per-monomial
    minima gives a crude but certified bound.
    """
    if not 0 <= lo <= hi:
        raise ValueError("box must satisfy 0 <= lo <= hi")
    total = Fraction(0)
    for k, c in enumerate(p.coeffs):
        total += min(c * lo**k, c * hi**k)
    return total


def bilinear_corner_min(bp: BiPoly, xlo, xhi, ylo, yhi) -> Fraction:
    """Exact minimum over a box of a polynomial of degree <= 1 per variable."""
    if bp.degree_x > 1 or bp.degree_y > 1 or any(
        i > 1 or j > 1 for (i, j) in bp.terms
    ):
        raise ValueError("corner minimization needs degree <= 1 per variable")
    corners = [(xlo, ylo), (xlo, yhi), (xhi, ylo), (xhi, yhi)]
    return min(bp(Fraction(cx), Fraction(cy)) for cx, cy in corners)


# -- shared exact building blocks -------------------------------------------

_T = Poly.x()

# numerator of the lower bound for the half-slope derivative of the
# diagonal gap (all coefficients positive, degree 12)
DIAG_SLOPE_NUMERATOR = Poly(
    (
        5533, 37994, 92054, 935456, 11448028, 67479864, 232646232,
        513934848, 747879552, 717361920, 442143360, 158630400, 18662400,
    )
)

EDGE_SLOPE_QUOTIENT = (913 + 350 * _T - 1250 * _T**2) / (
    2 * (17 + 16 * _T - 25 * _T**2) ** 2
)
EDGE_SLOPE_DERIV_QUOTIENT = (
    11633 - 21600 * _T - 13125 * _T**2 + 31250 * _T**3
) / ((17 + 16 * _T - 25 * _T**2) ** 3)

B_EDGE_QUOTIENT = (13 + 2150 * _T - 1250 * _T**2) / (
    2 * (8 + 34 * _T - 25 * _T**2) ** 2
)
B_CONCAVITY_QUOTIENT = RationalFn(Poly((25564,)), (34 + 7 * _T) ** 3)

# bracket multiplying (25y - 9) in the lower trapezoid slope bound
B_EDGE_BRACKET = (
    4404553 + 18643550 * _T + 55576875 * _T**2 + 88996875 * _T**3
    + 9375000 * _T**4 + 843750 * _T**4 * (1 - _T) * (57 + 50 * _T)
)


def _compose_rf(rf: RationalFn, inner: Poly) -> RationalFn:
    return RationalFn(rf.num.compose(inner), rf.den.compose(inner))


@lru_cache(maxsize=1)
def _bivariate_pieces():
    x, y = BiPoly.x(), BiPoly.y()
    u = x + y + 1
    v = 1 + x + y - 2 * x * y
    return x, y, u, v


# ---------------------------------------------------------------------------
# replay of the diagonal-gap positivity argument
# ---------------------------------------------------------------------------


def replay_diagonal(dps: int = DEFAULT_DPS) -> list[ProofStep]:
    """Certify f(x) = F(x, x) > 0 on the diagonal.

    (a) the rational part of f' matches 2 * 2x(1+x)/((1+2x)(1+2x-2x^2));
    (b) the half-slope derivative dominates an explicit quotient whose
        degree-12 numerator has positive coefficients only, so the
        half-slope is increasing from its zero at x = 0;
    (c) high-precision spot checks of f itself.
    """
    steps = []
    t = _T

    # (a) rational part of the derivative
    lhs = RationalFn(Poly((2,)), 1 + 2 * t) - (2 - 4 * t) / (1 + 2 * t - 2 * t**2)
    rhs = 2 * dFdx_rational(t, t)
    steps.append(
        _identity_step(
            "diagonal.slope-rational-identity",
            "The non-polygamma part of f'(x) equals 4x(1+x)/((1+2x)(1+2x-2x^2)) exactly.",
            lhs.equivalent(rhs),
        )
    )

    # (b) half-slope lower bound: identity, then positivity
    lower = (
        PRINTED_LX[A_LARGE]
        - 2 * _compose_rf(PRINTED_LX[A_SMALL], 2 * t)
        + (2 * (1 + 2 * t + 2 * t**2 + 8 * t**3 + 4 * t**4))
        / ((1 + 2 * t) ** 2 * (1 + 2 * t - 2 * t**2) ** 2)
    )
    den = (
        2 * (1 + 2 * t) ** 2 * (1 + 2 * t - 2 * t**2) ** 2
        * (17 + 15 * t + 15 * t**2) * (11 + 36 * t + 36 * t**2)
        * (11 + 30 * t + 60 * t**2) * (5 + 36 * t + 72 * t**2)
    )
    identity_ok = lower.equivalent(RationalFn(DIAG_SLOPE_NUMERATOR, den))
    steps.append(
        _identity_step(
            "diagonal.slope-lower-identity",
            "The sandwich lower bound for the half-slope derivative equals the "
            "displayed degree-12 quotient after clearing denominators.",
            identity_ok,
            numerator_constant=DIAG_SLOPE_NUMERATOR.coefficient(0),
            numerator_leading=DIAG_SLOPE_NUMERATOR.coeffs[-1],
        )
    )

    all_positive = all(c > 0 for c in DIAG_SLOPE_NUMERATOR.coeffs)
    steps.append(
        ProofStep(
            "diagonal.slope-numerator-positive",
            "Every coefficient of the degree-12 numerator is positive and the "
            "denominator is a product of squares and positive-coefficient "
            "factors, so the quotient is positive for x > 0.",
            METHOD_EXACT_POLY,
            VERIFIED if all_positive else FAILED,
            {
                "degree": str(DIAG_SLOPE_NUMERATOR.degree),
                "coefficient_signs": "all positive" if all_positive else "mixed",
            },
        )
    )

    # (c) spot checks of f
    spots = [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(13, 10)]
    values = {str(s): diag_gap(s, dps) for s in spots}
    statuses = [_hp_status(v, dps) for v in values.values()]
    work = context(dps + GUARD_DIGITS)
    log_pi_third = work.ln(work.pi / 3)
    half_matches = abs(values["1/2"] - log_pi_third) < 10 * error_budget(dps)
    steps.append(
        ProofStep(
            "diagonal.gap-positive-spots",
            "f is strictly positive at the sampled diagonal points, and "
            "f(1/2) agrees with log(pi/3).",
            METHOD_HIGH_PRECISION,
            _combine(statuses + [VERIFIED if half_matches else FAILED]),
            {k: str(v) for k, v in values.items()} | {"f(1/2)==log(pi/3)": str(half_matches)},
        )
    )
    return steps


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
            patterns[signs.classify(Poly(coeffs)).kind.value] += 1
    return vectors, dict(patterns)


def replay_strip(
    dps: int = DEFAULT_DPS, width: Fraction = Fraction(1, 10**6)
) -> list[ProofStep]:
    """Certify F(x, y) >= f(x) > 0 on the strip via dF/dy > 0.

    The digamma-difference lower bound (n = 3) turns dF/dy into
    x Q(x, y) / [positive factors]; Q is a one-sign-change polynomial in y
    whose positivity on x <= y <= 1 - x follows from Q(x, 1-x) > 0.
    """
    steps = []
    cat = load_catalogue()
    x, y, u, v = _bivariate_pieces()

    # gradient identities behind the reduction
    id_dx = (1 / u - (1 - 2 * y) / v).equivalent(dFdx_rational(x, y))
    id_dy = (1 / u - (1 - 2 * x) / v).equivalent(dFdx_rational(y, x))
    id_g = (dFdx_rational(x, y) - dFdx_rational(y, x)).equivalent(G_rational(x, y))
    steps.append(
        _identity_step(
            "strip.gradient-identities",
            "The rational parts of dF/dx, dF/dy and of G = dF/dx - dF/dy match "
            "their displayed closed forms exactly.",
            id_dx and id_dy and id_g,
        )
    )

    # (a) the bivariate reduction identity
    lhs = (
        alzer_bracket_rf(3)
        - RationalFn(BiPoly.const(1), x + y)
        + dFdx_rational(y, x)
    )
    den = v * (y + 1) * (x + y + 1) * (y + 2) * (x + y + 2) * (y + 3) * (x + y + 3)
    rhs = RationalFn(x * cat.Q, den)
    steps.append(
        _identity_step(
            "strip.dFdy-reduction-identity",
            "The three-term digamma-difference lower bound for dF/dy minus "
            "1/(x+y) plus the rational term equals x Q(x,y) over the product "
            "of the shifted linear factors, as rational functions.",
            lhs.equivalent(rhs),
        )
    )

    # root enclosures and ordering for the q family
    half = Fraction(1, 2)
    q0_neg = signs.negative_below(cat.q[0], half)
    enclosures = [
        signs.isolate_crossing(cat.q[k], 0, half, width) for k in range(1, 6)
    ]
    ordering = signs.verify_root_ordering(enclosures)
    steps.append(
        ProofStep(
            "strip.q-root-ordering",
            "q0 < 0 on (0, 1/2]; each of q1..q5 has a unique crossing root "
            "there and the enclosures are disjoint and increasing, so "
            "q_j < 0 implies q_{j+1} < 0.",
            METHOD_SIGN_ENGINE,
            VERIFIED if (q0_neg and ordering) else FAILED,
            {
                "enclosures": str(
                    [(str(e.lo), str(e.hi)) for e in enclosures]
                ),
                "width": str(width),
            },
        )
    )

    # (b) the y-coefficients -q0, q1..q5, 2x-1 of Q form a PN sequence
    q_kinds = [signs.classify(cat.q[k]).kind for k in range(1, 6)]
    np_ok = all(kind is signs.PatternKind.NP for kind in q_kinds)
    top = Poly((-1, 2))  # 2x - 1: NP with top(1/2) = 0, so <= 0 on (0, 1/2]
    top_ok = signs.classify(top).kind is signs.PatternKind.NP and top(half) <= 0
    vectors, patterns = _q_sign_vectors(enclosures, half)
    pn_ok = set(patterns) == {signs.PatternKind.PN.value}
    pn_ok = pn_ok and np_ok and q0_neg and ordering and top_ok
    steps.append(
        ProofStep(
            "strip.pn-sign-vectors",
            "For every x in (0, 1/2] the y-coefficient sequence -q0, q1..q5, "
            "2x-1 of Q has at most one sign change, positive block first: "
            "q1..q5 are NP, so each changes sign only inside its root "
            "enclosure; the sign vector is fixed and PN on each of the six "
            "intervals between enclosures, and PN inside each enclosure for "
            "either sign of the one undetermined q_k.",
            METHOD_SIGN_ENGINE,
            VERIFIED if pn_ok else FAILED,
            {
                "q1..q5_patterns": " ".join(kind.value for kind in q_kinds),
                "sign_vectors": " ".join(vectors),
                "patterns": str(patterns),
            },
        )
    )

    # (c) the antidiagonal substitution and (d) its positivity
    t = _T
    inner = 7137 + (1 - t) * (24365 + 375 * t**2) + 5300 * t**2
    factored = Fraction(4, 625) * (1 - t) * (252 + (5 * t - 1) * inner)
    substituted = cat.Q.substitute_y(Poly((1, -1)))  # y := 1 - x
    steps.append(
        _identity_step(
            "strip.antidiagonal-identity",
            "Q(x, 1-x) equals its displayed factored form coefficient for "
            "coefficient.",
            substituted == factored,
            leading_constant=Fraction(4, 625),
        )
    )

    lo, hi = Fraction(1, 5), Fraction(1, 2)
    inner_min = poly_lower_bound_on_box(inner, lo, hi)
    # (5x - 1) >= 0 and (1 - x) >= 1/2 on [1/5, 1/2], so the bracket >= 252
    edge_lower = Fraction(4, 625) * (1 - hi) * 252
    positivity_ok = inner_min > 0
    steps.append(
        ProofStep(
            "strip.antidiagonal-positive",
            "On [1/5, 1/2] the factored form is positive: the inner factor "
            "has a certified positive minimum, (5x-1) is nonnegative and "
            "(1-x) at least 1/2.",
            METHOD_EXACT_POLY,
            VERIFIED if positivity_ok else FAILED,
            {
                "inner_min_bound": str(inner_min),
                "edge_lower_bound": str(edge_lower),
            },
        )
    )

    # positivity of the cleared denominators on the strip region
    corner_min = bilinear_corner_min(
        1 + x + y - 2 * x * y, Fraction(0), Fraction(1), Fraction(0), Fraction(1)
    )
    steps.append(
        ProofStep(
            "strip.denominator-positivity",
            "1 + x + y - 2xy >= 1 on the unit square (bilinear, so its "
            "minimum is at a corner); the remaining cleared factors have "
            "positive coefficients.",
            METHOD_EXACT_POLY,
            VERIFIED if corner_min >= 1 else FAILED,
            {"corner_min": str(corner_min)},
        )
    )

    # (e) conclusion: F(x, y) >= f(x) > 0, spot-checked
    samples = []
    hp_statuses = []
    for xs in (Fraction(1, 4), Fraction(3, 10), Fraction(9, 20)):
        fx = diag_gap(xs, dps)
        hp_statuses.append(_hp_status(fx, dps))
        for ys in (xs, (xs + (1 - xs)) / 2, 1 - xs):
            gap = big_F(xs, ys, dps) - fx
            samples.append(((str(xs), str(ys)), str(gap)))
            if ys != xs:
                hp_statuses.append(VERIFIED if gap > -error_budget(dps) else FAILED)
    steps.append(
        ProofStep(
            "strip.reduce-to-diagonal",
            "With dF/dy > 0 on the strip, F(x, y) >= F(x, x) = f(x) > 0; "
            "numeric spot checks of F(x, y) - f(x) agree.",
            METHOD_HIGH_PRECISION,
            _combine(hp_statuses),
            {"samples": str(samples), "depends_on": "diagonal.*, strip.*"},
        )
    )
    return steps


# ---------------------------------------------------------------------------
# replay of the trapezoid argument (0 < x < 1/5)
# ---------------------------------------------------------------------------


def replay_trapezoid(dps: int = DEFAULT_DPS) -> list[ProofStep]:
    """Certify that G > 0 on D (no interior extremum of F) and that F >= 0
    on the boundary of D with equality only on the x = 0 edge."""
    steps = []
    cat = load_catalogue()
    p0, p1, p2, p3, p4 = cat.p
    x, y, u, v = _bivariate_pieces()
    t = _T
    work = context(dps + GUARD_DIGITS)

    # --- subregion A: y >= x + 9/25 ------------------------------------

    mixed = dGdx_rational(x, y).partial_y()
    mixed_ok = mixed.equivalent((12 * (y - x)) / (v * v * v))
    corner_min = bilinear_corner_min(
        v, Fraction(0), Fraction(1), Fraction(0), Fraction(1)
    )
    steps.append(
        ProofStep(
            "trapezoid.A.mixed-partial",
            "d2G/dxdy = 12(y-x)/(1+x+y-2xy)^3 exactly, and the cube's base "
            "is at least 1 on the unit square, so dG/dx increases in y "
            "(and dG/dy in x) above the diagonal.",
            METHOD_EXACT_IDENTITY,
            VERIFIED if (mixed_ok and corner_min >= 1) else FAILED,
            {"corner_min": str(corner_min)},
        )
    )

    # dG/dx on the edge y = x + 9/25: the formula edge_slope evaluates
    edge_sub_ok = dGdx_rational(t, t + EDGE_OFFSET).equivalent(-EDGE_SLOPE_QUOTIENT)
    steps.append(
        _identity_step(
            "trapezoid.A.edge-slope-identity",
            "Substituting y = x + 9/25 into the rational part of dG/dx "
            "gives (913+350x-1250x^2)/(2(17+16x-25x^2)^2) exactly.",
            edge_sub_ok,
        )
    )

    # g > 0 on (0, 3/20]
    tail = 307230 * t**5 + 823500 * t**6 + 675000 * t**7
    g_lower_rhs = RationalFn(
        p0 + tail,
        2 * (17 + 15 * t + 15 * t**2)
        * (17 + 16 * t - 25 * t**2) ** 2
        * (11 + 36 * t + 36 * t**2),
    )
    g_lower_ok = (PRINTED_LX[A_LARGE] - EDGE_SLOPE_QUOTIENT).equivalent(g_lower_rhs)
    p0_report = signs.report_positive_below(p0, Fraction(3, 20))
    p0_ok = p0_report.certificate[1] > 0
    guard_poly = Poly((17, 16, -25))
    guard_ok = signs.positive_below(guard_poly, Fraction(1, 5))
    steps.append(
        ProofStep(
            "trapezoid.A.g-lower",
            "g(x) exceeds a quotient whose numerator is p0(x) plus "
            "nonnegative tail terms; p0(3/20) > 0 certifies p0 > 0 on "
            "(0, 3/20], hence g > 0 there.",
            METHOD_SIGN_ENGINE,
            VERIFIED if (g_lower_ok and p0_ok and guard_ok) else FAILED,
            {
                "identity": str(g_lower_ok),
                "p0_at_3_20": str(p0_report.certificate[1]),
                "tail": "307230 x^5 + 823500 x^6 + 675000 x^7 (nonnegative)",
            },
        )
    )

    # g' < 0 on (1/10, 1/5)
    deriv_ok = (-EDGE_SLOPE_QUOTIENT).derivative().equivalent(
        EDGE_SLOPE_DERIV_QUOTIENT
    )
    num = 127679911 * (10 * t - 1) + t * p1
    gprime_rhs = RationalFn(
        -num,
        2 * (17 + 15 * t + 15 * t**2) ** 2
        * (17 + 16 * t - 25 * t**2) ** 3
        * (11 + 36 * t + 36 * t**2) ** 2,
    )
    gprime_ok = (PRINTED_LXX[A_LARGE] + EDGE_SLOPE_DERIV_QUOTIENT).equivalent(
        gprime_rhs
    )
    p1_report = signs.report_positive_below(p1, Fraction(1, 5))
    p1_ok = p1_report.certificate[1] > 0
    steps.append(
        ProofStep(
            "trapezoid.A.g-decreasing",
            "g'(x) is below minus a quotient whose numerator combines "
            "127679911(10x-1) with x p1(x): positive on (1/10, 1/5) since "
            "p1(1/5) > 0 certifies p1 > 0 on (0, 1/5]; hence g decreases "
            "there and g(x) > g(1/5).",
            METHOD_SIGN_ENGINE,
            VERIFIED
            if (deriv_ok and gprime_ok and p1_ok and guard_ok)
            else FAILED,
            {
                "derivative_identity": str(deriv_ok),
                "identity": str(gprime_ok),
                "p1_at_1_5": str(p1_report.certificate[1]),
            },
        )
    )

    # g(1/5) > 0, printed digits
    g_fifth = edge_slope(Fraction(1, 5), dps)
    g_prefix_ok = agrees_with_printed(g_fifth, "0.001914")
    steps.append(
        ProofStep(
            "trapezoid.A.g-at-right-edge",
            "g(1/5) = 0.001914... > 0; with g decreasing on (1/10, 1/5) and "
            "positive on (0, 3/20], the intervals overlap (1/10 < 3/20) and "
            "cover (0, 1/5), so dG/dx > 0 on the whole subregion.",
            METHOD_HIGH_PRECISION,
            _combine([_hp_status(g_fifth, dps), VERIFIED if g_prefix_ok else FAILED]),
            {
                "g(1/5)": str(g_fifth),
                "printed": "0.001914",
                "interval_cover": "(0,3/20] union (1/10,1/5) covers (0,1/5)",
            },
        )
    )

    # concavity of G(0, y)
    rational_part = RationalFn(2 * t, 1 + t)
    second = rational_part.derivative().derivative()
    concav_pre_ok = second.equivalent(RationalFn(Poly((-4,)), (1 + t) ** 3))
    concav_rhs = RationalFn(
        -p2,
        2 * (1 + t) ** 3
        * (11 + 15 * t + 15 * t**2) ** 2
        * (5 + 18 * t + 18 * t**2) ** 2,
    )
    concav_ok = (RationalFn(Poly((-4,)), (1 + t) ** 3) - PRINTED_LXX[A_SMALL]).equivalent(
        concav_rhs
    )
    p2_report = signs.report_positive_below(p2, Fraction(1))
    p2_ok = p2_report.certificate[1] > 0
    steps.append(
        ProofStep(
            "trapezoid.A.left-edge-concavity",
            "d2/dy2 G(0, y) = -4/(1+y)^3 - psi''(1+y) is bounded above by "
            "-p2(y)/[positive], and p2(1) > 0 certifies p2 > 0 on (0, 1]: "
            "G(0, .) is strictly concave on [0, 1].",
            METHOD_SIGN_ENGINE,
            VERIFIED if (concav_pre_ok and concav_ok and p2_ok) else FAILED,
            {
                "second_derivative_identity": str(concav_pre_ok),
                "identity": str(concav_ok),
                "p2_at_1": str(p2_report.certificate[1]),
            },
        )
    )

    # endpoints of the left edge
    g00 = big_G(0, 0, dps)
    g01 = big_G(0, 1, dps)
    tol = work.mpf(10) ** (-25)
    endpoints_ok = abs(to_mpf(work, g00)) <= tol and abs(to_mpf(work, g01)) <= tol
    steps.append(
        ProofStep(
            "trapezoid.A.left-edge-endpoints",
            "G(0,0) = 0 and G(0,1) = psi(1) - psi(2) + 1 = 0, so concavity "
            "makes G(0, y) nonnegative on [0, 1].",
            METHOD_HIGH_PRECISION,
            VERIFIED if endpoints_ok else FAILED,
            {"G(0,0)": str(g00), "G(0,1)": str(g01)},
        )
    )

    # conclusion for subregion A
    a_samples = []
    a_statuses = []
    for xs in (Fraction(1, 100), Fraction(1, 10), Fraction(19, 100)):
        base = xs + Fraction(9, 25)
        for k in range(4):
            ys = base + (Fraction(99, 100) - base) * Fraction(k, 3)
            if ys >= 1:
                continue
            val = big_G(xs, ys, dps)
            a_samples.append(((str(xs), str(ys)), str(val)))
            a_statuses.append(_hp_status(val, dps))
    steps.append(
        ProofStep(
            "trapezoid.A.conclusion",
            "dG/dx > 0 on 0 < x < 1/5 and G(0, y) >= 0 give G > 0 for "
            "y >= x + 9/25; sampled values agree.",
            METHOD_HIGH_PRECISION,
            _combine(a_statuses),
            {"samples": str(a_samples)},
        )
    )

    # --- subregion B: 9/25 < y < x + 9/25 --------------------------------

    # dG/dy(x, y) = -dG/dx(y, x) by antisymmetry; on the edge x = y - 9/25
    b_edge_sub_ok = dGdx_rational(t, t - EDGE_OFFSET).equivalent(-B_EDGE_QUOTIENT)
    bracket = B_EDGE_BRACKET
    b_slope_rhs = RationalFn(
        5275352 + (25 * t - 9) * bracket,
        6250 * (11 + 15 * t + 15 * t**2)
        * (5 + 18 * t + 18 * t**2)
        * (8 + 34 * t - 25 * t**2) ** 2,
    )
    b_slope_ok = (B_EDGE_QUOTIENT - PRINTED_LX[A_SMALL]).equivalent(b_slope_rhs)
    bracket_pattern = signs.classify(bracket)
    bracket_pos = signs.positive_below(bracket, Fraction(1))
    b_guard_ok = signs.positive_below(Poly((8, 34, -25)), Fraction(1))
    steps.append(
        ProofStep(
            "trapezoid.B.slope-positive",
            "On the edge x = y - 9/25 the rational part of dG/dy matches "
            "(13+2150y-1250y^2)/(2(8+34y-25y^2)^2); subtracting the upper "
            "psi' bound leaves [5275352 + (25y-9) * bracket]/[positive] "
            "with the bracket positive on (0, 1], so dG/dy > 0 for "
            "9/25 < y < 1 (using the mixed-partial monotonicity).",
            METHOD_SIGN_ENGINE,
            VERIFIED
            if (b_edge_sub_ok and b_slope_ok and bracket_pos and b_guard_ok)
            else FAILED,
            {
                "substitution_identity": str(b_edge_sub_ok),
                "identity": str(b_slope_ok),
                "bracket_pattern": bracket_pattern.kind.value,
                "bracket_at_1": str(bracket(Fraction(1))),
                "depends_on": "trapezoid.A.mixed-partial",
            },
        )
    )

    b_concav_pre = RationalFn(-(50 * t - 18), 34 + 7 * t).derivative().derivative()
    b_concav_pre_ok = b_concav_pre.equivalent(B_CONCAVITY_QUOTIENT)
    b_concav_rhs = RationalFn(
        -(p3 + 200037600 * t**9),
        2 * (34 + 7 * t) ** 3
        * (17 + 15 * t + 15 * t**2) ** 2
        * (11 + 36 * t + 36 * t**2) ** 2,
    )
    b_concav_ok = (PRINTED_LXX[A_LARGE] + B_CONCAVITY_QUOTIENT).equivalent(
        b_concav_rhs
    )
    p3_report = signs.report_positive_below(p3, Fraction(1))
    p3_ok = p3_report.certificate[1] > 0
    steps.append(
        ProofStep(
            "trapezoid.B.concavity",
            "d2/dx2 G(x, 9/25) = psi''(x+1) + 25564/(34+7x)^3 is bounded by "
            "-[p3(x) + 200037600 x^9]/[positive]; p3(1) > 0 certifies p3 > 0 "
            "on (0, 1], so G(., 9/25) is strictly concave on (0, 1/5).",
            METHOD_SIGN_ENGINE,
            VERIFIED if (b_concav_pre_ok and b_concav_ok and p3_ok) else FAILED,
            {
                "second_derivative_identity": str(b_concav_pre_ok),
                "identity": str(b_concav_ok),
                "p3_at_1": str(p3_report.certificate[1]),
            },
        )
    )

    g_left = big_G(0, Fraction(9, 25), dps)
    g_right = big_G(Fraction(1, 5), Fraction(9, 25), dps)
    left_ok = agrees_with_printed(g_left, "0.0554")
    right_ok = agrees_with_printed(g_right, "0.04015")
    steps.append(
        ProofStep(
            "trapezoid.B.corner-values",
            "G(0, 9/25) = 0.0554... and G(1/5, 9/25) = 0.04015... are both "
            "positive; concavity pins G(x, 9/25) above their minimum.",
            METHOD_HIGH_PRECISION,
            _combine(
                [
                    _hp_status(g_left, dps),
                    _hp_status(g_right, dps),
                    VERIFIED if (left_ok and right_ok) else FAILED,
                ]
            ),
            {
                "G(0,9/25)": str(g_left),
                "G(1/5,9/25)": str(g_right),
                "printed": "0.0554, 0.04015",
            },
        )
    )

    b_samples = []
    b_statuses = []
    for xs in (Fraction(1, 50), Fraction(1, 10), Fraction(9, 50)):
        for ys in (Fraction(37, 100), Fraction(2, 5), xs + Fraction(9, 25) - Fraction(1, 100)):
            if Fraction(9, 25) < ys < xs + Fraction(9, 25):
                val = big_G(xs, ys, dps)
                b_samples.append(((str(xs), str(ys)), str(val)))
                b_statuses.append(_hp_status(val, dps))
    steps.append(
        ProofStep(
            "trapezoid.B.conclusion",
            "G increases in y past 9/25 and G(., 9/25) is concave with "
            "positive corner values, so G > 0 for 9/25 < y < x + 9/25.",
            METHOD_HIGH_PRECISION,
            _combine(b_statuses) if b_statuses else VERIFIED,
            {"samples": str(b_samples)},
        )
    )

    # --- subregion C: x < y <= 9/25 --------------------------------------

    c_sub_ok = dGdx_rational(t, 0).equivalent(RationalFn(Poly((-2,)), (1 + t) ** 2))
    c_rhs = RationalFn(
        p4,
        2 * (1 + t) ** 2 * (11 + 15 * t + 15 * t**2) * (5 + 18 * t + 18 * t**2),
    )
    c_ok = (RationalFn(Poly((2,)), (1 + t) ** 2) - PRINTED_LX[A_SMALL]).equivalent(
        c_rhs
    )
    p4_report = signs.report_positive_below(p4, Fraction(9, 25))
    p4_ok = p4_report.certificate[1] > 0
    steps.append(
        ProofStep(
            "trapezoid.C.slope-positive",
            "dG/dy at x = 0 equals 2/(1+y)^2 - psi'(y+1), bounded below by "
            "p4(y)/[positive]; p4(9/25) > 0 certifies p4 > 0 on (0, 9/25], "
            "so dG/dy > 0 there and G(x, y) > G(x, x) = 0.",
            METHOD_SIGN_ENGINE,
            VERIFIED if (c_sub_ok and c_ok and p4_ok) else FAILED,
            {
                "substitution_identity": str(c_sub_ok),
                "identity": str(c_ok),
                "p4_at_9_25": str(p4_report.certificate[1]),
                "depends_on": "trapezoid.A.mixed-partial",
            },
        )
    )

    c_samples = []
    c_statuses = []
    for xs, ys in (
        (Fraction(1, 20), Fraction(1, 5)),
        (Fraction(1, 10), Fraction(3, 10)),
        (Fraction(3, 20), Fraction(9, 25)),
        (Fraction(1, 100), Fraction(1, 10)),
    ):
        val = big_G(xs, ys, dps)
        c_samples.append(((str(xs), str(ys)), str(val)))
        c_statuses.append(_hp_status(val, dps))
    steps.append(
        ProofStep(
            "trapezoid.C.conclusion",
            "G > 0 for x < y <= 9/25; sampled values agree.",
            METHOD_HIGH_PRECISION,
            _combine(c_statuses),
            {"samples": str(c_samples)},
        )
    )

    # --- boundary of D -----------------------------------------------------

    # (i) antidiagonal x + y = 1: our bound coincides with the classical
    # polynomial bound there, and B exceeds that bound strictly.
    top_identity = new_bound(t, 1 - t).equivalent(ivady_lower_bound(t, 1 - t))
    top_samples = []
    top_statuses = []
    for xs in (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(19, 100)):
        rep = remark_sandwich(xs, 1 - xs, dps)
        fval = big_F(xs, 1 - xs, dps)
        top_samples.append((str(xs), str(fval)))
        top_statuses.append(_hp_status(fval, dps))
        if not rep.ok:
            top_statuses.append(FAILED)
    steps.append(
        ProofStep(
            "trapezoid.boundary.antidiagonal",
            "On x + y = 1 the two lower bounds coincide exactly and "
            "B stays strictly above them, so F(x, 1-x) > 0.",
            METHOD_HIGH_PRECISION,
            _combine([VERIFIED if top_identity else FAILED] + top_statuses),
            {"bounds_coincide_identity": str(top_identity), "F_samples": str(top_samples)},
        )
    )

    # (ii) left edge x = 0
    left_vals = [big_F(0, ys, dps) for ys in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1))]
    left_edge_ok = all(abs(to_mpf(work, vv)) <= tol for vv in left_vals)
    steps.append(
        ProofStep(
            "trapezoid.boundary.left-edge",
            "F(0, y) vanishes identically (the log arguments collapse to 1).",
            METHOD_HIGH_PRECISION,
            VERIFIED if left_edge_ok else FAILED,
            {"values": str([str(vv) for vv in left_vals])},
        )
    )

    # (iii) fold diagonal y = x
    diag_statuses = []
    diag_samples = []
    for xs in (Fraction(1, 100), Fraction(1, 10), Fraction(19, 100)):
        fv = big_F(xs, xs, dps)
        dv = diag_gap(xs, dps)
        diag_samples.append((str(xs), str(fv)))
        diag_statuses.append(_hp_status(fv, dps))
        if not abs(to_mpf(work, fv) - to_mpf(work, dv)) <= tol:
            diag_statuses.append(FAILED)
    steps.append(
        ProofStep(
            "trapezoid.boundary.diagonal",
            "F(x, x) = f(x) > 0 on the fold diagonal.",
            METHOD_HIGH_PRECISION,
            _combine(diag_statuses),
            {"samples": str(diag_samples), "depends_on": "diagonal.*"},
        )
    )

    # (iv) right edge x = 1/5
    right_statuses = []
    right_samples = []
    for ys in (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)):
        fv = big_F(Fraction(1, 5), ys, dps)
        right_samples.append((str(ys), str(fv)))
        right_statuses.append(_hp_status(fv, dps))
    steps.append(
        ProofStep(
            "trapezoid.boundary.right-edge",
            "F(1/5, y) > 0 for y in [1/5, 4/5] (covered by the strip "
            "argument).",
            METHOD_HIGH_PRECISION,
            _combine(right_statuses),
            {"samples": str(right_samples), "depends_on": "strip.*"},
        )
    )

    steps.append(
        ProofStep(
            "trapezoid.no-interior-extremum",
            "G > 0 throughout D rules out interior critical points of F, "
            "so F attains its minimum on the boundary, where it is 0 only "
            "on the x = 0 edge: F(x, y) >= 0 with equality only at x = 0.",
            METHOD_HIGH_PRECISION,
            _combine(
                [s.status for s in steps if s.id.startswith("trapezoid.")]
            ),
            {"depends_on": "trapezoid.*"},
        )
    )
    return steps


# ---------------------------------------------------------------------------
# aggregation and the global sweep
# ---------------------------------------------------------------------------


@dataclass
class ProofReport:
    dps: int
    steps: list[ProofStep]

    @property
    def counts(self) -> dict:
        out = {VERIFIED: 0, FAILED: 0, INCONCLUSIVE: 0}
        for s in self.steps:
            out[s.status] = out.get(s.status, 0) + 1
        return out

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
                "verified": self.counts[VERIFIED],
                "failed": self.counts[FAILED],
                "inconclusive": self.counts[INCONCLUSIVE],
                "all_verified": self.all_verified,
            },
        }


def replay_all(
    dps: int = DEFAULT_DPS, width: Fraction = Fraction(1, 10**6)
) -> ProofReport:
    """Run every step of the proof replay and collect the report."""
    steps = replay_diagonal(dps) + replay_strip(dps, width) + replay_trapezoid(dps)
    return ProofReport(dps=dps, steps=steps)


@dataclass
class SweepResult:
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
    hp_min_margin: str               # argmin margin recomputed at full precision
    hp_agrees: bool


CSV_HEADER = "x,y,beta,new_bound,ivady_lower,alzer_lower,margin_new,margin_ivady"
CSV_HEADER_LINE = CSV_HEADER + "\r\n"   # CRLF ends every line, as in the rows


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
    formulas.  The margin on the edge y = 1 is x/(x+2), so the grid minimum
    is 1/(2n+1) at (1/n, 1), far above double rounding at desk grid sizes;
    the worst cell is then re-evaluated at full working precision and the
    two values are required to agree.  Both classical bounds equal B
    exactly on the edges x = 1 and y = 1 (`classical_edges_exact`), where a
    double-precision margin is rounding noise of either sign, so their
    minima are taken over the interior cells i, j < n.

    `row_sink`, when given, is called once per grid line x = i/n with the
    CSV text of its n cells (columns as in `CSV_HEADER`, shortest
    round-trip ``repr`` of each double, CRLF line ends); a file's
    ``write`` fits.  Without it no cell is formatted.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    lgamma = math.lgamma
    al = 2 * math.pi**2 / 3 - 4
    n = grid_n
    best = (math.inf, (0.0, 0.0))
    best_iv = (math.inf, (0.0, 0.0))
    best_az = (math.inf, (0.0, 0.0))
    y_axis = [(yv, lgamma(yv), repr(yv)) for yv in (j / n for j in range(1, n + 1))]
    for i in range(1, n + 1):
        xv = i / n
        lg_x = lgamma(xv)
        head = repr(xv) + ","
        cells = []
        for yv, lg_y, r_y in y_axis:
            b = math.exp(lg_x + lg_y - lgamma(xv + yv))
            new = new_bound(xv, yv)
            iv = ivady_lower_bound(xv, yv)
            az = alzer_lower_bound(xv, yv, al)
            m_new = b - new
            m_iv = b - iv
            if m_new < best[0]:
                best = (m_new, (xv, yv))
            if xv < 1 and yv < 1:
                if m_iv < best_iv[0]:
                    best_iv = (m_iv, (xv, yv))
                m_az = b - az
                if m_az < best_az[0]:
                    best_az = (m_az, (xv, yv))
            if row_sink is not None:
                cells.append(
                    f"{head}{r_y},{b!r},{new!r},{iv!r},{az!r},{m_new!r},{m_iv!r}\r\n"
                )
        if row_sink is not None:
            row_sink("".join(cells))

    xa, ya = best[1]
    hp = theorem_margin(
        Fraction(round(xa * n), n), Fraction(round(ya * n), n), dps
    )
    hp_agrees = abs(float(hp) - best[0]) <= 1e-9 * max(1.0, abs(best[0]))
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
        hp_min_margin=str(hp),
        hp_agrees=hp_agrees,
    )
