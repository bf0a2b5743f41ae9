"""Proof-engine: margins, symmetry, derivative validation, full replay."""

import functools
import hashlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import mpmath
import pytest

from betabound import catalogue, constants, proof, psibounds, specials
from betabound.polys import BiPoly, Poly, RationalFn
from betabound.proof import (
    G_rational,
    alzer_lower_bound,
    big_F,
    big_G,
    dFdx_rational,
    dGdx_rational,
    ivady_lower_bound,
    ivady_upper_bound,
    log_correction,
    new_bound,
    replay_all,
    replay_diagonal,
    replay_strip,
    replay_trapezoid,
    sweep_theorem,
    theorem_margin,
)
from betabound.catalogue import load_catalogue
from betabound.constants import agrees_with_printed
from betabound.specials import beta, context, psi, psi1, stirling_enclosure, to_mpf

HP = context(60)
mpmath.mp.dps = 60
CAT = load_catalogue()


def dF_dx(x, y):
    """psi(x+1) - psi(x+y+1) + dFdx_rational(x, y) at 60 digits."""
    return psi(x + 1, HP.dps) - psi(x + y + 1, HP.dps) + dFdx_rational(x, y)


def dG_dx(x, y):
    """psi'(x+1) + dGdx_rational(x, y) at 60 digits."""
    return psi1(x + 1, HP.dps) + dGdx_rational(x, y)


def exact(value) -> F:
    """A finite mpf as the Fraction (-1)^sign man 2^exp it is."""
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * man * F(2) ** exp


def holds(enclosure, value, slack="0") -> bool:
    """lo - slack <= value <= hi + slack, for an mpf value, compared exactly."""
    pad, (lo, hi) = F(slack), enclosure.ends
    return lo - pad <= exact(value) <= hi + pad


def edge_slope_enclosure(dps=50):
    """g(1/5) = psi'(6/5) - EDGE_SLOPE_QUOTIENT(1/5), as A.g-at-right-edge reads it."""
    return stirling_enclosure(F(6, 5), 1, dps) - proof.EDGE_SLOPE_QUOTIENT(F(1, 5))


def enclosed_values_by_mpmath() -> dict:
    """The seven values of the three enclosure steps, by mpmath at its current
    precision, keyed by (step id, evidence key)."""
    mp = lambda v: mpmath.mpf(v.numerator) / v.denominator

    def big_F_mp(x, y):
        lg, s, p = mpmath.loggamma, mp(x + y), mp(x * y)
        return lg(mp(x) + 1) + lg(mp(y) + 1) - lg(s + 1) - mpmath.log(1 - 2 * p / (s + 1))

    values = {}
    for x in (F(1, 100), F(1, 20), F(1, 10), F(19, 100)):
        values["trapezoid.boundary.antidiagonal", f"F({x},{1 - x})"] = big_F_mp(x, 1 - x)
    y = F(9, 25)
    for x in (F(0), F(1, 5)):
        values["trapezoid.B.corner-values", f"G({x},{y})"] = (
            mpmath.digamma(mp(x + 1)) - mpmath.digamma(mp(y + 1)) + mp(G_rational(x, y)))
    values["trapezoid.A.g-at-right-edge", "g(1/5)"] = (
        mpmath.psi(1, mp(F(6, 5))) + mp(dGdx_rational(F(1, 5), F(14, 25))))
    return values


class TestTheoremMargin:
    def test_corner_margin_is_third(self):
        assert abs(theorem_margin(1, 1) - F(1, 3)) < HP.mpf("1e-45")

    def test_center_margin_is_pi_minus_three(self):
        margin = theorem_margin(F(1, 2), F(1, 2))
        assert abs(margin - (mpmath.mp.pi - 3)) < HP.mpf("1e-45")

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="domain error"):
            theorem_margin(0, F(1, 2))
        with pytest.raises(ValueError, match="domain error"):
            theorem_margin(F(1, 2), F(3, 2))

    def test_ints_and_floats_enter_exactly(self):
        # the same bits as their exact Fractions, which enter through the
        # working context's mpfs and lose nothing there
        cases = [(fn, x, y) for fn in (theorem_margin, big_F, big_G)
                 for x, y in ((0.3721, 0.8123), (1, 0.25), (1e-5, 1))] + [(big_G, 0, 0.5)]
        for fn, x, y in cases:
            assert fn(x, y, 30) == fn(F(x), F(y), 30) == fn(HP.mpf(x), HP.mpf(y), 30)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_are_domain_errors(self, bad):
        for fn in (theorem_margin, big_F, big_G):
            with pytest.raises(ValueError, match="domain error: arguments must be finite"):
                fn(bad, 0.5)

    def test_log_margin_vanishes_toward_left_edge(self):
        # F -> 0 as x -> 0 (equality holds only there)
        for y in ("0.3", "0.7", "1"):
            assert big_F("1e-6", y) < HP.mpf("1e-4")
            assert big_F("1e-6", y) > 0

    def test_margin_positive_on_coarse_grid(self):
        for i in range(1, 11):
            for j in range(i, 11):
                assert theorem_margin(F(i, 10), F(j, 10)) > 0

    @pytest.mark.parametrize(
        "x, y", [("1e-30", "1e-30"), ("1e-20", "1e-20"), ("1e-30", "0.5")]
    )
    def test_cancelled_guard_digits_are_inconclusive(self, x, y):
        # B / margin is about 3e60, 3e40 and 2e30 here, and F is about 3.6e-61,
        # 3.6e-41 and 5.3e-32 against log terms carrying an absolute error: each
        # subtraction leaves fewer than 30 of the 45 working digits
        for margin in (theorem_margin, big_F):
            with pytest.raises(ValueError, match="inconclusive"):
                margin(x, y, 30)

    def test_margin_near_the_axes_keeps_its_digits(self):
        with mpmath.workdps(150):
            x = mpmath.mpf("1e-6")
            exact = mpmath.beta(x, x) - new_bound(x, x)
        margin = theorem_margin("1e-6", "1e-6", 30)
        assert abs(to_mpf(HP, margin) - exact) <= abs(exact) * HP.mpf("1e-30")


class TestCoreFunctionIdentities:
    def test_F_symmetric(self):
        rng = random.Random(5)
        for _ in range(40):
            x = HP.mpf(rng.uniform(0.01, 1.0))
            y = HP.mpf(rng.uniform(0.01, 1.0))
            assert abs(big_F(x, y) - big_F(y, x)) < HP.mpf("1e-25")

    def test_G_keeps_its_digits_near_the_axes(self):
        # psi(x+1) - psi(y+1) cancels 20 digits here; G's enclosure at the
        # working bits still leaves all 30 requested digits right
        value = big_G("1e-20", "2e-20", 30)
        with mpmath.workdps(120):
            x, y = mpmath.mpf("1e-20"), mpmath.mpf("2e-20")
            reference = (mpmath.digamma(x + 1) - mpmath.digamma(y + 1)
                         - 2 * (x - y) / (1 + x + y - 2 * x * y))
            error = abs(mpmath.mpf(value._mpf_) - reference)
            assert error <= abs(reference) * mpmath.mpf(10) ** -30

    def test_G_antisymmetric(self):
        rng = random.Random(6)
        for _ in range(40):
            x = HP.mpf(rng.uniform(0.01, 1.0))
            y = HP.mpf(rng.uniform(0.01, 1.0))
            assert abs(big_G(x, y) + big_G(y, x)) < HP.mpf("1e-25")
        assert big_G(F(3, 10), F(3, 10)) == 0

    def test_F_vanishes_on_left_edge(self):
        # F(0, y) = 0 exactly (the step trapezoid.boundary.left-edge), so a
        # value is all rounding noise
        for y in (F(1, 4), F(1, 2), F(9, 10), F(1)):
            with pytest.raises(ValueError, match="inconclusive"):
                big_F(0, y)

    def test_diagonal_restriction_matches_gap(self):
        # big_F on the diagonal lies in the replay's enclosure of f, up to
        # big_F's own rounding
        for x in (F(1, 10), F(1, 3), F(3, 5)):
            assert holds(proof._enclosed_F(x, x, 50), big_F(x, x), "1e-45")

    def test_diag_gap_at_half_is_log_pi_thirds(self):
        assert holds(proof._enclosed_F(F(1, 2), F(1, 2), 50), mpmath.mp.log(mpmath.mp.pi / 3))

    @pytest.mark.parametrize("dps", [30, 50])
    def test_enclosed_margin_holds_mpmath_values(self, dps):
        # the sweep's re-check at 100 seeded grid cells (i/n, j/n), and at the
        # worst cell (1/n, 1) of the CLI's grids
        rng = random.Random(dps)
        cells = [(F(1, n), F(1)) for n in (2, 20, 150, 1000)]
        for _ in range(100):
            n = rng.choice((2, 7, 20, 150, 1000))
            cells.append((F(rng.randint(1, n), n), F(rng.randint(1, n), n)))
        mp = lambda v: mpmath.mpf(v.numerator) / v.denominator
        with mpmath.workdps(dps + 40):
            for x, y in cells:
                reference = mpmath.beta(mp(x), mp(y)) - mp(new_bound(x, y))
                assert holds(proof._enclosed_margin(x, y, dps), reference), (x, y)

    @pytest.mark.parametrize("dps", [30, 115])
    def test_enclosures_are_the_sums_of_their_terms(self, dps):
        # F and log B are the exact sums of their terms' enclosures; G and
        # B - bound add a rational term, rounded outward by under one unit
        lg = lambda t: stirling_enclosure(t, -1, dps)
        psi_ = lambda t: stirling_enclosure(t, 0, dps)
        ln = lambda arg: specials.ln_enclosure(arg, dps)

        def exact_sum(plus, minus, r=0):
            lo = sum(v.ends[0] for v in plus) - sum(v.ends[1] for v in minus)
            hi = sum(v.ends[1] for v in plus) - sum(v.ends[0] for v in minus)
            return lo + r, hi + r

        def outward(enclosure, lo, hi):
            unit, (a, b) = F(1, 2**enclosure.scale), enclosure.ends
            return lo - unit < a <= lo and hi <= b < hi + unit

        points = ((F(1, 3), F(2, 7)), (F(0.3721), F(0.8123)), (F(1), F(1)), (F(1, 10**9), F(1, 2)))
        for x, y in points:
            F_ = exact_sum([lg(x + 1), lg(y + 1)], [lg(x + y + 1), log_correction(x, y, ln)])
            assert proof._enclosed_F(x, y, dps).ends == F_
            G = exact_sum([psi_(x + 1)], [psi_(y + 1)], G_rational(x, y))
            assert outward(proof._enclosed_G(x, y, dps), *G)
            log_beta = lg(x) + lg(y) - lg(x + y)
            assert log_beta.ends == exact_sum([lg(x), lg(y)], [lg(x + y)])
            beta = specials.exp_enclosure(log_beta, dps)
            margin = exact_sum([beta], [], -new_bound(x, y))
            assert outward(proof._enclosed_margin(x, y, dps), *margin)

    def test_diag_gap_domain_guard(self):
        # past x = (sqrt(3)+1)/2, 1 + 2x - 2x^2 < 0 and F's log argument with it
        with pytest.raises(ValueError, match="ln requires a positive argument"):
            proof._enclosed_F(F(3, 2), F(3, 2), 30)

    def test_dFdx_matches_finite_differences(self):
        # displayed partial against centred differences of F itself,
        # 100 random interior points, h = 1e-8 at 50-digit working precision
        rng = random.Random(42)
        h = HP.mpf("1e-8")
        for _ in range(100):
            x = HP.mpf(rng.uniform(0.05, 0.95))
            y = HP.mpf(rng.uniform(0.05, 0.95))
            fd = (big_F(x + h, y) - big_F(x - h, y)) / (2 * h)
            assert abs(fd - dF_dx(x, y)) < HP.mpf("1e-14")

    def test_dFdy_matches_finite_differences(self):
        h = HP.mpf("1e-8")
        x, y = HP.mpf("0.22"), HP.mpf("0.61")
        fd = (big_F(x, y + h) - big_F(x, y - h)) / (2 * h)
        # F is symmetric, so dF/dy at (x, y) is dF/dx at (y, x)
        assert abs(fd - dF_dx(y, x)) < HP.mpf("1e-14")

    def test_G_is_difference_of_partials(self):
        x, y = HP.mpf("0.11"), HP.mpf("0.73")
        assert abs(big_G(x, y) - (dF_dx(x, y) - dF_dx(y, x))) < HP.mpf("1e-25")

    def test_dGdx_matches_finite_differences(self):
        h = HP.mpf("1e-8")
        x, y = HP.mpf("0.13"), HP.mpf("0.57")
        fd = (big_G(x + h, y) - big_G(x - h, y)) / (2 * h)
        assert abs(fd - dG_dx(x, y)) < HP.mpf("1e-14")

    def test_diag_slope_half_is_half_derivative(self):
        # f'(x)/2 = dF/dx(x, x) by the symmetry of F
        h = HP.mpf("1e-8")
        x = HP.mpf("0.4")
        fd = (big_F(x + h, x + h) - big_F(x - h, x - h)) / (2 * h)
        assert abs(fd - 2 * dF_dx(x, x)) < HP.mpf("1e-13")

    def test_edge_slope_printed_value(self):
        assert all(agrees_with_printed(end, "0.001914") for end in edge_slope_enclosure().ends)


ALZER_ALPHA = F(5, 2)
SHARED_FORMULAS = [
    new_bound,
    ivady_lower_bound,
    ivady_upper_bound,
    lambda x, y: alzer_lower_bound(x, y, ALZER_ALPHA),
    lambda x, y: log_correction(x, y, lambda arg: arg),  # the log's argument
    dFdx_rational,
    G_rational,
    dGdx_rational,
]
FORMULA_POINTS = [
    (F(1, 3), F(5, 7)), (F(1, 10), F(9, 10)), (F(2, 5), F(1, 8)), (F(1), F(1)),
]


class TestSharedFormulas:
    @pytest.mark.parametrize("formula", SHARED_FORMULAS)
    def test_same_value_on_every_number_type(self, formula):
        # one formula: the RationalFn it builds from BiPoly symbols, floats and
        # mpfs all reproduce its exact value at rational points
        rf = formula(BiPoly.x(), BiPoly.y())
        for x, y in FORMULA_POINTS:
            exact = formula(x, y)
            assert isinstance(exact, F)
            assert rf(x, y) == exact
            as_float = formula(float(x), float(y))
            assert abs(as_float - float(exact)) <= 1e-15 * abs(float(exact))
            as_mpf = formula(to_mpf(HP, x), to_mpf(HP, y))
            assert abs(as_mpf - to_mpf(HP, exact)) < HP.mpf("1e-55")

    def test_log_correction_takes_the_log_of_its_type(self):
        x, y = F(1, 3), F(5, 7)
        arg = 1 - 2 * x * y / (x + y + 1)
        as_float = log_correction(float(x), float(y), math.log)
        assert as_float == pytest.approx(math.log(arg), rel=1e-15)
        as_mpf = log_correction(to_mpf(HP, x), to_mpf(HP, y), HP.ln)
        assert abs(as_mpf - HP.ln(to_mpf(HP, arg))) < HP.mpf("1e-55")

    def test_wrappers_evaluate_the_shared_formulas(self):
        x, y = F(2, 5), F(3, 4)
        assert new_bound(x, y) == F(713, 258)
        # the replay's g reads EDGE_SLOPE_QUOTIENT, which A.edge-slope-identity
        # ties to dGdx_rational
        g = dG_dx(to_mpf(HP, F(1, 5)), to_mpf(HP, F(14, 25)))
        assert holds(edge_slope_enclosure(), g, "1e-55")
        x = F(3, 10)
        assert holds(proof._enclosed_F(x, x, 50), big_F(x, x), "1e-45")


class TestRemarkOrdering:
    # the remark of the paper: Ivady's bound is the stronger one for x + y >= 1,
    # ours for x + y <= 1, since new - Ivady = -(x + y - 1)/(x + y + 1)
    def test_equality_at_corner(self):
        assert ivady_lower_bound(F(1), F(1)) == 1
        assert abs(beta(1, 1) - 1) < HP.mpf("1e-45")

    def test_strict_above_line(self):
        x = y = F(3, 4)
        assert ivady_lower_bound(x, y) - new_bound(x, y) == F(1, 5)
        assert beta(x, y) - ivady_lower_bound(x, y) > HP.mpf("0.01")

    def test_reversed_below_line(self):
        x = y = F(1, 4)
        assert new_bound(x, y) - ivady_lower_bound(x, y) == F(1, 3)

    def test_bounds_coincide_on_the_line(self):
        x, y = BiPoly.x(), BiPoly.y()
        gap = new_bound(x, y) - ivady_lower_bound(x, y)
        assert gap.equivalent(-(x + y - 1) / (x + y + 1))
        t = Poly.x()
        assert new_bound(t, 1 - t).equivalent(ivady_lower_bound(t, 1 - t))


class TestBounds:
    def test_ivady_equalities_at_corner(self):
        assert ivady_upper_bound(F(1), F(1)) == 1
        assert ivady_lower_bound(F(1), F(1)) == 1

    def test_new_bound_at_corner(self):
        assert new_bound(F(1), F(1)) == F(2, 3)

    def test_q1_positive_past_its_root(self):
        assert CAT.q[1](F(1, 4)) > 0


PINNED_STEPS = [
    ("diagonal.slope-rational-identity", "exact-identity",
     ("identity", "log_argument(0,0)", "dFdx_rational(0,0)", "f(0)=f'(0)=0", "imports")),
    ("diagonal.slope-lower-identity", "exact-identity",
     ("identity", "numerator_constant", "numerator_leading")),
    ("diagonal.slope-numerator-positive", "exact-polynomial",
     ("degree", "numerator_coefficients_positive", "yang_factors_positive")),
    ("strip.gradient-identities", "exact-identity",
     ("log_argument_symmetric", "dFdy_identity", "G_identity")),
    ("strip.dFdy-reduction-identity", "exact-identity", ("identity",)),
    ("strip.q-root-ordering", "sign-engine",
     ("enclosures_increasing", "q0_negative", "enclosures", "width")),
    ("strip.pn-sign-vectors", "sign-engine",
     ("enclosures_increasing", "q0_negative", "q1..q5_NP", "top_NP_and_nonpositive",
      "all_PN", "q1..q5_patterns", "sign_vectors", "patterns")),
    ("strip.antidiagonal-identity", "exact-identity", ("identity", "leading_constant")),
    ("strip.antidiagonal-positive", "exact-polynomial",
     ("inner_min_positive", "5x-1>=0", "1-x>=1/2", "inner_min_bound",
      "edge_lower_bound")),
    ("strip.denominator-positivity", "exact-polynomial",
     ("corner_min", "corner_min_at_least_1", "cleared_factors_positive")),
    ("strip.reduce-to-diagonal", "derived", ()),
    ("trapezoid.A.mixed-partial", "exact-identity",
     ("dGdx_identity", "identity", "corner_min", "corner_min_at_least_1")),
    ("trapezoid.A.edge-slope-identity", "exact-identity", ("identity",)),
    ("trapezoid.A.g-lower", "sign-engine",
     ("identity", "p0_at_3_20", "p0_certificate", "edge_guard_positive",
      "yang_factors_positive", "tail")),
    ("trapezoid.A.g-decreasing", "sign-engine",
     ("derivative_identity", "identity", "p1_at_1_5", "p1_certificate",
      "edge_guard_positive", "yang_factors_positive", "10x-1>0")),
    ("trapezoid.A.g-at-right-edge", "exact-enclosure",
     ("g(1/5)", "g(1/5) > 0", "printed", "agrees_with_printed", "interval_cover")),
    ("trapezoid.A.left-edge-concavity", "sign-engine",
     ("second_derivative_identity", "identity", "p2_at_1", "p2_certificate",
      "cube_base_positive", "yang_factors_positive")),
    ("trapezoid.A.left-edge-endpoints", "exact-identity",
     ("G_rational(0,0)", "G_rational(0,1)", "G(0,0)=0", "G(0,1)=0", "imports")),
    ("trapezoid.A.conclusion", "derived", ()),
    ("trapezoid.B.slope-positive", "sign-engine",
     ("substitution_identity", "identity", "bracket_pattern", "bracket_at_1",
      "bracket_certificate", "edge_guard_positive", "yang_factors_positive")),
    ("trapezoid.B.concavity", "sign-engine",
     ("second_derivative_identity", "identity", "p3_at_1", "p3_certificate",
      "cube_base_positive", "yang_factors_positive")),
    ("trapezoid.B.corner-values", "exact-enclosure",
     ("G(0,9/25)", "G(0,9/25) > 0", "G(1/5,9/25)", "G(1/5,9/25) > 0", "printed",
      "agrees_with_printed")),
    ("trapezoid.B.conclusion", "derived", ()),
    ("trapezoid.C.slope-positive", "sign-engine",
     ("substitution_identity", "identity", "p4_at_9_25", "p4_certificate",
      "yang_factors_positive")),
    ("trapezoid.C.conclusion", "derived", ()),
    ("trapezoid.boundary.antidiagonal", "exact-enclosure",
     ("bounds_coincide_identity", "F(1/100,99/100)", "F(1/100,99/100) > 0",
      "F(1/20,19/20)", "F(1/20,19/20) > 0", "F(1/10,9/10)", "F(1/10,9/10) > 0",
      "F(19/100,81/100)", "F(19/100,81/100) > 0")),
    ("trapezoid.boundary.left-edge", "exact-identity",
     ("log_argument_is_1", "imports")),
    ("trapezoid.boundary.diagonal", "derived", ()),
    ("trapezoid.boundary.right-edge", "derived", ()),
    ("trapezoid.no-interior-extremum", "derived", ()),
]
_IDS = [sid for sid, _, _ in PINNED_STEPS]
_DIAGONAL = [sid for sid in _IDS if sid.startswith("diagonal.")]
_STRIP = [sid for sid in _IDS if sid.startswith("strip.")]
_A = [sid for sid in _IDS if sid.startswith("trapezoid.A.")]
# the parents of every step that has any
PINNED_PARENTS = {
    "strip.reduce-to-diagonal": _DIAGONAL + _STRIP[:-1],
    "trapezoid.A.conclusion": _A[:-1],
    "trapezoid.B.slope-positive": ["trapezoid.A.mixed-partial"],
    "trapezoid.B.conclusion": [
        "trapezoid.B.slope-positive", "trapezoid.B.concavity",
        "trapezoid.B.corner-values",
    ],
    "trapezoid.C.slope-positive": ["trapezoid.A.mixed-partial"],
    "trapezoid.C.conclusion": ["trapezoid.C.slope-positive"],
    "trapezoid.boundary.diagonal": _DIAGONAL,
    "trapezoid.boundary.right-edge": ["strip.reduce-to-diagonal"],
    "trapezoid.no-interior-extremum": [
        "trapezoid.A.conclusion", "trapezoid.B.conclusion", "trapezoid.C.conclusion",
        "trapezoid.boundary.antidiagonal", "trapezoid.boundary.left-edge",
        "trapezoid.boundary.diagonal", "trapezoid.boundary.right-edge",
    ],
}
PINNED_CLAIMS_SHA256 = "0b7c47ddff50e99c09e9c42deb0360024f0503eb52dc38a36db035fd5f657e16"


class TestReplay:
    def test_diagonal_phase(self):
        steps = replay_diagonal()
        assert all(s.status == "verified" for s in steps)

    def test_strip_phase(self):
        # given the diagonal steps every strip step is verified; alone, the
        # derived step with parents among them fails
        steps = replay_strip(50, replay_diagonal())
        assert all(s.status == "verified" for s in steps)
        by_id = {s.id: s for s in steps}
        assert "strip.dFdy-reduction-identity" in by_id
        assert by_id["strip.pn-sign-vectors"].evidence["patterns"] == "{'PN': 16}"
        alone = [s.id for s in replay_strip() if s.status != "verified"]
        assert alone == ["strip.reduce-to-diagonal"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda q: (q[0], q[1], q[3], q[2], q[4], q[5]),   # q2, q3 swapped
            lambda q: (q[0], -q[1]) + tuple(q[2:]),           # q1 negated
        ],
        ids=["swap-q2-q3", "negate-q1"],
    )
    def test_exact_strip_step_rejects_mutated_catalogue(self, monkeypatch, mutate):
        mutated = CAT._replace(q=mutate(CAT.q))
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)
        by_id = {s.id: s for s in replay_strip(30)}
        assert by_id["strip.pn-sign-vectors"].status == "failed"

    @staticmethod
    def _replay_with_q(monkeypatch, k, qk):
        q = CAT.q[:k] + (qk,) + CAT.q[k + 1:]
        mutated = CAT._replace(q=q)
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)
        return {s.id: s.status for s in replay_all(30).steps}

    def test_q1_edit_fails_the_steps_that_read_Q(self, monkeypatch):
        # q1's constant -5 -> -5.05: q1 keeps its root ordering and sign
        # pattern, but Q, built from the q's, no longer meets its identities
        statuses = self._replay_with_q(monkeypatch, 1, CAT.q[1] - F(1, 20))
        bad = {
            "strip.dFdy-reduction-identity", "strip.antidiagonal-identity",
            "strip.reduce-to-diagonal", "trapezoid.boundary.right-edge",
            "trapezoid.no-interior-extremum",
        }
        assert {k for k, status in statuses.items() if status != "verified"} == bad
        assert all(statuses[k] == "failed" for k in bad)
        assert len(statuses) == 30

    def test_q_top_row_edit_fails_the_sign_vectors(self, monkeypatch):
        # Q's top y-coefficient 2x - 1 -> 3x - 1: the sign-vector step reads it
        # from Q, so it fails beside the identities that read Q
        mutated = CAT.Q + BiPoly.x() * BiPoly.y() ** 6
        monkeypatch.setattr(catalogue.Catalogue, "Q", property(lambda self: mutated))
        statuses = {s.id: s.status for s in replay_all(30).steps}
        bad = {
            "strip.dFdy-reduction-identity", "strip.pn-sign-vectors",
            "strip.antidiagonal-identity", "strip.reduce-to-diagonal",
            "trapezoid.boundary.right-edge", "trapezoid.no-interior-extremum",
        }
        assert {k for k, status in statuses.items() if status != "verified"} == bad
        assert all(statuses[k] == "failed" for k in bad)

    def test_q_without_a_sign_change_is_inconclusive(self, monkeypatch):
        # all coefficients of q3 nonnegative: no root to isolate, and the
        # replay still gives every step
        q3 = Poly(abs(c) for c in CAT.q[3].coeffs)
        statuses = self._replay_with_q(monkeypatch, 3, q3)
        assert len(statuses) == 30
        inconclusive = {k for k, status in statuses.items() if status == "inconclusive"}
        assert inconclusive == {"strip.q-root-ordering", "strip.pn-sign-vectors"}

    def test_phases_do_no_work_outside_their_checks(self):
        phases = (proof._Diagonal, proof._Strip, proof._Trapezoid)
        assert all("__init__" not in vars(phase) for phase in phases)
        assert not hasattr(proof, "PRINTED_LX") and not hasattr(proof, "PRINTED_LXX")

    def test_trapezoid_phase(self):
        earlier = replay_diagonal()
        earlier += replay_strip(50, earlier)
        assert all(s.status == "verified" for s in replay_trapezoid(50, earlier))
        alone = {s.id: s.status for s in replay_trapezoid() if s.status != "verified"}
        assert alone == dict.fromkeys([
            "trapezoid.boundary.diagonal", "trapezoid.boundary.right-edge",
            "trapezoid.no-interior-extremum",
        ], "failed")

    def test_trapezoid_phase_alone_fails_on_p0_negative_at_its_point(self, monkeypatch):
        # run without replay_all, the phase derives trapezoid.A.conclusion
        # from its own g-lower check, which fails at p0(3/20) < 0
        p0 = CAT.p[0] - 10**9 * Poly.x() ** 3
        mutated = CAT._replace(p=(p0,) + tuple(CAT.p[1:]))
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)
        statuses = {s.id: s.status for s in replay_trapezoid(30)}
        assert statuses["trapezoid.A.g-lower"] == "failed"
        assert statuses["trapezoid.A.conclusion"] == "failed"

    def test_full_replay_counts(self):
        report = replay_all()
        assert report.all_verified
        assert len(report.steps) >= 15
        assert report.counts["failed"] == 0
        assert report.counts["inconclusive"] == 0
        methods = {s.method for s in report.steps}
        assert methods == {
            "derived",
            "exact-enclosure",
            "exact-identity",
            "exact-polynomial",
            "sign-engine",
        }

    def test_step_table_is_pinned(self):
        # ids, order, methods and evidence keys of every step, the claims and
        # the parents
        steps = replay_all(30).steps
        assert [(s.id, s.method, tuple(s.evidence)) for s in steps] == PINNED_STEPS
        claims = "\n".join(s.claim for s in steps).encode()
        assert hashlib.sha256(claims).hexdigest() == PINNED_CLAIMS_SHA256
        assert {s.id: s.depends_on for s in steps if s.depends_on} == PINNED_PARENTS

    def test_derived_steps_have_no_check_of_their_own(self):
        derived = [s for s in replay_all(30).steps if s.method == "derived"]
        assert len(derived) == 7
        assert all(s.evidence == {} and s.depends_on for s in derived)
        # their table rows carry no check, so they evaluate nothing
        tables = (proof._Diagonal.STEPS, proof._Strip.STEPS, proof._Trapezoid.STEPS)
        rows = [row for table in tables for row in table if row[2] == "derived"]
        assert [row[0] for row in rows] == [s.id for s in derived]
        assert all(row[3] is None for row in rows)

    def test_parents_are_earlier_steps(self):
        seen = set()
        for step in replay_all(30).steps:
            assert set(step.depends_on) <= seen, step.id
            seen.add(step.id)

    def test_theorem_step_has_every_other_step_as_ancestor(self):
        steps = replay_all(30).steps
        parents = {s.id: s.depends_on for s in steps}
        ancestors, todo = set(), list(parents["trapezoid.no-interior-extremum"])
        while todo:
            sid = todo.pop()
            if sid not in ancestors:
                ancestors.add(sid)
                todo += parents[sid]
        assert ancestors == {s.id for s in steps[:-1]}
        assert steps[-1].id == "trapezoid.no-interior-extremum"

    @staticmethod
    def _derive(own: dict, parents: dict) -> dict:
        # rows a, b, c, ... in order, each a check whose one clause gives the
        # status in `own` (True verified, False failed, None inconclusive),
        # and their parent ids, through the phase runner
        clause = {"verified": True, "failed": False, "inconclusive": None}
        phase = proof._Phase(30)
        phase.STEPS = [
            (sid, "", "exact-identity", lambda _, s=s: {"ok": clause[s]}, parents.get(sid, ()))
            for sid, s in own.items()
        ]
        return {s.id: s.status for s in phase.run()}

    def test_data_values_are_no_clauses(self):
        # Fraction(0) == False and 0 == False, but only a bool or None is a clause
        data = {"fraction": F(0), "int": 0, "text": "", "list": []}
        phase = proof._Phase(30)
        phase.STEPS = [("a", "", "exact-identity", lambda _: data | {"ok": True}, ())]
        [step] = phase.run()
        assert step.status == "verified"
        assert step.evidence == {"fraction": "0", "int": "0", "text": "", "list": "[]",
                                 "ok": "True"}

    def test_every_checked_step_states_its_clauses(self):
        # the clauses are the values printed True, False or None: each checked
        # step has at least one, and in a verified replay every one is True
        for step in replay_all(30).steps:
            clauses = [v for v in step.evidence.values() if v in ("True", "False", "None")]
            assert bool(clauses) == (step.method != "derived"), step.id
            assert set(clauses) <= {"True"}, step.id

    @pytest.mark.parametrize("bad", ["failed", "inconclusive"])
    def test_status_reaches_child_and_grandchild(self, bad):
        own = {"a": bad, "d": "verified", "b": "verified", "c": "verified"}
        parents = {"b": ["a"], "c": ["b", "d"]}
        statuses = self._derive(own, parents)
        assert statuses == {"a": bad, "b": bad, "c": bad, "d": "verified"}

    def test_failed_parent_outweighs_inconclusive_one(self):
        own = {"a": "failed", "b": "inconclusive", "c": "verified"}
        assert self._derive(own, {"c": ["b", "a"]})["c"] == "failed"

    @pytest.mark.parametrize(
        "parent", ["nowhere", "c", "b"], ids=["unknown", "later", "self"]
    )
    def test_parent_that_is_no_earlier_step_fails(self, parent):
        own = dict.fromkeys("abc", "verified")
        statuses = self._derive(own, {"b": ["a", parent]})
        assert statuses == {"a": "verified", "b": "failed", "c": "verified"}

    @staticmethod
    def _replay_with_p0(monkeypatch, p0):
        mutated = CAT._replace(p=(p0,) + tuple(CAT.p[1:]))
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)
        return {s.id: s for s in replay_all(30).steps}

    def test_pn_certificate_rejects_p0_negative_at_its_point(self, monkeypatch):
        # still PN, so the criterion applies, but p0(3/20) is about -3.37e6
        p0 = CAT.p[0] - 10**9 * Poly.x() ** 3
        steps = self._replay_with_p0(monkeypatch, p0)
        bad = {
            "trapezoid.A.g-lower", "trapezoid.A.conclusion",
            "trapezoid.no-interior-extremum",
        }
        assert {k: s.status for k, s in steps.items() if k in bad} == dict.fromkeys(
            bad, "failed"
        )
        assert len(steps) == 30
        assert all(s.status == "verified" for k, s in steps.items() if k not in bad)

    def test_check_that_raises_is_inconclusive(self, monkeypatch):
        # -p0 is NP: the PN criterion does not apply, and the replay goes on
        steps = self._replay_with_p0(monkeypatch, -CAT.p[0])
        bad = {
            "trapezoid.A.g-lower", "trapezoid.A.conclusion",
            "trapezoid.no-interior-extremum",
        }
        assert {k: s.status for k, s in steps.items() if k in bad} == dict.fromkeys(
            bad, "inconclusive"
        )
        assert steps["trapezoid.A.g-lower"].evidence == {
            "error": "criterion inapplicable: expected PN pattern, got NP"
        }
        assert len(steps) == 30
        assert all(s.status == "verified" for k, s in steps.items() if k not in bad)

    @pytest.mark.parametrize("name, readers", [
        ("derive_lx", {
            "diagonal.slope-lower-identity", "trapezoid.A.g-lower",
            "trapezoid.B.slope-positive", "trapezoid.C.slope-positive",
        }),
        ("derive_lxx", {
            "trapezoid.A.g-decreasing", "trapezoid.A.left-edge-concavity",
            "trapezoid.B.concavity",
        }),
    ])
    def test_derived_closed_form_edit_fails_its_readers(self, monkeypatch, name, readers):
        derive = getattr(proof, name)
        monkeypatch.setattr(proof, name, lambda a: derive(a) + F(1, 10**6))
        steps = replay_all(30).steps
        expected = set(readers)
        for step in steps:   # parents come first, so one pass finds descendants
            if expected & set(step.depends_on):
                expected.add(step.id)
        assert {s.id for s in steps if s.status != "verified"} == expected
        assert all(s.status == "failed" for s in steps if s.id in expected)

    @pytest.fixture
    def shifted_log_terms(self, monkeypatch):
        """psibounds.log_terms with 10^-6 added to L's second log argument."""
        terms = psibounds.log_terms

        def shifted(x, a):
            # 10^-6 in x's own type: a Decimal does not add to a Fraction
            first, (w, u) = terms(x, a)
            return first, (w, u + (0 * u + 1) / 10**6)

        caches = (psibounds.derive_lx, psibounds.derive_lxx)
        monkeypatch.setattr(psibounds, "log_terms", shifted)
        for cache in caches:
            cache.cache_clear()
        yield
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()

    def test_log_terms_edit_reaches_every_reader(self, shifted_log_terms):
        # the derivation, the printed-form comparison and lx_general all read
        # log_terms: the steps that read derive_lx/derive_lxx fail with their
        # descendants
        steps = replay_all(30).steps
        bad = {
            "diagonal.slope-lower-identity", "strip.reduce-to-diagonal",
            "trapezoid.A.g-lower", "trapezoid.A.g-decreasing",
            "trapezoid.A.left-edge-concavity", "trapezoid.A.conclusion",
            "trapezoid.B.slope-positive", "trapezoid.B.concavity",
            "trapezoid.B.conclusion", "trapezoid.C.slope-positive",
            "trapezoid.C.conclusion", "trapezoid.boundary.diagonal",
            "trapezoid.boundary.right-edge", "trapezoid.no-interior-extremum",
        }
        assert {s.id for s in steps if s.status != "verified"} == bad
        assert all(s.status == "failed" for s in steps if s.id in bad)
        assert psibounds.closed_form_mismatches() == [
            "Lx(., 2/5)", "Lxx(., 2/5)", "Lx(., 4/5)", "Lxx(., 4/5)"
        ]
        quarter = F(1, 4)
        printed = to_mpf(HP, psibounds.PRINTED_LX[psibounds.A_SMALL](quarter))
        moved = abs(psibounds.lx_general(quarter, psibounds.A_SMALL, 60) - printed)
        assert HP.mpf("1e-6") < moved < HP.mpf("3e-6")

    @pytest.mark.parametrize("table, a, label", [
        ("PRINTED_LX", psibounds.A_SMALL, "Lx(., 2/5)"),
        ("PRINTED_LX", psibounds.A_LARGE, "Lx(., 4/5)"),
        ("PRINTED_LXX", psibounds.A_SMALL, "Lxx(., 2/5)"),
        ("PRINTED_LXX", psibounds.A_LARGE, "Lxx(., 4/5)"),
    ])
    def test_printed_closed_forms_are_not_replay_inputs(self, monkeypatch, table, a, label):
        # one coefficient of the displayed numerator + 1: the comparison with
        # the derivation fails, and the replay, which reads the derivation,
        # does not change
        printed = getattr(psibounds, table)
        edited = RationalFn(printed[a].num + 1, printed[a].den)
        monkeypatch.setitem(printed, a, edited)
        assert psibounds.closed_form_mismatches() == [label]
        assert replay_all(30).all_verified

    _LOG_MUTANT = lambda log: lambda x, y, ln: log(x, y, lambda a: ln(a + F(1, 10**6)))
    _SCALED = lambda f: lambda x, y: f(x, y) * (1 + F(1, 10**6))
    # 2xy scaled by 1 + 10^-6 inside F's log term
    _LOG_2XY = lambda log: lambda x, y, ln: ln(
        1 - 2 * x * y * (1 + F(1, 10**6)) / (x + y + 1))
    # ln 2 added to F's log term: F, below 1/2 at the sampled antidiagonal
    # points, turns negative there
    _LOG_DOUBLED = lambda log: lambda x, y, ln: log(x, y, lambda a: ln(2 * a))
    # 913 -> 915 moves g(1/5) = 0.0019 by -2/737 to below 0
    _EDGE_MOVED = lambda _: (915 + 350 * Poly.x() - 1250 * Poly.x() ** 2) / (
        2 * proof.EDGE_GUARD**2)

    @pytest.mark.parametrize("name, mutant, sid", [
        ("G_rational", lambda G: lambda x, y: G(x, y) + F(1, 10**6),
         "trapezoid.A.left-edge-endpoints"),
        ("log_correction", _LOG_MUTANT, "trapezoid.boundary.left-edge"),
        ("log_correction", _LOG_MUTANT, "diagonal.slope-rational-identity"),
        # the step bodies differentiate the shared formulas, not copies of them
        ("G_rational", _SCALED, "trapezoid.A.left-edge-concavity"),
        ("G_rational", _SCALED, "trapezoid.B.concavity"),
        ("dFdx_rational", _SCALED, "diagonal.slope-lower-identity"),
        # the gradient identities differentiate log_correction's argument, and
        # the mixed partial differentiates G_rational
        ("log_correction", _LOG_2XY, "strip.gradient-identities"),
        ("log_correction", _LOG_2XY, "diagonal.slope-rational-identity"),
        ("G_rational", _SCALED, "trapezoid.A.mixed-partial"),
        # the log argument 2 at (0, 0) puts f(0) at -ln 2, not 0
        ("log_correction", _LOG_DOUBLED, "diagonal.slope-rational-identity"),
        # the enclosure steps: F negative at sampled points, g(1/5) < 0, and a
        # corner value that does not agree with its printed prefix
        ("log_correction", _LOG_DOUBLED, "trapezoid.boundary.antidiagonal"),
        ("EDGE_SLOPE_QUOTIENT", _EDGE_MOVED, "trapezoid.A.g-at-right-edge"),
        ("PRINTED", lambda p: p | {"G(0,9/25)": "0.0556"}, "trapezoid.B.corner-values"),
    ], ids=["G_rational", "log_correction", "log_correction-diagonal",
            "G_rational-scaled-left-edge", "G_rational-scaled-B",
            "dFdx_rational-scaled", "log_correction-2xy-gradients",
            "log_correction-2xy-diagonal-slope", "G_rational-scaled-mixed-partial",
            "log_correction-doubled-diagonal-base", "log_correction-doubled-antidiagonal",
            "edge-slope-constant-moved", "corner-printed-prefix"])
    def test_exact_edge_step_fails_on_mutant(self, monkeypatch, name, mutant, sid):
        monkeypatch.setattr(proof, name, mutant(getattr(proof, name)))
        by_id = {s.id: s for s in replay_all(30).steps}
        assert by_id[sid].status == "failed"

    # one negative coefficient in a factor, or an interval end on the wrong side
    _YANG_NEGATIVE = lambda args: args | {
        psibounds.A_SMALL: args[psibounds.A_SMALL] - 2 * args[psibounds.A_SMALL](0)}
    _CLEARED_NEGATIVE = lambda factors: factors[:2] + [2 - BiPoly.y()] + factors[3:]

    @pytest.mark.parametrize("owner, name, mutant, clause, sids", [
        (proof, "YANG_ARGS", _YANG_NEGATIVE, "yang_factors_positive", [
            "diagonal.slope-numerator-positive", "trapezoid.A.g-lower",
            "trapezoid.B.slope-positive", "trapezoid.C.slope-positive"]),
        # the three steps that divide by a square of YANG_ARGS
        (proof, "YANG_ARGS", _YANG_NEGATIVE, "yang_factors_positive", [
            "trapezoid.A.g-decreasing", "trapezoid.A.left-edge-concavity",
            "trapezoid.B.concavity"]),
        (proof._Trapezoid, "LEFT_EDGE_BASE", lambda _: 1 - proof._T, "cube_base_positive",
         ["trapezoid.A.left-edge-concavity"]),
        (proof._Trapezoid, "B_EDGE_BASE", lambda _: 34 - 7 * proof._T, "cube_base_positive",
         ["trapezoid.B.concavity"]),
        (proof._Strip, "CLEARED", _CLEARED_NEGATIVE, "cleared_factors_positive",
         ["strip.denominator-positivity"]),
        (proof._Strip, "X_ENDS", lambda _: (F(1, 10), F(1, 2)), "5x-1>=0",
         ["strip.antidiagonal-positive"]),
        (proof._Strip, "X_ENDS", lambda _: (F(1, 5), F(3, 5)), "1-x>=1/2",
         ["strip.antidiagonal-positive"]),
        (proof._Trapezoid, "DECREASING", lambda _: (F(1, 20), F(1, 5)), "10x-1>0",
         ["trapezoid.A.g-decreasing"]),
        (proof._Trapezoid, "DECREASING", lambda _: (F(1, 10), F(1, 20)), "10x-1>0",
         ["trapezoid.A.g-decreasing"]),
        # (0, 3/20] and (3/20, 1/5) do not overlap
        (proof._Trapezoid, "DECREASING", lambda _: (F(3, 20), F(1, 5)), "interval_cover",
         ["trapezoid.A.g-at-right-edge"]),
    ], ids=["yang-args", "yang-args-squared", "left-edge-cube-base", "b-cube-base",
            "cleared-factors", "strip-left-end", "strip-right-end",
            "decreasing-left-end", "decreasing-right-end", "decreasing-cover"])
    def test_side_condition_clause_fails_on_mutant(
            self, monkeypatch, owner, name, mutant, clause, sids):
        monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
        by_id = {s.id: s for s in replay_all(30).steps}
        for sid in sids:
            assert by_id[sid].evidence[clause] == "False", sid
            assert by_id[sid].status == "failed", sid

    @pytest.mark.parametrize("dps", [30, 50, 100])
    def test_enclosure_evidence_holds_mpmath_values(self, dps):
        # each of the seven values is printed as [lo, hi] with dps significant
        # digits, rounded outward, around mpmath's value at dps + 40 digits: at
        # 100 digits the ends part past the series cap near 1e-53
        by_id = {s.id: s for s in replay_all(dps).steps}
        with mpmath.workdps(dps + 40):
            references = enclosed_values_by_mpmath()
        assert len(references) == 7
        for (sid, key), reference in references.items():
            lo, hi = by_id[sid].evidence[key].removeprefix("[").removesuffix("]").split(", ")
            assert F(lo) <= exact(reference) <= F(hi), (sid, key)
            assert [len(end.lstrip("0.").replace(".", "")) for end in (lo, hi)] == [dps] * 2

    def test_replay_at_reduced_precision(self):
        report = replay_all(dps=30)
        assert report.all_verified

    def test_json_shape(self):
        obj = replay_all().to_json_obj()
        assert set(obj) == {"precision_digits", "steps", "summary"}
        for step in obj["steps"]:
            assert set(step) == {
                "id", "claim", "method", "status", "depends_on", "evidence"
            }
        assert obj["summary"]["all_verified"] is True


class Recorded:
    """A number that records the expression tree it is built by.  + and *
    sort their operands, as IEEE 754 rounds both commutatively; - and /
    keep their order."""

    def __init__(self, tree):
        self.tree = tree

    @staticmethod
    def op(symbol, a, b, commutative=False):
        trees = [v.tree if isinstance(v, Recorded) else repr(v) for v in (a, b)]
        return Recorded((symbol, *(sorted(trees, key=repr) if commutative else trees)))

    __add__ = lambda a, b: Recorded.op("+", a, b, True)
    __radd__ = __add__
    __mul__ = lambda a, b: Recorded.op("*", a, b, True)
    __rmul__ = __mul__
    __sub__ = lambda a, b: Recorded.op("-", a, b)
    __rsub__ = lambda a, b: Recorded.op("-", b, a)
    __truediv__ = lambda a, b: Recorded.op("/", a, b)
    __rtruediv__ = lambda a, b: Recorded.op("/", b, a)


@functools.lru_cache(maxsize=None)
def reference_sweep(n):
    """The sweep with every cell computed, compared and formatted on its own,
    the reference for the mirrored one.  Returns the grid lines and the
    three (minimum, argmin) pairs."""
    al = float(constants.alpha(proof.DEFAULT_DPS))
    best = best_iv = best_az = (math.inf, (0.0, 0.0))
    y_axis = [(yv, math.lgamma(yv), repr(yv)) for yv in (j / n for j in range(1, n + 1))]
    lines = []
    for i in range(1, n + 1):
        xv = i / n
        lg_x = math.lgamma(xv)
        head = repr(xv) + ","
        cells = []
        for yv, lg_y, r_y in y_axis:
            b = math.exp(lg_x + lg_y - math.lgamma(xv + yv))
            m_new = b - new_bound(xv, yv)
            if m_new < best[0]:
                best = (m_new, (xv, yv))
            if xv < 1 and yv < 1:
                m_iv = b - ivady_lower_bound(xv, yv)
                if m_iv < best_iv[0]:
                    best_iv = (m_iv, (xv, yv))
                m_az = b - alzer_lower_bound(xv, yv, al)
                if m_az < best_az[0]:
                    best_az = (m_az, (xv, yv))
            cells.append(f"{head}{r_y},{b!r},{m_new!r}\r\n")
        lines.append("".join(cells))
    return lines, best, best_iv, best_az


class TestSweep:
    def test_small_grid(self):
        result = sweep_theorem(4)
        assert result.min_margin_new > 0
        assert result.argmin_new == (0.25, 0.25)
        assert result.classical_edges_exact
        assert result.hp_agrees

    def test_recheck_prints_only_correct_digits(self):
        # every printed digit of the worst cell's margin is correctly rounded:
        # at n = 150 and 1000 the cell is (1/n, 1), whose margin is 1/(2n+1)
        # (the mpf's str printed ...0033222632 at n = 150, where 1/301
        # continues ...0033222591); at n = 2 it is (1/2, 1/2), margin pi - 3
        with mpmath.workdps(100):
            references = {150: F(1, 301), 1000: F(1, 2001), 2: exact(mpmath.pi - 3)}
        for n, reference in references.items():
            result = sweep_theorem(n)
            printed = result.hp_min_margin
            digits = len(printed.replace(".", "").lstrip("0"))
            assert digits >= 40 and result.hp_agrees
            assert printed == specials.nstr(reference, digits), n

    def test_classical_minima_are_interior_and_positive(self):
        # both classical bounds equal B on x = 1 and y = 1, where the double
        # margins are rounding noise of either sign; the minima skip them
        result = sweep_theorem(150)
        assert result.min_margin_ivady > 0 and result.min_margin_alzer > 0
        for x, y in (result.argmin_ivady, result.argmin_alzer):
            assert x < 1 and y < 1

    def test_rows_stream(self):
        # one call per grid line x = i/n, holding its n CRLF-terminated rows
        # in y order (the file bytes are pinned in test_cli)
        n = 3
        lines = []
        result = sweep_theorem(n, row_sink=lines.append)
        assert len(lines) == n
        for i, line in enumerate(lines, start=1):
            rows = line.split("\r\n")
            assert len(rows) == n + 1 and rows[-1] == ""
            cells = [tuple(map(float, row.split(",")[:2])) for row in rows[:-1]]
            assert cells == [(i / n, j / n) for j in range(1, n + 1)]
        last_row = lines[-1].split("\r\n")[-2]
        x, y, b, m_new = map(float, last_row.split(","))
        assert (x, y) == (1.0, 1.0)
        assert abs(b - 1.0) < 1e-12
        assert abs(m_new - 1 / 3) < 1e-12
        # both classical bounds equal B at (1, 1), as on the whole two edges
        assert result.classical_edges_exact

    def test_sink_does_not_change_the_result(self):
        assert sweep_theorem(6, row_sink=len) == sweep_theorem(6)

    @pytest.mark.parametrize("block", [proof.MIRROR_BLOCK, 1, 2, 7])
    def test_mirrored_cells_match_the_per_cell_loop(self, monkeypatch, block):
        # small blocks put block edges inside small grids: cells across an
        # edge are computed whole, cells within a block reuse their twin's text
        monkeypatch.setattr(proof, "MIRROR_BLOCK", block)
        for n in [*range(2, 41), 97, 199]:
            lines, best, best_iv, best_az = reference_sweep(n)
            streamed = []
            result = sweep_theorem(n, row_sink=streamed.append)
            assert streamed == lines, n
            assert (result.min_margin_new, result.argmin_new) == best, n
            assert (result.min_margin_ivady, result.argmin_ivady) == best_iv, n
            assert (result.min_margin_alzer, result.argmin_alzer) == best_az, n
            assert sweep_theorem(n) == result, n

    def test_mirroring_rests_on_bitwise_symmetry(self):
        # the sweep decides its minima on x <= y and reuses a twin's beta and
        # margin_new, so B's double expression and the three bounds must not
        # see the swap
        n = 150
        al = float(constants.alpha(proof.DEFAULT_DPS))
        axis = [(v, math.lgamma(v)) for v in (k / n for k in range(1, n + 1))]
        for x, lg_x in axis:
            for y, lg_y in axis:
                b = math.exp(lg_x + lg_y - math.lgamma(x + y)).hex()
                assert b == math.exp(lg_y + lg_x - math.lgamma(y + x)).hex()
                assert new_bound(x, y).hex() == new_bound(y, x).hex()
                assert ivady_lower_bound(x, y).hex() == ivady_lower_bound(y, x).hex()
                az = alzer_lower_bound(x, y, al).hex()
                assert az == alzer_lower_bound(y, x, al).hex()

    def test_bounds_keep_their_expression_tree_under_the_swap(self):
        # IEEE 754 rounds + and * commutatively, so a formula whose tree is
        # unchanged by swapping x and y, up to the operand order of + and *,
        # is symmetric for every pair of doubles, not only on a grid
        x, y, alpha = Recorded("x"), Recorded("y"), Recorded("alpha")
        bounds = (new_bound, ivady_lower_bound, lambda x, y: alzer_lower_bound(x, y, alpha))
        for bound in bounds:
            assert bound(x, y).tree == bound(y, x).tree
        # the grouping (alpha (1 - x)) (1 - y) would see the swap
        grouped = lambda x, y: alpha * (1 - x) * (1 - y)
        assert grouped(x, y).tree != grouped(y, x).tree

    @pytest.mark.parametrize("block", [proof.MIRROR_BLOCK, 1, 2, 7])
    def test_no_bound_is_evaluated_below_the_diagonal(self, monkeypatch, block):
        # each classical bound is evaluated once per interior cell with
        # x <= y; without a sink, so is the new bound once per cell x <= y
        monkeypatch.setattr(proof, "MIRROR_BLOCK", block)
        calls = Counter()
        for name in ("new_bound", "ivady_lower_bound", "alzer_lower_bound"):
            def counted(x, *rest, f=getattr(proof, name), name=name):
                calls[name] += isinstance(x, float)   # not the edges' exact check
                return f(x, *rest)
            monkeypatch.setattr(proof, name, counted)
        for n in (2, 9, 16):
            for sink in (None, len):
                calls.clear()
                sweep_theorem(n, row_sink=sink)
                assert calls["ivady_lower_bound"] == n * (n - 1) // 2, (n, sink)
                assert calls["alzer_lower_bound"] == n * (n - 1) // 2, (n, sink)
                if sink is None:
                    assert calls["new_bound"] == n * (n + 1) // 2, n

    def test_no_text_is_kept_without_a_sink(self):
        # kept mirror text would take about 1 MB at n = 300
        sweep_theorem(2)   # fills alpha's and the re-check's caches
        tracemalloc.start()
        try:
            sweep_theorem(300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_classical_edges_check_catches_a_wrong_formula(self, monkeypatch):
        # (x + y)/(xy) is 1 + 1/y at x = 1, not B(1, y) = 1/y
        monkeypatch.setattr(proof, "ivady_lower_bound", lambda x, y: (x + y) / (x * y))
        assert not proof.classical_edges_exact()

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid_n"):
            sweep_theorem(1)

    def test_margin_decreases_toward_left_edge(self):
        # along fixed y, the margin shrinks as x -> 0 on the fine grid
        values = [float(theorem_margin(F(k, 1000), F(7, 10))) for k in (1, 5, 50, 500)]
        assert values == sorted(values)
