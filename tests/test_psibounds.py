"""Sandwich bounds, closed-form re-derivation, digamma-difference bound."""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from betabound import psibounds
from betabound.polys import Poly, RationalFn
from betabound.psibounds import (
    A_LARGE,
    A_SMALL,
    PRINTED_LX,
    PRINTED_LXX,
    alzer_bracket_rf,
    alzer_psi_diff_lower,
    certified_sign,
    closed_form_mismatches,
    derive_lx,
    derive_lxx,
    error_budget,
    l_value,
    log_arguments,
    lx_general,
    lxx_general,
    sandwich_check,
    sandwich_margins,
    verify_closed_forms,
    yang_lx,
    yang_lxx,
)
from betabound.specials import context, psi, psi1, to_mpf

HP = context(60)
mpmath.mp.dps = 60


class TestPrintedForms:
    def test_lx_exact_values(self):
        assert PRINTED_LX[A_SMALL](F(0)) == F(183, 110)
        assert PRINTED_LX[A_SMALL](F(1)) == F(2169, 3362)
        assert PRINTED_LX[A_LARGE](F(1)) == F(5031, 7802)

    def test_lxx_exact_values(self):
        assert PRINTED_LXX[A_SMALL](F(0)) == F(-14979, 6050)
        assert PRINTED_LXX[A_LARGE](F(0)) == F(-139611, 69938)

    def test_lxx_negative_on_samples(self):
        for x in (F(1, 10), F(1), F(5)):
            assert PRINTED_LXX[A_SMALL](x) < 0
            assert PRINTED_LXX[A_LARGE](x) < 0

    def test_high_precision_path_agrees_with_exact(self):
        for a in (A_SMALL, A_LARGE):
            exact = PRINTED_LX[a](F(1, 3))
            hp = lx_general(HP.mpf(1) / 3, a)
            assert abs(hp - to_mpf(HP, exact)) < HP.mpf("1e-45")


def yang_matches_derivation(a) -> bool:
    """Both psibounds.yang_* forms equal the derived L_x and L_xx at `a`."""
    x = Poly.x()
    return (psibounds.yang_lx(x, a).equivalent(derive_lx(a))
            and psibounds.yang_lxx(x, a).equivalent(derive_lxx(a)))


class TestClosedFormDerivation:
    def test_all_four_match(self):
        assert verify_closed_forms()
        assert closed_form_mismatches() == []

    def test_mismatch_detected(self):
        # a deliberately perturbed form must not pass the re-derivation
        good = PRINTED_LX[A_SMALL]
        bad = RationalFn(good.num + Poly((1,)), good.den)
        assert not derive_lx(A_SMALL).equivalent(bad)

    def test_symbolic_forms_evaluate_consistently(self):
        x = F(2, 7)
        assert derive_lx(A_LARGE)(x) == PRINTED_LX[A_LARGE](x)
        assert derive_lxx(A_SMALL)(x) == PRINTED_LXX[A_SMALL](x)

    @pytest.mark.parametrize("a", [A_SMALL, A_LARGE, F(1, 2), F(7, 10)])
    def test_yang_forms_equal_the_derived_ones(self, a):
        # the hand-written derivatives that lx_general, lxx_general, solve_a3
        # and sandwich_margins evaluate, against L differentiated from its logs
        assert yang_matches_derivation(a)

    def test_wrong_yang_lxx_is_caught(self, monkeypatch):
        # drop the factor 2 of 2 u - (2x + 1)^2 in the second log term
        def wrong(x, a):
            w1, w2, c1, c2 = log_arguments(a)
            u1, u2 = x * x + x + c1, x * x + x + c2
            sq = (2 * x + 1) ** 2
            return w1 * (2 * u1 - sq) / (u1 * u1) + w2 * (u2 - sq) / (u2 * u2)

        monkeypatch.setattr(psibounds, "yang_lxx", wrong)
        assert closed_form_mismatches() == []  # the derivation does not use it
        for a in (A_SMALL, A_LARGE, F(1, 2), F(7, 10)):
            assert not yang_matches_derivation(a)

    @pytest.mark.parametrize("formula", [yang_lx, yang_lxx])
    def test_one_formula_for_every_number_type(self, formula):
        # the Poly-built RationalFn, floats and mpfs reproduce the exact value
        for a in (A_SMALL, A_LARGE, F(1, 2)):
            rf = formula(Poly.x(), a)
            for x in (F(0), F(1, 3), F(2)):
                exact = formula(x, a)
                assert isinstance(exact, F) and rf(x) == exact
                as_float = formula(float(x), float(a))
                assert abs(as_float - float(exact)) <= 1e-15 * abs(float(exact))
                as_mpf = formula(to_mpf(HP, x), to_mpf(HP, a))
                assert abs(as_mpf - to_mpf(HP, exact)) < HP.mpf("1e-55")

    @pytest.mark.parametrize("fn", [l_value, lx_general, lxx_general])
    def test_domain_boundaries(self, fn):
        for x in (-1, F(-1, 2), "-1e-40"):
            with pytest.raises(ValueError, match="domain error"):
                fn(x, F(1, 2), 30)
        for a in (F(1, 15), F(1, 20), 0, -1):
            with pytest.raises(ValueError, match="domain error"):
                fn(F(1, 2), a, 30)
        # x = 0 (solve_a3 evaluates L_xx there) and a just above 1/15 are inside
        ctx = context(30)
        for a in (F(1, 2), F(1, 15) + F(1, 10**9)):
            assert ctx.isfinite(fn(0, a, 30))
            assert ctx.isfinite(fn("1e-40", a, 30))

    def test_parameter_domain_guard(self):
        with pytest.raises(ValueError, match="domain error"):
            log_arguments(F(1, 15))
        for bad in (math.inf, math.nan):
            for fn in (l_value, lx_general, lxx_general):
                with pytest.raises(ValueError, match="domain error"):
                    fn(bad, F(1, 2))
                with pytest.raises(ValueError, match="domain error"):
                    fn(F(1, 2), bad)
            for fn in (sandwich_margins, sandwich_check):
                with pytest.raises(ValueError, match="domain error"):
                    fn(bad)

    def test_general_parameter_path(self):
        # derivative formulas at a = 2/5 agree with the printed forms
        hp = lx_general(HP.mpf(1) / 4, A_SMALL)
        assert abs(hp - to_mpf(HP, PRINTED_LX[A_SMALL](F(1, 4)))) < HP.mpf("1e-45")
        hp2 = lxx_general(HP.mpf(1) / 4, A_SMALL)
        assert abs(hp2 - to_mpf(HP, PRINTED_LXX[A_SMALL](F(1, 4)))) < HP.mpf("1e-45")

    def test_l_value_derivative_numerically(self):
        # centred difference of L(., 2/5) matches L_x to O(h^2)
        h = HP.mpf("1e-8")
        x = HP.mpf("0.6")
        fd = (l_value(x + h, A_SMALL) - l_value(x - h, A_SMALL)) / (2 * h)
        assert abs(fd - lx_general(x, A_SMALL)) < HP.mpf("1e-15")


class TestSandwich:
    def test_trigamma_at_two_inside_printed_interval(self):
        value = psi1(2)
        assert to_mpf(HP, F(5031, 7802)) < value < to_mpf(HP, F(2169, 3362))
        assert abs(value - (mpmath.mp.pi**2 / 6 - 1)) < HP.mpf("1e-45")

    def test_sandwich_at_spot_points(self):
        assert sandwich_check(1)
        assert sandwich_check("0.001")
        assert sandwich_check(50)

    def test_sandwich_margins_positive(self):
        margins = sandwich_margins(F(1, 2))
        assert all(m > 0 for m in margins.values())

    def test_log_spaced_grid(self):
        # 10^3 log-spaced points across [1e-4, 1e2]
        lo, hi = HP.ln(HP.mpf("1e-4")), HP.ln(HP.mpf(100))
        for k in range(1000):
            x = HP.exp(lo + (hi - lo) * k / 999)
            assert sandwich_check(x)

    def test_monotone_in_parameter(self):
        # a -> L_x(x, a) decreasing, a -> L_xx(x, a) increasing on (1/15, 1)
        for x in (HP.mpf("0.1"), HP.mpf(1), HP.mpf(3)):
            grid = [F(1, 15) + F(k, 16) for k in range(1, 15)]
            lx_vals = [lx_general(x, a) for a in grid]
            lxx_vals = [lxx_general(x, a) for a in grid]
            assert all(u > v for u, v in zip(lx_vals, lx_vals[1:]))
            assert all(u < v for u, v in zip(lxx_vals, lxx_vals[1:]))


class TestCertificationBand:
    @pytest.mark.parametrize("dps", [30, 50])
    def test_sign_outside_ten_budgets_and_zero_inside(self, dps):
        budget = error_budget(dps)
        assert certified_sign(11 * budget, dps) == 1
        assert certified_sign(-11 * budget, dps) == -1
        assert certified_sign(9 * budget, dps) == 0
        assert certified_sign(-9 * budget, dps) == 0

    def test_sandwich_check_raises_on_a_margin_inside_the_band(self, monkeypatch):
        budget = error_budget(50)
        margins = {"certified": 11 * budget, "in_band": 9 * budget}
        monkeypatch.setattr(psibounds, "sandwich_margins", lambda x, dps: margins)
        with pytest.raises(ValueError, match="inconclusive"):
            sandwich_check(1, 50)
        margins["in_band"] = -11 * budget
        assert sandwich_check(1, 50) is False


class TestAlzerLowerBound:
    def test_empty_sum_reduces(self):
        assert alzer_psi_diff_lower(F(2), F(1, 3), 0) == (1 - F(1, 3)) / (2 + F(1, 3))

    def test_exact_rational_value(self):
        # (1/2) [1/4 + 1/((3/2)(1)) + 1/((5/2)(2)) + 1/((7/2)(3))]
        value = alzer_psi_diff_lower(F(1, 2), F(1, 2), 3)
        assert value == F(509, 840)
        gap = psi(F(3, 2)) - psi(F(1))
        assert gap > to_mpf(HP, value)

    def test_bound_below_difference_randomized(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = HP.mpf(rng.uniform(0.05, 6.0))
            s = HP.mpf(rng.uniform(0.02, 0.98))
            gap = psi(x + 1) - psi(x + s)
            for n in (0, 1, 3, 7):
                assert gap > alzer_psi_diff_lower(x, s, n)

    def test_increasing_in_n(self):
        for x, s in ((F(1, 2), F(1, 5)), (F(3), F(4, 5)), (F(1, 10), F(1, 2))):
            values = [alzer_psi_diff_lower(x, s, n) for n in range(8)]
            assert all(u < v for u, v in zip(values, values[1:]))

    def test_bracket_rational_fn_matches_sum(self):
        bracket = alzer_bracket_rf(3)
        for s, arg in ((F(1, 3), F(2, 7)), (F(2, 5), F(5, 3)), (F(9, 10), F(6))):
            assert bracket(s, arg) == alzer_psi_diff_lower(arg, s, 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="domain error"):
            alzer_psi_diff_lower(F(1), F(3, 2), 1)
        with pytest.raises(ValueError, match="domain error"):
            alzer_psi_diff_lower(F(-1), F(1, 2), 1)
        with pytest.raises(ValueError, match="domain error"):
            alzer_psi_diff_lower(F(1), F(1, 2), -2)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="domain error"):
                alzer_psi_diff_lower(bad, F(1, 2), 3)
            with pytest.raises(ValueError, match="domain error"):
                alzer_psi_diff_lower(F(1), bad, 3)
