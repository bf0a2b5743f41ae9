"""Sandwich bounds, closed-form re-derivation, digamma-difference bound."""

import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction as F

import mpmath
import pytest

from betabound import psibounds, specials
from betabound.polys import Poly, RationalFn
from betabound.psibounds import (
    A_LARGE,
    A_SMALL,
    PRINTED_LX,
    PRINTED_LXX,
    alzer_bracket_rf,
    closed_form_mismatches,
    derive_lx,
    derive_lxx,
    error_budget,
    log_terms,
    lx_general,
    lxx_general,
    sandwich_margins,
    yang_lx,
    yang_lxx,
)
from betabound.constants import solve_a3
from betabound.quadrature import beta_integral
from betabound.specials import (GUARD_DIGITS, context, exact, log_gamma, psi, psi1,
                                stirling_enclosure, to_mpf)

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
            (w1, u1), (w2, u2) = log_terms(x, a)
            sq = (2 * x + 1) ** 2
            return w1 * (2 * u1 - sq) / (u1 * u1) + w2 * (u2 - sq) / (u2 * u2)

        monkeypatch.setattr(psibounds, "yang_lxx", wrong)
        assert closed_form_mismatches() == []  # the derivation does not use it
        for a in (A_SMALL, A_LARGE, F(1, 2), F(7, 10)):
            assert not yang_matches_derivation(a)

    @pytest.mark.parametrize("formula", [yang_lx, yang_lxx])
    def test_one_formula_for_every_number_type(self, formula):
        # the Poly-built RationalFn, floats, mpfs and 60-digit Decimals
        # reproduce the exact value
        for a in (A_SMALL, A_LARGE, F(1, 2)):
            rf = formula(Poly.x(), a)
            for x in (F(0), F(1, 3), F(2)):
                exact = formula(x, a)
                assert isinstance(exact, F) and rf(x) == exact
                as_float = formula(float(x), float(a))
                assert abs(as_float - float(exact)) <= 1e-15 * abs(float(exact))
                as_mpf = formula(to_mpf(HP, x), to_mpf(HP, a))
                assert abs(as_mpf - to_mpf(HP, exact)) < HP.mpf("1e-55")
                with decimal.localcontext(decimal.Context(prec=60)):
                    as_decimal = formula(*(Decimal(v.numerator) / v.denominator
                                           for v in (x, a)))
                assert abs(F(as_decimal) - exact) < F(1, 10**55)

    @pytest.mark.parametrize("fn", [lx_general, lxx_general])
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
            log_terms(F(1, 2), F(1, 15))
        for bad in (math.inf, math.nan):
            for fn in (lx_general, lxx_general):
                with pytest.raises(ValueError, match="domain error"):
                    fn(bad, F(1, 2))
                with pytest.raises(ValueError, match="domain error"):
                    fn(F(1, 2), bad)
            with pytest.raises(ValueError, match="domain error"):
                sandwich_margins(bad)

    def test_general_parameter_path(self):
        # derivative formulas at a = 2/5 agree with the printed forms
        hp = lx_general(HP.mpf(1) / 4, A_SMALL)
        assert abs(hp - to_mpf(HP, PRINTED_LX[A_SMALL](F(1, 4)))) < HP.mpf("1e-45")
        hp2 = lxx_general(HP.mpf(1) / 4, A_SMALL)
        assert abs(hp2 - to_mpf(HP, PRINTED_LXX[A_SMALL](F(1, 4)))) < HP.mpf("1e-45")


def ulps(value, exact_value, dps):
    """|value - exact_value rounded to dps digits|, in units in the last place
    of the rounded value."""
    rounded = to_mpf(context(dps), exact_value)
    _, _, exp, bc = rounded._mpf_
    return abs(exact(value) - exact(rounded)) / F(2) ** (exp + bc - context(dps).prec)


def exact_margins(x, dps):
    """The sandwich margins at the Fraction x, exactly, psi' and psi'' the
    enclosure midpoints that sandwich_margins reads."""
    p1, p2 = (stirling_enclosure(x + 1, k, dps + GUARD_DIGITS).mid for k in (1, 2))
    return {
        "psi1_above_lx45": p1 - yang_lx(x, A_LARGE),
        "psi1_below_lx25": yang_lx(x, A_SMALL) - p1,
        "psi2_above_lxx25": p2 - yang_lxx(x, A_SMALL),
        "psi2_below_lxx45": yang_lxx(x, A_LARGE) - p2,
    }


DECIMAL_XS = (0, "1e-40", F(1, 3), 0.37, 7)


class TestDecimalRoute:
    """lx_general, lxx_general and sandwich_margins run on Decimals and round
    once: each is within one unit in the last place of the exact value."""

    @pytest.mark.parametrize("dps", [30, 50, 100, 200])
    def test_l_within_one_ulp_of_the_exact_value(self, dps):
        parameters = (F(1, 15) + F(1, 10**9), A_SMALL, solve_a3(dps), A_LARGE, 2)
        for x in DECIMAL_XS:
            for a in parameters:
                for fn, formula in ((lx_general, yang_lx), (lxx_general, yang_lxx)):
                    value = fn(x, a, dps)
                    assert ulps(value, formula(exact(x), exact(a)), dps) <= 1, (fn, x, a)

    @pytest.mark.parametrize("dps", [30, 50, 100, 200])
    def test_sandwich_within_one_ulp_of_the_exact_value(self, dps):
        for x in DECIMAL_XS[1:]:
            margins = sandwich_margins(x, dps)
            expected = exact_margins(exact(x), dps)
            assert list(margins) == list(expected)
            for key, value in margins.items():
                assert ulps(value, expected[key], dps) <= 1, (x, key)
        with pytest.raises(ValueError, match="domain error"):
            sandwich_margins(DECIMAL_XS[0], dps)

    @pytest.mark.parametrize("dps", [30, 50])
    def test_sandwich_reads_psi_at_the_exact_sum(self, dps, monkeypatch):
        # x below 1 with every digit of the decimal context filled, and a
        # carry past its last nine: in both the Decimal sum x + 1 would round
        seen = []
        spy = lambda t, order, work_dps: seen.append(t) or stirling_enclosure(t, order, work_dps)
        monkeypatch.setattr(psibounds, "stirling_enclosure", spy)
        ctx = specials.rational_context(dps)
        for x in (F(1, 3), F(2, 7), F(10**ctx.prec - 1, 10**(ctx.prec - 1))):
            seen.clear()
            sandwich_margins(x, dps)
            d = ctx.divide(x.numerator, x.denominator)
            assert F(d) + 1 != F(ctx.add(d, 1))
            assert seen == [F(d) + 1] * 2

    @pytest.mark.parametrize("dps", [30, 100])
    def test_each_decimal_result_is_rounded_once(self, dps):
        # each argument is read exactly and divided once, to nearest, into a
        # Decimal, and the mpf is the Decimal result's exact value rounded to
        # nearest, also for a zero and past 10^prec, where the Decimal is itself
        # an integer
        raws = [(yang_lxx, (F(1, 3), solve_a3(dps))), (yang_lx, (0.37, A_LARGE)),
                (lambda x: x - x, (F(2, 3),)), (lambda x: -x * x * x, (10**60 + 1,))]
        for raw, args in raws:
            with decimal.localcontext(specials.rational_context(dps)) as ctx:
                divided = [ctx.divide(*exact(v).as_integer_ratio()) for v in args]
                d = raw(*divided)

            def door(work, *values):
                decimals = list(map(psibounds._to_decimal, values))
                assert decimals == divided
                return raw(*decimals)

            assert specials.evaluate(door, dps, *args) == to_mpf(context(dps), F(d))

    @pytest.mark.parametrize("dps", [30, 100])
    def test_a_result_just_past_a_tie_rounds_on_its_last_digit(self, dps):
        # d, the tie between two neighbouring mpfs rounded up to the decimal
        # context's digits, lies past the tie by less than its last digit
        out, digits = context(dps), specials.rational_context(dps).prec
        m = (1 << out.prec - 1) + 12345
        tie = F(2 * m + 1, 1 << out.prec + 1)
        up = decimal.Context(prec=digits, rounding=decimal.ROUND_CEILING, Emin=-999999)
        d = up.divide(tie.numerator, tie.denominator)
        assert exact(specials.evaluate(lambda work: d, dps)) == F(m + 1, 1 << out.prec)

    def test_caller_decimal_context_is_untouched(self):
        # every evaluate call runs in a decimal context of its own, also one
        # that is not Yang's L and one that raises
        def outcome(call):
            try:
                return call()
            except ValueError as exc:
                return str(exc)

        calls = [
            lambda: lx_general(F(1, 3), A_SMALL, 50),
            lambda: lxx_general(0.37, F(1, 2), 50),
            lambda: list(sandwich_margins(F(1, 3), 50).values()),
            lambda: log_gamma(F(1, 3), 50),
            lambda: beta_integral(F(1, 3), F(1, 2), 30),
            lambda: lx_general(-1, A_SMALL, 50),
        ]
        expected = [outcome(call) for call in calls]
        assert expected[-1] == "domain error: L requires x >= 0"
        caller = decimal.Context(prec=5, rounding=decimal.ROUND_DOWN,
                                 traps=[decimal.Inexact, decimal.Rounded], flags=[])
        with decimal.localcontext(caller) as ctx:
            for call, value in zip(calls, expected):
                assert outcome(call) == value
                assert decimal.getcontext() is ctx
                assert (ctx.prec, ctx.rounding) == (5, decimal.ROUND_DOWN)
                assert {s for s, on in ctx.traps.items() if on} == {decimal.Inexact,
                                                                    decimal.Rounded}
                assert not any(ctx.flags.values())


class TestSandwich:
    def test_trigamma_at_two_inside_printed_interval(self):
        value = psi1(2)
        assert to_mpf(HP, F(5031, 7802)) < value < to_mpf(HP, F(2169, 3362))
        assert abs(value - (mpmath.mp.pi**2 / 6 - 1)) < HP.mpf("1e-45")

    def test_sandwich_at_spot_points(self):
        threshold = 10 * error_budget(50)
        for x in (1, "0.001", 50):
            margins = sandwich_margins(x, 50).values()
            assert all(m > threshold for m in margins), x

    def test_sandwich_margins_positive(self):
        margins = sandwich_margins(F(1, 2))
        assert all(m > 0 for m in margins.values())

    def test_monotone_in_parameter(self):
        # a -> L_x(x, a) decreasing, a -> L_xx(x, a) increasing on (1/15, 1)
        for x in (HP.mpf("0.1"), HP.mpf(1), HP.mpf(3)):
            grid = [F(1, 15) + F(k, 16) for k in range(1, 15)]
            lx_vals = [lx_general(x, a) for a in grid]
            lxx_vals = [lxx_general(x, a) for a in grid]
            assert all(u > v for u, v in zip(lx_vals, lx_vals[1:]))
            assert all(u < v for u, v in zip(lxx_vals, lxx_vals[1:]))


def alzer_sum(x, s, n):
    """Alzer's n-term bound for psi(x+1) - psi(x+s), summed term by term."""
    terms = [1 / ((x + i + 1) * (x + i + s)) for i in range(n)]
    return (1 - s) * (1 / (x + s + n) + sum(terms))


def alzer_violations(points):
    """The (x, s, n) at which the replay's alzer_bracket_rf(n)(s, x) is not
    below psi(x+1) - psi(x+s), for n in {0, 1, 3, 7}."""
    bad = []
    for x, s in points:
        gap = psi(x + 1) - psi(x + s)
        for n in (0, 1, 3, 7):
            if not gap > to_mpf(HP, alzer_bracket_rf(n)(s, x)):
                bad.append((x, s, n))
    return bad


def seeded_alzer_points():
    """1000 seeded (x, s) in (0.05, 6) x (0.02, 0.98), as exact Fractions."""
    rng = random.Random(11)
    return [(F(rng.uniform(0.05, 6.0)), F(rng.uniform(0.02, 0.98))) for _ in range(1000)]


class TestAlzerLowerBound:
    def test_empty_sum_reduces(self):
        assert alzer_bracket_rf(0)(F(1, 3), F(2)) == (1 - F(1, 3)) / (2 + F(1, 3))

    def test_exact_rational_value(self):
        # (1/2) [1/4 + 1/((3/2)(1)) + 1/((5/2)(2)) + 1/((7/2)(3))]
        value = alzer_bracket_rf(3)(F(1, 2), F(1, 2))
        assert value == F(509, 840)
        gap = psi(F(3, 2)) - psi(F(1))
        assert gap > to_mpf(HP, value)

    def test_bound_below_difference_randomized(self):
        assert alzer_violations(seeded_alzer_points()) == []

    def test_inflated_bound_is_caught(self, monkeypatch):
        # the smallest relative margin over the seeded points is about 2.2e-4
        original = psibounds._alzer_sum
        monkeypatch.setattr(psibounds, "_alzer_sum",
                            lambda x, s, n: original(x, s, n) * (1 + F(1, 1000)))
        alzer_bracket_rf.cache_clear()
        try:
            assert alzer_violations(seeded_alzer_points())
        finally:
            monkeypatch.undo()
            alzer_bracket_rf.cache_clear()

    def test_increasing_in_n(self):
        for x, s in ((F(1, 2), F(1, 5)), (F(3), F(4, 5)), (F(1, 10), F(1, 2))):
            values = [alzer_bracket_rf(n)(s, x) for n in range(8)]
            assert all(u < v for u, v in zip(values, values[1:]))
            assert values == [alzer_sum(x, s, n) for n in range(8)]

    def test_bracket_rational_fn_matches_sum(self):
        bracket = alzer_bracket_rf(3)
        for s, arg in ((F(1, 3), F(2, 7)), (F(2, 5), F(5, 3)), (F(9, 10), F(6))):
            assert bracket(s, arg) == alzer_sum(arg, s, 3)
