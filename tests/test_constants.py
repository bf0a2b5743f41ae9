"""Named constants against their reference digits and defining equations."""

from fractions import Fraction

import mpmath
import pytest

from betabound.constants import (
    REFERENCE_DIGITS,
    a1,
    a2,
    agrees_with_printed,
    alpha,
    compute_constants,
    full_sandwich,
    solve_a3,
)
from betabound.psibounds import lxx_general
from betabound.specials import context, psi2, to_mpf

HP = context(60)
mpmath.mp.dps = 60


def test_alpha_closed_form():
    value = alpha()
    assert agrees_with_printed(value, "2.57973")
    assert abs(value - (2 * mpmath.mp.pi**2 / 3 - 4)) < HP.mpf("1e-45")


def test_a1_closed_form():
    value = a1()
    assert agrees_with_printed(value, "0.79003")
    assert abs(value - (40 + 3 * mpmath.mp.sqrt(205)) / 105) < HP.mpf("1e-45")


def test_a2_closed_form():
    value = a2()
    assert agrees_with_printed(value, "0.47053")
    pi2 = mpmath.mp.pi**2
    expected = (45 - 4 * pi2 + 3 * mpmath.mp.sqrt(4 * pi2**2 - 80 * pi2 + 405)) / (
        30 * (pi2 - 9)
    )
    assert abs(value - expected) < HP.mpf("1e-45")


def test_a3_defining_equation():
    value = solve_a3()
    assert agrees_with_printed(value, "0.43218")
    residual = lxx_general(0, value) - psi2(1)
    assert abs(residual) < HP.mpf("1e-12")


def test_all_reference_digits():
    consts = compute_constants()
    assert agrees_with_printed(consts.alpha, REFERENCE_DIGITS["alpha"])
    assert agrees_with_printed(consts.a1, REFERENCE_DIGITS["a1"])
    assert agrees_with_printed(consts.a2, REFERENCE_DIGITS["a2"])
    assert agrees_with_printed(consts.a3, REFERENCE_DIGITS["a3"])
    assert agrees_with_printed(consts.alzer_max, REFERENCE_DIGITS["alzer_max"])
    assert consts.beta_const == 1


def test_printed_digit_rule():
    assert agrees_with_printed(HP.mpf("0.43218"), "0.43218")
    assert agrees_with_printed(HP.mpf("0.432189"), "0.43218")
    assert not agrees_with_printed(HP.mpf("0.43220001"), "0.43218")


def test_printed_digit_rule_is_exact():
    # one unit in the last place agrees; 1e-80 past it does not, at any
    # precision of the value; a non-finite value never agrees
    edge = Fraction("0.43219")
    assert agrees_with_printed(edge, "0.43218")
    for past in (edge + Fraction(1, 10**80), to_mpf(context(100), edge + Fraction(1, 10**80))):
        assert not agrees_with_printed(past, "0.43218")
    assert not agrees_with_printed(HP.inf, "0.43218")
    assert not agrees_with_printed(HP.nan, "0.43218")
    # an mpf's sign counts (man_exp alone drops it)
    assert not agrees_with_printed(-HP.mpf("0.43218"), "0.43218")
    assert agrees_with_printed(-HP.mpf("0.43218"), "-0.43218")


def test_full_sandwich_strictly_ordered():
    for x in ("0.25", "1", "10"):
        chain = full_sandwich(HP.mpf(x))
        first = [v for _, v in chain[:5]]
        second = [v for _, v in chain[5:]]
        assert all(u < v for u, v in zip(first, first[1:]))
        assert all(u < v for u, v in zip(second, second[1:]))


def test_full_sandwich_domain():
    for x in (Fraction(-1, 2), "-1e-40"):
        with pytest.raises(ValueError, match="domain error"):
            full_sandwich(x, 30)
    # x = 0 is inside: there L_xx(0, a3) = psi''(1) defines a3
    chain = dict(full_sandwich(0, 30))
    assert len(chain) == 10
    assert all(context(30).isfinite(v) for v in chain.values())


def test_constants_independent_of_request_order():
    # per-call precision, no ambient state: interleaved calls agree
    v50 = solve_a3(50)
    v35 = solve_a3(35)
    v50_again = solve_a3(50)
    assert v50 == v50_again
    assert abs(to_mpf(HP, v50) - to_mpf(HP, v35)) < HP.mpf("1e-14")
