"""Special-function accuracy: classical values, recurrences, oracles."""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from betabound import constants, proof, psibounds
from betabound.quadrature import beta_integral, gamma_integral, tanh_sinh_unit
from betabound.specials import (
    beta,
    context,
    delta,
    gamma,
    locate_delta_max,
    log_gamma,
    psi,
    psi1,
    psi2,
    to_mpf,
)

HP = context(60)
mpmath.mp.dps = 60


def close(a, b, tol="1e-25"):
    return abs(to_mpf(HP, a) - to_mpf(HP, b)) < HP.mpf(tol)


class TestClassicalValues:
    def test_log_gamma_at_one(self):
        assert close(log_gamma(1), 0, "1e-45")

    def test_log_gamma_at_half(self):
        assert close(log_gamma(F(1, 2)), mpmath.mp.log(mpmath.mp.sqrt(mpmath.mp.pi)))

    def test_beta_corner(self):
        assert close(beta(1, 1), 1, "1e-45")

    def test_beta_half_half_is_pi(self):
        assert close(beta(F(1, 2), F(1, 2)), mpmath.mp.pi)

    def test_psi_one_is_minus_euler(self):
        assert close(psi(1), -mpmath.mp.euler)

    def test_psi1_one(self):
        assert close(psi1(1), mpmath.mp.pi**2 / 6)

    def test_psi2_one(self):
        assert close(psi2(1), -2 * mpmath.mp.zeta(3))

    def test_gamma_integer_values(self):
        assert close(gamma(5), 24, "1e-40")

    def test_against_independent_library_route(self):
        # mpmath's own gamma machinery is never used by the package, so it
        # doubles as a second opinion
        for x in ("0.123", "0.7", "1.9", "7.77"):
            xm = mpmath.mp.mpf(x)
            assert close(log_gamma(x), mpmath.mp.loggamma(xm))
            assert close(psi(x), mpmath.mp.digamma(xm))
            assert close(psi1(x), mpmath.mp.polygamma(1, xm))
            assert close(psi2(x), mpmath.mp.polygamma(2, xm))


class TestDomainErrors:
    @pytest.mark.parametrize("fn", [log_gamma, gamma, psi, psi1, psi2, delta])
    def test_nonpositive_rejected(self, fn):
        with pytest.raises(ValueError, match="domain error"):
            fn(0)
        with pytest.raises(ValueError, match="domain error"):
            fn(-1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="domain error"):
                fn(bad)

    def test_beta_domain(self):
        with pytest.raises(ValueError, match="domain error"):
            beta(0, 1)
        with pytest.raises(ValueError, match="domain error"):
            beta(math.inf, 1)
        with pytest.raises(ValueError, match="domain error"):
            beta(1, math.nan)


X, Y = F(1, 3), F(3, 4)
# every public high-precision function, as the list of mpfs it returns
HIGH_PRECISION = {
    "log_gamma": lambda d: [log_gamma(X, d)],
    "gamma": lambda d: [gamma(X, d)],
    "beta": lambda d: [beta(X, Y, d)],
    "psi": lambda d: [psi(X, d)],
    "psi1": lambda d: [psi1(X, d)],
    "psi2": lambda d: [psi2(X, d)],
    "delta": lambda d: [delta(X, d)],
    "locate_delta_max": lambda d: list(locate_delta_max(d)),
    "tanh_sinh_unit": lambda d: [tanh_sinh_unit(lambda t, tc: t, d)],
    "beta_integral": lambda d: [beta_integral(X, Y, d)],
    "gamma_integral": lambda d: [gamma_integral(X, d)],
    "l_value": lambda d: [psibounds.l_value(X, Y, d)],
    "lx_general": lambda d: [psibounds.lx_general(X, Y, d)],
    "lxx_general": lambda d: [psibounds.lxx_general(X, Y, d)],
    "sandwich_margins": lambda d: list(psibounds.sandwich_margins(X, d).values()),
    "alzer_psi_diff_lower": lambda d: [psibounds.alzer_psi_diff_lower("0.3", Y, 3, d)],
    "alpha": lambda d: [constants.alpha(d)],
    "a1": lambda d: [constants.a1(d)],
    "a2": lambda d: [constants.a2(d)],
    "solve_a3": lambda d: [constants.solve_a3(d)],
    "full_sandwich": lambda d: [v for _, v in constants.full_sandwich(X, d)],
    "theorem_margin": lambda d: [proof.theorem_margin(X, Y, d)],
    "big_F": lambda d: [proof.big_F(X, Y, d)],
    "dF_dx": lambda d: [proof.dF_dx(X, Y, d)],
    "big_G": lambda d: [proof.big_G(X, Y, d)],
    "dG_dx": lambda d: [proof.dG_dx(X, Y, d)],
    "diag_gap": lambda d: [proof.diag_gap(X, d)],
    "edge_slope": lambda d: [proof.edge_slope(X, d)],
    "remark_sandwich": lambda d: [
        getattr(proof.remark_sandwich(X, Y, d), field)
        for field in ("x", "y", "beta", "new_bound", "ivady_bound")
    ],
}


@pytest.mark.parametrize("dps", [30, 50])
@pytest.mark.parametrize("name", sorted(HIGH_PRECISION))
def test_public_functions_round_to_the_requested_precision(name, dps):
    values = HIGH_PRECISION[name](dps)
    assert values and all(isinstance(v, context(dps).mpf) for v in values)


class TestQuadratureOracles:
    def test_unit_integral_linear(self):
        value = tanh_sinh_unit(lambda t, tc: t, dps=40)
        assert close(value, F(1, 2), "1e-38")

    def test_unit_integral_singular(self):
        # int_0^1 dt / (2 sqrt(t)) = 1
        value = tanh_sinh_unit(lambda t, tc: 1 / (2 * t ** F(1, 2)), dps=40)
        assert close(value, 1, "1e-35")

    def test_gamma_integral_factorial(self):
        assert close(gamma_integral(5, dps=40), 24, "1e-33")

    def test_log_gamma_matches_quadrature_to_25_digits(self):
        series_route = gamma(F(23, 10), dps=45)
        integral_route = gamma_integral(F(23, 10), dps=45)
        assert close(series_route, integral_route, "1e-25")

    def test_beta_matches_quadrature_to_25_digits(self):
        series_route = beta(F(3, 10), F(2, 5), dps=45)
        integral_route = beta_integral(F(3, 10), F(2, 5), dps=45)
        assert close(series_route, integral_route, "1e-25")


class TestRecurrences:
    def test_psi_recurrence_bulk(self):
        # psi(x+1) = psi(x) + 1/x on 10^4 random points in (0.1, 5)
        rng = random.Random(2024)
        for _ in range(10**4):
            x = HP.mpf(rng.uniform(0.1, 5.0))
            assert abs(psi(x + 1) - psi(x) - 1 / x) < HP.mpf("1e-25")

    def test_beta_symmetry(self):
        rng = random.Random(7)
        for _ in range(200):
            x = HP.mpf(rng.uniform(0.05, 1.0))
            y = HP.mpf(rng.uniform(0.05, 1.0))
            assert abs(beta(x, y) - beta(y, x)) < HP.mpf("1e-25") * beta(x, y)

    def test_beta_recurrence(self):
        # B(x+1, y) = B(x, y) * x / (x + y)
        rng = random.Random(8)
        for _ in range(200):
            x = HP.mpf(rng.uniform(0.05, 1.0))
            y = HP.mpf(rng.uniform(0.05, 1.0))
            lhs = beta(x + 1, y)
            rhs = beta(x, y) * x / (x + y)
            assert abs(lhs - rhs) < HP.mpf("1e-25") * max(1, abs(rhs))

    def test_polygamma_signs_on_domain(self):
        # complete monotonicity: psi' > 0 and psi'' < 0 on (0, 10]
        for k in range(1, 1001):
            x = HP.mpf(k) / 100
            assert psi1(x) > 0
            assert psi2(x) < 0

    def test_psi_finite_difference(self):
        # (psi(x+h) - psi(x-h)) / 2h = psi'(x) + O(h^2)
        h = HP.mpf("1e-6")
        for x in ("0.5", "1.3", "4.2"):
            xm = HP.mpf(x)
            fd = (psi(xm + h) - psi(xm - h)) / (2 * h)
            err = abs(fd - psi1(xm))
            # the h^2 term involves psi'''/6 = O(10) on this range
            assert err < HP.mpf("1e-10")
            assert err > HP.mpf("1e-16")  # genuinely O(h^2), not exact


class TestDelta:
    def test_delta_at_one_vanishes(self):
        assert close(delta(1), 0, "1e-40")

    def test_delta_at_two(self):
        assert close(delta(2), F(1, 12), "1e-40")

    def test_maximum_printed_digits(self):
        value = locate_delta_max().value
        assert abs(value - HP.mpf("0.08731986118214561")) < HP.mpf("1e-14")

    @pytest.mark.parametrize("dps", [50, 100])
    def test_default_tolerance_follows_precision(self, dps):
        # a fixed 1e-22 leaves the value wrong from about the 47th digit;
        # the reference runs 30 digits more and searches to 10^-((dps + 45) // 2)
        result = locate_delta_max(dps)
        reference = locate_delta_max(dps + 30)
        assert abs(result.value - reference.value) < psibounds.error_budget(dps)
        assert abs(result.value - reference.value) < HP.mpf(10) ** -dps
        assert abs(result.x - reference.x) < HP.mpf(10) ** -(dps // 2)

    def test_maximizer_location_exposed(self):
        result = locate_delta_max()
        assert 2.3 < result.x < 2.34
        assert close(delta(result.x), result.value, "1e-22")
