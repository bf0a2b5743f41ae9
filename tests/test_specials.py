"""Special-function accuracy: classical values, recurrences, oracles."""

import random
from fractions import Fraction as F

import mpmath
import pytest

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

    def test_beta_domain(self):
        with pytest.raises(ValueError, match="domain error"):
            beta(0, 1)


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

    def test_maximizer_location_exposed(self):
        result = locate_delta_max()
        assert 2.3 < result.x < 2.34
        assert close(delta(result.x), result.value, "1e-22")
