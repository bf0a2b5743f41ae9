"""Special-function accuracy: classical values, recurrences, oracles."""

import decimal
import math
import random
import time
from fractions import Fraction as F

import mpmath
import pytest
from mpmath.libmp import dps_to_prec

from betabound import constants, proof, psibounds, specials
from betabound.quadrature import beta_integral, gamma_integral, tanh_sinh_unit
from betabound.specials import (
    beta,
    context,
    delta,
    exact,
    gamma,
    locate_delta_max,
    log_gamma,
    psi,
    psi1,
    psi2,
    to_mpf,
    work_context,
)

HP = context(60)
mpmath.mp.dps = 60


def close(a, b, tol="1e-25"):
    return abs(to_mpf(HP, a) - to_mpf(HP, b)) < HP.mpf(tol)


def interval(lo, hi=None, scale=1000):
    """The Interval at `scale` that holds the rationals [lo, hi] (hi = lo if
    omitted), each end rounded outward."""
    hi = lo if hi is None else hi
    return specials.Interval(math.floor(lo * 2**scale), math.ceil(hi * 2**scale), scale)


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
    "tanh_sinh_unit": lambda d: [tanh_sinh_unit(lambda t, tc: 2 * t[0] + tc[0], d)],
    "beta_integral": lambda d: [beta_integral(X, Y, d)],
    "gamma_integral": lambda d: [gamma_integral(X, d)],
    "lx_general": lambda d: [psibounds.lx_general(X, Y, d)],
    "lxx_general": lambda d: [psibounds.lxx_general(X, Y, d)],
    "sandwich_margins": lambda d: list(psibounds.sandwich_margins(X, d).values()),
    "alpha": lambda d: [constants.alpha(d)],
    "a1": lambda d: [constants.a1(d)],
    "a2": lambda d: [constants.a2(d)],
    "solve_a3": lambda d: [constants.solve_a3(d)],
    "full_sandwich": lambda d: [v for _, v in constants.full_sandwich(X, d)],
    "theorem_margin": lambda d: [proof.theorem_margin(X, Y, d)],
    "big_F": lambda d: [proof.big_F(X, Y, d)],
    "big_G": lambda d: [proof.big_G(X, Y, d)],
}


@pytest.mark.parametrize("dps", [30, 50])
@pytest.mark.parametrize("name", sorted(HIGH_PRECISION))
def test_public_functions_round_to_the_requested_precision(name, dps):
    values = HIGH_PRECISION[name](dps)
    assert values and all(isinstance(v, context(dps).mpf) for v in values)


def test_rational_context_is_no_coarser_than_the_working_context():
    # evaluate_rational rounds each operation half even to prec digits, a
    # relative error of at most 10^(1 - prec)/2
    for dps in range(30, 301):
        ctx = specials.rational_context(dps)
        assert ctx.rounding == decimal.ROUND_HALF_EVEN
        assert F(10) ** (1 - ctx.prec) / 2 <= F(1, 2**work_context(dps).prec)


class TestQuadratureOracles:
    def test_unit_integral_linear(self):
        # f returns log(t t (1-t)), the integrand t times the weight t (1-t),
        # as an integer scaled by 2^W
        value = tanh_sinh_unit(lambda t, tc: 2 * t[0] + tc[0], dps=40)
        assert close(value, F(1, 2), "1e-38")

    def test_unit_integral_singular(self):
        # int_0^1 dt / sqrt(t) = 2
        value = tanh_sinh_unit(lambda t, tc: (t[0] >> 1) + tc[0], dps=40)
        assert close(value, 2, "1e-35")

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


class TestStirlingKernel:
    @pytest.mark.parametrize("order", [-1, 0, 1, 2])
    def test_coefficients_equal_the_per_order_tables(self, order):
        # the tables of log Gamma, psi, psi' and psi'', which the series adds,
        # subtracts, adds and subtracts
        bern = specials.bernoulli_even(specials.STIRLING_TERMS)
        tables = {
            -1: [b / (2 * k * (2 * k - 1)) for k, b in enumerate(bern, 1)],
            0: [-b / (2 * k) for k, b in enumerate(bern, 1)],
            1: list(bern),
            2: [-(2 * k + 1) * b for k, b in enumerate(bern, 1)],
        }
        coeffs = [specials._stirling_coeff(order, k)
                  for k in range(1, specials.STIRLING_TERMS + 1)]
        assert coeffs == tables[order]

    @pytest.mark.parametrize("dps", [30, 50, 100])
    @pytest.mark.parametrize(
        "x",
        ["1e-6", "39.5", "40", "40.5", F(1, 5), F(9, 25), F(34, 25), F(1, 3), "1e-30"],
    )
    def test_each_order_matches_mpmath(self, x, dps):
        # 39.5 is shifted once, 40 and 40.5 not at all, 1e-6 forty times; the
        # Fractions carry a full mantissa into the fixed-point shift
        budget = to_mpf(HP, psibounds.error_budget(dps))
        with mpmath.workdps(dps + 30):
            if isinstance(x, F):
                xm = mpmath.mpf(x.numerator) / x.denominator
            else:
                xm = mpmath.mpf(x)
            references = [mpmath.loggamma(xm), mpmath.digamma(xm),
                          mpmath.psi(1, xm), mpmath.psi(2, xm)]
        for fn, reference in zip((log_gamma, psi, psi1, psi2), references):
            error = abs(to_mpf(HP, fn(x, dps)) - reference)
            assert error <= budget * max(1, abs(reference)), fn.__name__

    @pytest.mark.parametrize("dps", [30, 50])
    @pytest.mark.parametrize(
        "x", [F(1, 3), F(9, 25), F(34, 25), F(79, 2), F(1, 10**30), F(123, 2)]
    )
    @pytest.mark.parametrize("order", [-1, 0, 1, 2])
    def test_fixed_point_part_within_its_bound(self, order, x, dps):
        # the integer series at z, x shifted exactly past STIRLING_SHIFT, redone
        # in Fractions; psi' and psi'' sum z^order psi^(order), whose terms are
        # c_k z^-2k; the bound is _stirling_formula's docstring's
        bits = specials._bits(dps)
        z = x + max(0, math.ceil(specials.STIRLING_SHIFT - x))
        inv = (z.denominator << bits) // z.numerator
        j = 2 + min(order, 0)
        fixed = specials._fixed_series(inv, bits, order) * inv**j >> j * bits
        series = sum(specials._stirling_coeff(order, k) / z ** (2 * k + j - 2)
                     for k in range(1, specials.STIRLING_TERMS + 1))
        assert abs(fixed - series * 2**bits) < 2

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_guard_bits_keep_the_working_precision(self, order):
        # at 30 digits the series cap sits far below a unit of the working
        # precision, so what is left is the midpoint's rounding and the radii
        # of the enclosure; without GUARD_BITS, psi'' loses thousands of units
        ctx = work_context(30)
        rng = random.Random(3)
        xs = [F(rng.randrange(1, 10**30), 10**30) for _ in range(10)]
        xs += [F(rng.randrange(10**29, 4 * 10**31), 10**30) for _ in range(10)]
        for x in xs + [F(1, 3), F(79, 2), F(1, 10**6), F(10**40, 3)]:
            x = to_mpf(ctx, x)
            value = specials._value(ctx, x, order)
            with mpmath.workdps(120):
                exact = mpmath.psi(order, mpmath.mpf(x._mpf_))
                scale = abs(exact) if order else max(1, abs(exact))
                units = abs(mpmath.mpf(value._mpf_) - exact) / scale * 2**ctx.prec
            assert units < 8, (x, units)

    @pytest.mark.parametrize("x", ["1e-300", "1e300", "1e100000", "1e-100000"])
    @pytest.mark.parametrize("order", [-1, 0, 1, 2])
    def test_extreme_arguments_are_finite_and_fast(self, order, x):
        # nothing may scale with the exponent of x: an argument with a long
        # denominator is rounded after one exact step, and a large one keeps
        # its integers near the working bits
        fn = (log_gamma, psi, psi1, psi2)[order + 1]
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            value = fn(x, 50)
            seconds.append(time.perf_counter() - start)
        assert context(50).isfinite(value) and value != 0
        assert min(seconds) < 0.005


class TestBernoulli:
    @staticmethod
    def recurrence(count):
        # the classical recurrence sum_{j <= m} C(m+1, j) B_j = 0, in Fractions
        b = [F(1)] + [F(0)] * (2 * count)
        for m in range(1, 2 * count + 1):
            b[m] = -sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1)
        return tuple(b[2 * k] for k in range(1, count + 1))

    @pytest.mark.parametrize("count", range(1, 31))
    def test_tangent_numbers_match_the_recurrence(self, count):
        assert specials.bernoulli_even(count) == self.recurrence(count)

    def test_first_values(self):
        assert specials.bernoulli_even(6) == (
            F(1, 6), F(-1, 30), F(1, 42), F(-1, 30), F(5, 66), F(-691, 2730)
        )


def exact(value) -> F:
    """A finite mpf as the Fraction (-1)^sign man 2^exp it is."""
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * man * F(2) ** exp


# the arguments of the replay's eleven values: log Gamma at x + 1, y + 1 and
# x + y + 1 of the eight F points, ln of their log arguments, psi at 1, 6/5
# and 34/25, psi' at 6/5
REPLAY_ARGUMENTS = [
    F(11, 10), F(6, 5), F(3, 2), F(2), F(3), F(23, 10), F(18, 5), F(101, 100),
    F(199, 100), F(21, 20), F(39, 20), F(119, 100), F(181, 100), F(1),
    F(34, 25), F(59, 60), F(3, 4), F(1, 3), F(11, 180), F(9901, 10000),
]


def seeded_rationals(seed: int, count: int = 120) -> list[F]:
    """Positive rationals below 1, on either side of STIRLING_SHIFT and far above."""
    rng = random.Random(seed)
    shift = specials.STIRLING_SHIFT
    kinds = [
        lambda: F(rng.randrange(1, 10**6), rng.randrange(10**6, 10**9)),
        lambda: F(rng.randrange(1, 999), rng.randrange(1, 999)),
        lambda: shift - F(1, rng.randrange(2, 10**12)),
        lambda: shift + F(rng.randrange(0, 10**6), rng.randrange(10**6, 10**8)),
        lambda: F(rng.randrange(10**3, 10**9), rng.randrange(1, 10**3)),
    ]
    return [kinds[k % len(kinds)]() for k in range(count)]


class TestIntegerEnclosures:
    @pytest.mark.parametrize("dps", [30, 50, 100])
    def test_enclosures_hold_mpmath_values(self, dps):
        # ln, log Gamma, psi, psi' and psi'' at 120 seeded rationals and at
        # the replay's arguments, each holding mpmath's value at dps + 40 digits
        cases = []
        for x in seeded_rationals(dps) + REPLAY_ARGUMENTS:
            cases += [(specials.ln_enclosure, (x, dps), mpmath.log)]
            cases += [(specials.stirling_enclosure, (x, order, dps), ref)
                      for order, ref in ((-1, mpmath.loggamma), (0, mpmath.digamma),
                                         (1, lambda t: mpmath.psi(1, t)),
                                         (2, lambda t: mpmath.psi(2, t)))]
        assert len(cases) >= 5 * 100
        with mpmath.workdps(dps + 40):
            for fn, args, ref in cases:
                x = args[0]
                reference = exact(ref(mpmath.mpf(x.numerator) / x.denominator))
                lo, hi = fn(*args).ends
                assert lo <= reference <= hi, (fn.__name__, args)
                # the series cap near 1e-53 widens them, not the requested digits
                width = (hi - lo) / max(1, abs(reference))
                assert width < F(1, 10 ** (44 if dps == 30 else 51))

    @pytest.mark.parametrize("dps", [30, 50, 100])
    def test_half_log_2pi(self, dps):
        bits = specials._bits(dps)
        lo, hi = specials._half_log_2pi_fixed(bits)
        with mpmath.workdps(dps + 40):
            reference = exact(mpmath.log(2 * mpmath.pi) / 2)
        assert F(lo, 2**bits) <= reference <= F(hi, 2**bits)

    def test_working_bits_match_the_mpf_path(self):
        # _bits writes out mpmath's dps_to_prec, so as not to import mpmath
        for dps in range(1, 2001):
            assert specials._bits(dps) == (dps_to_prec(dps + specials.GUARD_DIGITS)
                                           + specials.GUARD_BITS)
        for dps in (30, 50, 100):
            assert specials._bits(dps) == work_context(dps).prec + specials.GUARD_BITS

    @pytest.mark.parametrize("dps", [30, 50, 100])
    def test_exp_enclosure_holds_mpmath_values(self, dps):
        # 300 seeded intervals in [-200, 200] and [0, 0]: points, points within
        # 1e-30 of 0 and wide intervals; each end holds mpmath's exp at dps + 40
        rng = random.Random(dps)
        point = lambda: F(rng.randrange(-200 * 10**9, 200 * 10**9 + 1), 10**9)
        tiny = lambda: F(rng.randrange(-10**9, 10**9), 10**39)
        kinds = [lambda: (tiny(),), lambda: (point(),), lambda: (point(), point())]
        cases = [specials.Interval(0, 0)]
        for k in range(300):
            ends = kinds[k % 3]()
            cases.append(interval(min(ends), max(ends)))
        with mpmath.workdps(dps + 40):
            for v in cases:
                lo, hi = (exact(mpmath.exp(mpmath.mpf(r.numerator) / r.denominator))
                          for r in v.ends)
                enc_lo, enc_hi = specials.exp_enclosure(v, dps).ends
                assert enc_lo <= lo and hi <= enc_hi, v
                # each end within 1e-(dps + 10) of exp there, relative
                pad = F(1, 10 ** (dps + 10))
                assert enc_lo >= lo * (1 - pad) and enc_hi <= hi * (1 + pad), v

    @pytest.mark.parametrize("call", [
        lambda: specials.ln_enclosure(0),
        lambda: specials.ln_enclosure(F(-1, 3)),
        lambda: specials.stirling_enclosure(0, -1),
        lambda: specials.stirling_enclosure(F(-1, 2), 0),
    ])
    def test_domain_errors(self, call):
        with pytest.raises(ValueError, match="domain error"):
            call()

    @pytest.mark.parametrize("scale", [0, 170, 452])
    def test_interval_rounds_a_rational_term_outward_by_under_one_unit(self, scale):
        unit = F(1, 2**scale)
        for base in (specials.Interval(0, 0, scale), specials.Interval(-5, 9, scale)):
            lo, hi = base.ends
            for r in (F(1, 3), F(-1, 7), F(1, 10**40), F(10**30, 7), 3, -2):
                for total, exact_ends in ((base + r, (lo + r, hi + r)),
                                          (base - r, (lo - r, hi - r))):
                    (a, b), (e, f) = total.ends, exact_ends
                    assert total.scale == scale
                    assert e - unit < a <= e and f <= b < f + unit, (base, r)
                    if isinstance(r, int):   # exact at any scale
                        assert (a, b) == (e, f)

    def test_intervals_at_different_scales_add_exactly(self):
        coarse, fine = specials.Interval(7, 11, 3), specials.Interval(-1, 2, 170)
        for total in (coarse + fine, fine + coarse):
            assert total.scale == 170
            assert total.ends == (F(7, 8) - F(1, 2**170), F(11, 8) + F(2, 2**170))
        assert (coarse - fine).ends == (F(7, 8) - F(2, 2**170), F(11, 8) + F(1, 2**170))
        assert (-fine).ends == (F(-2, 2**170), F(1, 2**170))
        assert (coarse + fine).mid == F(9, 8) + F(1, 2**171)
        # psi' at x >= 64 is scaled finer than at x < 64; their sum is exact
        far, near = (specials.stirling_enclosure(x, 1, 30) for x in (100, F(1, 3)))
        assert far.scale > near.scale
        assert (far + near).ends == tuple(u + v for u, v in zip(far.ends, near.ends))

    def test_rounded_prints_the_digits_both_ends_share(self):
        fifth, eps = F(1, 5), F(1, 10**60)
        assert interval(fifth - eps, fifth + eps).rounded(50) == "0.2"
        third = interval(F(1, 3), F(1, 3) + F(1, 10**12))
        assert third.rounded(50) == "0.33333333333"
        assert (-third).rounded(5) == "-0.33333"
        assert specials.Interval(1, 2).rounded(5) == "[1.0000, 2.0000]"

    def test_digits_round_outward(self):
        third = interval(F(1, 3), F(2, 3))
        assert third.digits(3) == "[0.333, 0.667]"
        assert (-third).digits(2) == "[-0.67, -0.33]"
        assert interval(F(0), F(12345, 100)).digits(3) == "[0, 124]"
        # ends on a digit stay; -10/2^20 and 3/2^20 are -9.54e-6 and 2.86e-6
        assert specials.Interval(-1, 1, 2).digits(2) == "[-0.25, 0.25]"
        assert specials.Interval(-10, 3, 20).digits(2) == "[-0.0000096, 0.0000029]"

    def test_rounded_mpf_rounds_to_nearest_even(self):
        # against mpmath's correctly rounded quotient, with exact ties and
        # near-ties at each precision, negatives and zero
        from mpmath.libmp import from_rational

        rng = random.Random(11)
        for dps in (15, 45, 115):
            ctx = context(dps)
            cases = [(0, 1), (1, 3), (-2, 3), (10**300, 7), (-1, 10**300)]
            for _ in range(2000):
                m, e = rng.getrandbits(ctx.prec + 1) | 1 << ctx.prec, rng.randrange(-400, 400)
                p, q = (m << e, 1) if e >= 0 else (m, 1 << -e)
                cases.append(((p + rng.choice((-1, 0, 1))) * rng.choice((1, -1)), q))
                cases.append((rng.getrandbits(rng.randrange(1, 900)), rng.getrandbits(600) | 1))
            for p, q in cases:
                assert specials._rounded_mpf(ctx, p, q)._mpf_ == from_rational(p, q, ctx.prec, "n")


def _unreduced_ln(num, den, bits):
    """The ln kernel without the c_j table: atanh at |t| <= 1/5 (width reference)."""
    k = num.bit_length() - den.bit_length()
    n, d = (num, den << k) if k >= 0 else (num << -k, den)
    if 3 * n > 4 * d:
        d, k = d << 1, k + 1
    elif 3 * n < 2 * d:
        n, k = n << 1, k - 1
    lo, hi = specials._atanh(abs(n - d), n + d, bits)
    lo, hi = (-hi, -lo) if n < d else (lo, hi)
    l2 = sorted(k * v for v in specials._ln2(bits))
    return 2 * lo + l2[0], 2 * hi + l2[1]


def _unhalved_exp(T, bits, up):
    """The exp kernel without the halving: the series at t itself (width reference)."""
    last, s, P, j = int(up), 1 << bits, 1 << bits, 0
    while P > last:
        j += 1
        P = -(-P * T // (j << bits)) if up else P * T // (j << bits)
        s += P
    return s + last


def _width(v):
    lo, hi = v.ends
    return hi - lo


class TestReducedKernels:
    """``_ln`` and ``_exp`` after argument reduction, against mpmath at dps +
    40 digits and against the width of the unreduced kernels."""

    LN_ARGUMENTS = (
        [1 + (j + h) / F(32) for j in range(-11, 12) for h in (F(-1, 2), F(1, 2))]
        + [F(2) ** e * (1 + (j + F(1, 2)) / F(32)) for j in (-11, 0, 10) for e in (-60, 3, 200)]
        + [F(2, 3) + d for d in (0, F(1, 10**40), -F(1, 10**40))]
        + [F(4, 3) + d for d in (0, F(1, 10**40), -F(1, 10**40))]
        + [F(1, 10**300), F(10**300), F(10**300 + 1, 10**300), F(3, 7) ** 40]
    )

    @staticmethod
    def exp_intervals():
        ln2 = mpmath.log(2)
        near_ln2 = [exact(k * ln2) + d for k in (-40, -3, -1, 1, 2, 5, 40)
                    for d in (0, F(1, 10**35), -F(1, 10**35))]
        ends = near_ln2 + [F(0), F(1, 10**40), -F(1, 10**40), F(-7, 10**9),
                           F(-700), F(-50, 3), F(700), F(1234, 5), F(10**4) + F(1, 3)]
        return [interval(r) for r in ends] + [
            interval(-F(1, 10**30), F(1, 10**30)), interval(F(-700), F(700))]

    @pytest.mark.parametrize("dps", [30, 50, 100, 200])
    def test_ln_enclosure_holds_mpmath_and_stays_narrow(self, dps, monkeypatch):
        assert len(self.LN_ARGUMENTS) >= 60
        enclosures = [specials.ln_enclosure(r, dps) for r in self.LN_ARGUMENTS]
        monkeypatch.setattr(specials, "_ln", _unreduced_ln)
        unreduced = [specials.ln_enclosure(r, dps) for r in self.LN_ARGUMENTS]
        for r, enc, old in zip(self.LN_ARGUMENTS, enclosures, unreduced):
            # digits enough to hold r exactly, and dps + 40 more
            with mpmath.workdps(dps + 40 + (r.numerator * r.denominator).bit_length() // 3):
                reference = exact(mpmath.log(mpmath.mpf(r.numerator) / r.denominator))
            lo, hi = enc.ends
            assert lo <= reference <= hi, r
            assert _width(enc) <= 2 * _width(old), r

    @pytest.mark.parametrize("dps", [30, 50, 100, 200])
    def test_exp_enclosure_holds_mpmath_and_stays_narrow(self, dps, monkeypatch):
        with mpmath.workdps(dps + 40):
            intervals = self.exp_intervals()
            enclosures = [specials.exp_enclosure(v, dps) for v in intervals]
            monkeypatch.setattr(specials, "_exp", _unhalved_exp)
            unhalved = [specials.exp_enclosure(v, dps) for v in intervals]
            for v, enc, old in zip(intervals, enclosures, unhalved):
                lo, hi = (exact(mpmath.exp(mpmath.mpf(r.numerator) / r.denominator))
                          for r in v.ends)
                enc_lo, enc_hi = enc.ends
                assert enc_lo <= lo and hi <= enc_hi, v
                assert _width(enc) <= 2 * _width(old), v

    # the working bits of 30, 50, 100 and 200 digits, and quadrature's at 30 and 50
    EXP_BITS = ([(dps, specials._bits(dps)) for dps in (30, 50, 100, 200)]
                + [(dps, work_context(dps).prec + 7) for dps in (30, 50)])

    @pytest.mark.parametrize("dps, bits", EXP_BITS)
    def test_exp_scaled_stays_within_its_bound(self, dps, bits):
        # each end on its side of exp, by under the docstring's (3 + |k| (b - a))
        # exp(x) 2^-bits: at 0, within 1e-35 of k ln 2 for |k| <= 40, and at
        # seeded x in [-bits ln 2, 3] and in [0, ln 2), where k = 0
        rng = random.Random(bits)
        a, b = specials._ln2(bits)
        with mpmath.workdps(dps + 40):
            ln2 = exact(mpmath.log(2))
            xs = [F(0)] + [k * ln2 + d for k in range(-40, 41)
                           for d in (F(1, 10**35), -F(1, 10**35))]
            xs += [F(rng.uniform(-bits * 0.6931, 3)) for _ in range(100)]
            xs += [F(rng.uniform(0, 0.6931)) for _ in range(100)]
            for x in xs:
                X = math.floor(x * 2**bits)
                reference = exact(mpmath.exp(mpmath.ldexp(X, -bits)))
                for up in (False, True):
                    s, k = specials.exp_scaled(X, bits, up)
                    error = (F(s) * F(2) ** (k - bits) - reference) * (1 if up else -1)
                    assert 0 <= error < (3 + abs(k) * (b - a)) * reference / 2**bits, (x, up)

@pytest.fixture(scope="module")
def maximizer_reference():
    # the root of Delta' built from mpmath's own gamma and digamma
    with mpmath.workdps(120):
        r = lambda x: mpmath.gamma(x) ** 2 / mpmath.gamma(2 * x)
        u = lambda x: 2 * mpmath.digamma(x) - 2 * mpmath.digamma(2 * x)
        return mpmath.findroot(lambda x: -2 / x**3 - r(x) * u(x), mpmath.mpf("2.3"))


class TestDeltaMaximizer:
    @pytest.mark.parametrize("x", ["1.5", "2.3", "2.9"])
    def test_derivatives_match_central_differences(self, x):
        work = work_context(60)
        d1, d2 = specials._delta_derivatives(work, to_mpf(work, x))
        xm, h = HP.mpf(x), HP.mpf("1e-12")
        up, mid, down = delta(xm + h, 60), delta(xm, 60), delta(xm - h, 60)
        assert abs(d1 - (up - down) / (2 * h)) < HP.mpf("1e-20")
        assert abs(d2 - (up - 2 * mid + down) / h**2) < HP.mpf("1e-20")

    @pytest.mark.parametrize("dps", [30, 50])
    def test_location_to_working_precision(self, dps, maximizer_reference):
        x = locate_delta_max(dps).x
        with mpmath.workdps(120):
            error = abs(mpmath.mpf(x._mpf_) - maximizer_reference)
            assert error <= mpmath.mpf(10) ** (1 - dps) * maximizer_reference

    @pytest.mark.parametrize("dps", [30, 31, 100, 200])
    def test_newton_loop_ends(self, dps, maximizer_reference, monkeypatch):
        # a loop that kept stepping would fail here instead of hanging
        calls = []
        derivatives = specials._delta_derivatives

        def counted(ctx, x):
            calls.append(x)
            if len(calls) > 40:
                raise AssertionError("Newton loop did not stop")
            return derivatives(ctx, x)

        monkeypatch.setattr(specials, "_delta_derivatives", counted)
        x = locate_delta_max(dps).x
        assert 1 < len(calls) <= 40
        with mpmath.workdps(120):
            # the fixed series caps 100 and 200 digits near 1e-53
            tol = mpmath.mpf(10) ** (1 - min(dps, 51)) * maximizer_reference
            assert abs(mpmath.mpf(x._mpf_) - maximizer_reference) <= tol
