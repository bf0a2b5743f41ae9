"""Quadrature oracles: the node table is bit-exact, and non-convergence raises."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from betabound import quadrature, specials
from betabound.quadrature import beta_integral, gamma_integral, tanh_sinh_unit
from betabound.specials import context, exact, work_context

POINTS = [
    (F(1, 250), F(1, 250)),
    (F(1, 250), 1),
    (1, F(1, 250)),
    (F(1, 3), F(3, 4)),
    (F(1, 2), F(1, 2)),
    (1, 1),
    (0.8374, 0.0421),
]


def linear(t, tc):
    # log of t times the weight t (1-t), the integrand of int_0^1 t dt = 1/2
    return 2 * t[0] + tc[0]


def uncached(call, monkeypatch):
    """call() with every node computed afresh: no level is cached."""
    quadrature._unit_node.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(quadrature, "CACHED_LEVELS", -1)
        value = call()
    assert quadrature._unit_node.cache_info().currsize == 0
    return value


@pytest.fixture(scope="module")
def references():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {(x, y, dps): uncached(lambda: (beta_integral(x, y, dps),
                                               gamma_integral(x, dps)), monkeypatch)
                for x, y in POINTS for dps in (30, 50)}


@pytest.mark.parametrize("order", [(30, 50), (50, 30)])
def test_cached_nodes_give_the_uncached_values_exactly(order, references):
    quadrature._unit_node.cache_clear()
    for _ in ("cold", "warm"):
        for dps in order:
            for x, y in POINTS:
                assert beta_integral(x, y, dps) == references[x, y, dps][0]
                assert gamma_integral(x, dps) == references[x, y, dps][1]
    info = quadrature._unit_node.cache_info()
    assert info.hits > 0
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize
    work = work_context(order[0])
    for k, level in [(0, 0), (3, 0), (11, 0), (1, 5), (161, 5)]:
        assert quadrature._unit_node(work, k, level) == \
            quadrature._unit_node.__wrapped__(work, k, level)


@pytest.mark.parametrize("dps", [30, 50])
def test_cache_does_not_depend_on_the_integrand(dps, monkeypatch):
    x, y = F(2, 7), F(5, 9)
    half = context(dps).mpf(1) / 2
    linear_ref = uncached(lambda: tanh_sinh_unit(linear, dps), monkeypatch)
    beta_ref = uncached(lambda: beta_integral(x, y, dps), monkeypatch)
    quadrature._unit_node.cache_clear()
    assert beta_integral(x, y, dps) == beta_ref
    assert tanh_sinh_unit(linear, dps) == linear_ref
    assert abs(linear_ref - half) < context(dps).mpf(10) ** -(dps - 2)
    quadrature._unit_node.cache_clear()
    assert tanh_sinh_unit(linear, dps) == linear_ref
    assert beta_integral(x, y, dps) == beta_ref


def test_mirrored_nodes_pick_the_complement():
    # t = (1 + tanh(pi/2 sinh u)) / 2 rises with u: after the node at u = 0
    # the nodes come in pairs u, -u, and each pair shares one cache entry
    seen = []
    tanh_sinh_unit(lambda t, tc: seen.append((t, tc)) or linear(t, tc), 30)
    assert seen[0][0] == seen[0][1]
    for (t, tc), (t_mirror, tc_mirror) in zip(seen[1::2], seen[2::2]):
        assert t[0] > tc[0] and (t_mirror, tc_mirror) == (tc, t)
    # each pair is (log t, log(-log t)) of complementary coordinates, to a
    # unit of 2^-W each
    bits = work_context(30).prec + quadrature.GUARD_BITS
    unit = mpmath.ldexp(1, -bits)
    with mpmath.workprec(bits + 40):
        for t, tc in seen[::7]:
            (log_t, loglog_t), (log_tc, loglog_tc) = ((v * unit for v in side) for side in (t, tc))
            assert abs(mpmath.exp(log_t) + mpmath.exp(log_tc) - 1) < 4 * unit
            for log_v, loglog_v in ((log_t, loglog_t), (log_tc, loglog_tc)):
                assert abs(mpmath.exp(loglog_v) + log_v) < 2 * unit * (1 - log_v)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_too_few_levels_is_inconclusive(levels, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVEL", levels)
    with pytest.raises(ValueError, match=f"inconclusive: .* in {levels} levels"):
        gamma_integral(F(1, 2), 30)
    with pytest.raises(ValueError, match="inconclusive"):
        tanh_sinh_unit(lambda t, tc: (t[0] >> 1) + tc[0], 30)  # t^(-1/2)


def test_default_levels_converge():
    ctx = context(30)
    assert abs(gamma_integral(F(1, 2), 30) - ctx.sqrt(ctx.pi)) < ctx.mpf(10) ** -28


def test_a_near_axis_call_does_not_evict_the_bulk_nodes(monkeypatch):
    # only levels up to CACHED_LEVELS are stored; deeper ones are computed afresh
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 8)
    quadrature._unit_node.cache_clear()
    bulk = beta_integral(F(1, 3), F(3, 4), 50)
    with pytest.raises(ValueError, match="inconclusive"):
        beta_integral(F(1, 300), F(9, 10), 50)
    misses = quadrature._unit_node.cache_info().misses
    assert beta_integral(F(1, 3), F(3, 4), 50) == bulk
    assert quadrature._unit_node.cache_info().misses == misses


def seeded_points(count):
    rng = random.Random(2015)
    low = 1 / 250
    return [(low + (1 - low) * rng.random(), low + (1 - low) * rng.random())
            for _ in range(count)] + POINTS[:3]


@pytest.mark.parametrize("dps", [30, 50])
def test_oracles_match_mpmath(dps):
    with mpmath.workdps(dps + 30):
        for x, y in seeded_points(12):
            xm, ym = (mpmath.mpf(F(v).numerator) / F(v).denominator for v in (x, y))
            for value, reference in ((beta_integral(x, y, dps), mpmath.beta(xm, ym)),
                                     (gamma_integral(x, dps), mpmath.gamma(xm))):
                assert abs(mpmath.mpf(value) / reference - 1) < mpmath.mpf(10) ** -dps, (x, y)


@pytest.mark.parametrize("oracle", [lambda: beta_integral(F(2, 7), F(5, 9), 30),
                                    lambda: gamma_integral(F(2, 7), 30)],
                         ids=["beta_integral", "gamma_integral"])
def test_each_node_calls_the_integrand_once(oracle, monkeypatch):
    # the benchmark's node counter wraps tanh_sinh_unit's integrand this way
    original = quadrature.tanh_sinh_unit
    calls = 0

    def counting(f, *args, **kwargs):
        def integrand(t, tc):
            nonlocal calls
            calls += 1
            return f(t, tc)

        return original(integrand, *args, **kwargs)

    expected = oracle()
    quadrature._unit_node.cache_clear()
    monkeypatch.setattr(quadrature, "tanh_sinh_unit", counting)
    assert oracle() == expected
    info = quadrature._unit_node.cache_info()
    # u = 0 is one node; every other entry serves u and -u
    assert calls == 2 * (info.hits + info.misses) - 1 > 0


@pytest.mark.parametrize("dps", [30, 50])
def test_each_exponential_stays_within_the_error_bound(dps, monkeypatch):
    # every term of one beta_integral and one gamma_integral call, taken through
    # specials.exp_scaled, falls short of exp(exponent) 2^W by under 1 unit of
    # 2^-W (its floor) and 1/4 unit of its size (the module's "Error bound")
    calls = []

    def recording(X, bits, up=False):
        calls.append((X, bits, specials.exp_scaled(X, bits, up)))
        return calls[-1][2]

    monkeypatch.setattr(quadrature, "exp_scaled", recording)
    rng = random.Random(dps)
    x, y = (F(rng.randrange(10**6 // 250 + 1, 10**6 + 1), 10**6) for _ in range(2))
    beta_integral(x, y, dps)
    gamma_integral(x, dps)
    W = work_context(dps).prec + quadrature.GUARD_BITS
    assert len(calls) > 200
    with mpmath.workdps(dps + 40):
        for X, bits, (s, k) in calls:
            guard = bits - W
            exponent = X >> guard
            assert exponent << guard == X
            term = s >> guard - k if k < guard else s << k - guard
            size = exact(mpmath.exp(mpmath.ldexp(exponent, -W)))
            shortfall = size * 2**W - term
            assert 0 <= shortfall < 1 + size / 4, (exponent, bits)
