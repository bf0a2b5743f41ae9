"""Quadrature oracles: the node cache is bit-exact, and non-convergence raises."""

from fractions import Fraction as F

import pytest

from betabound import quadrature
from betabound.quadrature import beta_integral, gamma_integral, tanh_sinh_unit
from betabound.specials import context, evaluate

POINTS = [
    (F(1, 250), F(1, 250)),
    (F(1, 250), 1),
    (1, F(1, 250)),
    (F(1, 3), F(3, 4)),
    (F(1, 2), F(1, 2)),
    (1, 1),
    (0.8374, 0.0421),
]


# The uncached node formulas, kept here as the reference the cache must match
# bit for bit.
def reference_unit(f, dps):
    def integral(work):
        pi_half = work.pi / 2

        def node(u):
            s = pi_half * work.sinh(u)
            e2s = work.exp(-2 * abs(s))
            t_small = e2s / (1 + e2s)
            t_big = 1 / (1 + e2s)
            t, tc = (t_small, t_big) if s < 0 else (t_big, t_small)
            weight = work.pi * work.cosh(u) * t * tc
            return weight * f(t, tc)

        return quadrature._de_sum(work, node, dps, 10, 12)

    return evaluate(integral, dps)


def reference_beta(x, y, dps):
    return evaluate(
        lambda work, x, y: reference_unit(lambda t, tc: t ** (x - 1) * tc ** (y - 1), dps),
        dps, x, y)


def reference_gamma(x, dps):
    def integral(work, x):
        def node(u):
            log_t = u - work.exp(-u)
            t = work.exp(log_t)
            jac = t * (1 + work.exp(-u))
            return work.exp(-t + (x - 1) * log_t) * jac

        return quadrature._de_sum(work, node, dps, 12, 12)

    return evaluate(integral, dps, x)


@pytest.fixture(scope="module")
def references():
    return {(x, y, dps): (reference_beta(x, y, dps), reference_gamma(x, dps))
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


@pytest.mark.parametrize("dps", [30, 50])
def test_cache_does_not_depend_on_the_integrand(dps):
    x, y = F(2, 7), F(5, 9)
    half = context(dps).mpf(1) / 2
    linear = reference_unit(lambda t, tc: t, dps)
    beta_ref = reference_beta(x, y, dps)
    quadrature._unit_node.cache_clear()
    assert beta_integral(x, y, dps) == beta_ref
    assert tanh_sinh_unit(lambda t, tc: t, dps) == linear
    assert abs(linear - half) < context(dps).mpf(10) ** -(dps - 2)
    quadrature._unit_node.cache_clear()
    assert tanh_sinh_unit(lambda t, tc: t, dps) == linear
    assert beta_integral(x, y, dps) == beta_ref


def test_mirrored_nodes_pick_the_complement():
    # t = (1 + tanh(pi/2 sinh u)) / 2 rises with u: after the node at u = 0
    # the nodes come in pairs u, -u, and each pair shares one cache entry
    seen = []
    tanh_sinh_unit(lambda t, tc: seen.append((t, tc)) or t, 30)
    assert seen[0][0] == seen[0][1]
    for (t, tc), (t_mirror, tc_mirror) in zip(seen[1::2], seen[2::2]):
        assert t > tc and (t_mirror, tc_mirror) == (tc, t)
    assert all(abs(t + tc - 1) < context(45).mpf(10) ** -40 for t, tc in seen)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_too_few_levels_is_inconclusive(levels):
    with pytest.raises(ValueError, match=f"inconclusive: .* in {levels} levels"):
        gamma_integral(F(1, 2), 30, max_level=levels)
    with pytest.raises(ValueError, match="inconclusive"):
        tanh_sinh_unit(lambda t, tc: 1 / (2 * t ** F(1, 2)), 30, max_level=levels)


def test_default_levels_converge():
    ctx = context(30)
    assert abs(gamma_integral(F(1, 2), 30) - ctx.sqrt(ctx.pi)) < ctx.mpf(10) ** -28
