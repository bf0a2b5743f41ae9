"""Double-exponential quadrature oracles for the defining integrals.

These integrators exist to cross-check the series-based special functions
through a completely different route: direct numerical integration of the
Euler integrals.  The tanh-sinh substitution turns algebraic endpoint
singularities like t^(x-1) (1-t)^(y-1) into double-exponentially decaying
tails, so plain trapezoid sums converge geometrically in the level count.

Integrands on (0, 1) receive both ``t`` and ``1 - t`` as separately
computed, cancellation-free node coordinates.
"""

from __future__ import annotations

from typing import Callable

from .specials import DEFAULT_DPS, evaluate


def _de_sum(work, node: Callable, dps: int, u_max: float, max_level: int) -> object:
    """Halving trapezoid sums of node(u) + node(-u) over the real line.

    Each row adds the odd multiples of the new step; a row stops once its
    terms fall below 10^-(dps+5) relative to its running total, or once u
    passes `u_max`, beyond which the transformed integrand is negligible.
    Levels stop when two successive estimates agree to the same target.
    `node` computes in `work`, the working context of a `dps`-digit result.
    """
    target = work.mpf(10) ** (-(dps + 5))

    def row(h, only_odd: bool) -> object:
        total = work.mpf(0)
        k = 1 if only_odd else 0
        step = 2 if only_odd else 1
        while True:
            u = k * h
            term = node(u) + (node(-u) if k else 0)
            total += term
            if k > 0 and abs(term) < target * max(1, abs(total)):
                break
            if u > u_max:
                break
            k += step
        return total

    h = work.mpf(1)
    total = row(h, only_odd=False)
    estimate = h * total
    for _ in range(max_level):
        h /= 2
        total += row(h, only_odd=True)
        new = h * total
        if abs(new - estimate) < target * max(1, abs(new)):
            estimate = new
            break
        estimate = new
    return estimate


def tanh_sinh_unit(f: Callable, dps: int = DEFAULT_DPS, max_level: int = 12) -> object:
    """Integrate f(t, 1-t) over (0, 1) with tanh-sinh node placement.

    `f` must accept the node and its complement: near t = 1 the complement
    carries the precision that 1 - t would destroy.
    """

    def integral(work):
        pi_half = work.pi / 2

        def node(u):
            s = pi_half * work.sinh(u)
            e2s = work.exp(-2 * abs(s))
            t_small = e2s / (1 + e2s)          # min(t, 1-t), stable for large |s|
            t_big = 1 / (1 + e2s)
            t, tc = (t_small, t_big) if s < 0 else (t_big, t_small)
            weight = work.pi * work.cosh(u) * t * tc
            return weight * f(t, tc)

        # beyond u = 10 tanh is saturated far beyond working precision
        return _de_sum(work, node, dps, 10, max_level)

    return evaluate(integral, dps)


def beta_integral(x, y, dps: int = DEFAULT_DPS) -> object:
    """Quadrature value of the Euler integral of the first kind.

    Direct evaluation of int_0^1 t^(x-1) (1-t)^(y-1) dt; independent of the
    gamma-series route.
    """

    def integral(work, x, y):
        if not (x > 0 and y > 0):
            raise ValueError("domain error: beta_integral requires positive arguments")
        return tanh_sinh_unit(lambda t, tc: t ** (x - 1) * tc ** (y - 1), dps)

    return evaluate(integral, dps, x, y)


def gamma_integral(x, dps: int = DEFAULT_DPS, max_level: int = 12) -> object:
    """Quadrature value of the Euler integral of the second kind.

    Uses the substitution t = exp(u - exp(-u)) mapping the whole real line
    onto (0, oo) with double-exponential decay of the transformed integrand
    in both directions; int_0^infty t^(x-1) e^(-t) dt follows from a plain
    trapezoid sum in u.
    """

    def integral(work, x):
        if not x > 0:
            raise ValueError("domain error: gamma_integral requires x > 0")

        def node(u):
            log_t = u - work.exp(-u)            # log of the substituted variable
            t = work.exp(log_t)
            jac = t * (1 + work.exp(-u))
            return work.exp(-t + (x - 1) * log_t) * jac

        return _de_sum(work, node, dps, 12, max_level)

    return evaluate(integral, dps, x)
