"""Double-exponential quadrature oracles for the defining integrals.

These integrators exist to cross-check the series-based special functions
through a completely different route: direct numerical integration of the
Euler integrals.  The tanh-sinh substitution turns algebraic endpoint
singularities like t^(x-1) (1-t)^(y-1) into double-exponentially decaying
tails, so plain trapezoid sums converge geometrically in the level count.

Integrands on (0, 1) receive both ``t`` and ``1 - t`` as separately
computed, cancellation-free node coordinates.

Node cache
----------
A tanh-sinh node's abscissae and weight do not depend on the integrand, so
``_unit_node(work, u)`` computes them once per working context and |u| and
keeps the last ``NODE_CACHE_SIZE`` in an ``lru_cache``.  The key is the
context, which ``specials.context`` hands out once per precision, and the
mpf |u|, which is immutable and hashes by value; the integrand is never
part of the key.  One entry serves u and -u: mpmath's sinh is odd and its
cosh even under round-to-nearest, so -u gives the same |s| and the same
cosh(u), and only which of the two abscissae is t swaps.  A hit therefore
returns the very values a recomputation would give, and the integral is
bit-identical to an uncached one.  ``gamma_integral`` computes its nodes
afresh on each call: only its final factor depends on x, but a second table
would cost as much memory again for a smaller share of the call.

Convergence
-----------
Each integral halves its step until two successive trapezoid estimates
agree to 10^-(dps+5).  If ``max_level`` halvings pass without agreement the
estimate is not trusted: ``ValueError("inconclusive: ...")`` is raised
instead of returning it.  On (1/250, 1]^2 ``beta_integral`` converges by
the fifth level at 30 and 50 digits; near the axes it does not.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .specials import DEFAULT_DPS, evaluate

# entries in the node cache; 1,200 beta_integral calls on (1/250, 1]^2 at 30
# and 50 digits reach 604 distinct (context, |u|) pairs
NODE_CACHE_SIZE = 1024


def _de_sum(work, node: Callable, dps: int, u_max: float, max_level: int) -> object:
    """Halving trapezoid sums of node(u) + node(-u) over the real line.

    Each row adds the odd multiples of the new step; a row stops once its
    terms fall below 10^-(dps+5) relative to its running total, or once u
    passes `u_max`, beyond which the transformed integrand is negligible.
    Levels stop when two successive estimates agree to the same target;
    if `max_level` levels pass without agreement, ValueError is raised.
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
            return new
        estimate = new
    raise ValueError(
        f"inconclusive: quadrature did not converge in {max_level} levels")


@lru_cache(maxsize=NODE_CACHE_SIZE)
def _unit_node(work, u):
    """(min(t, 1-t), max(t, 1-t), pi cosh(u)) of the tanh-sinh node at u >= 0."""
    s = work.pi / 2 * work.sinh(u)
    e2s = work.exp(-2 * s)
    t_small = e2s / (1 + e2s)              # stable for large s
    t_big = 1 / (1 + e2s)
    return t_small, t_big, work.pi * work.cosh(u)


def tanh_sinh_unit(f: Callable, dps: int = DEFAULT_DPS, max_level: int = 12) -> object:
    """Integrate f(t, 1-t) over (0, 1) with tanh-sinh node placement.

    `f` must accept the node and its complement: near t = 1 the complement
    carries the precision that 1 - t would destroy.
    """

    def integral(work):
        def node(u):
            t_small, t_big, pi_cosh = _unit_node(work, abs(u))
            t, tc = (t_small, t_big) if u < 0 else (t_big, t_small)
            return pi_cosh * t * tc * f(t, tc)

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
            exp_minus_u = work.exp(-u)
            log_t = u - exp_minus_u             # log of the substituted variable
            t = work.exp(log_t)
            jac = t * (1 + exp_minus_u)
            return work.exp(-t + (x - 1) * log_t) * jac

        return _de_sum(work, node, dps, 12, max_level)

    return evaluate(integral, dps, x)
