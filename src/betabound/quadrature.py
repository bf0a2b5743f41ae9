"""Double-exponential quadrature oracles for the defining integrals.

These integrators cross-check the series-based special functions through a
completely different route: direct numerical integration of the Euler
integrals.  One substitution serves both: t = (1 + tanh s) / 2 with
s = pi/2 sinh u, so dt = pi cosh(u) t (1-t) du.  ``beta_integral`` sums
int_0^1 t^(x-1) (1-t)^(y-1) dt and ``gamma_integral`` sums
Gamma(x) = int_0^1 (-log t)^(x-1) dt.  Endpoint singularities become
double-exponentially decaying tails, so trapezoid sums converge
geometrically in the level count.

Node table
----------
``_unit_node(work, k, level)`` holds what the node at u = k 2^-level >= 0
owes nothing to the integrand, as integers scaled by 2^W,
W = work.prec + ``GUARD_BITS``: (log m, log(-log m)) and (log M, log(-log M))
for m <= M the two of t and 1 - t, where log M = -log1p(e^(-2s)) and
log m = -2s + log M cancel nothing, and log(pi cosh u).  It serves u and -u,
which swap the t side.  ``f(t, tc)`` gets the t pair and the 1-t pair and
returns log(integrand times t (1-t)) on that scale, and the node adds
exp(log(pi cosh u) + f) to an integer sum: one exponential per node, skipped
where the exponent is below -0.6932 W < -W ln 2, whose term is 0.  Levels
up to ``CACHED_LEVELS`` (5), at most 327 nodes a precision, are kept in an
``lru_cache`` of ``NODE_CACHE_SIZE`` entries keyed by the context, k and the
level, never the integrand; every call on (1/250, 1]^2 converges by level 5
at 30 and 50 digits.  Deeper nodes come from the same function uncached, so
a near-axis call evicts nothing and no value depends on the cache.

Error bound
-----------
Entries are computed in ``work_context(work.dps)``, 49 or more bits above
work.prec, and floored: below 2^17 (u <= 11), each errs by under 1 unit of
2^-W.  x times an entry, from the exact x's numerator and denominator, is
floored once, so a node's exponent errs by under 3 + x + y units for beta
and 5 + x for gamma, as many units of its term's size.  ``exp_scaled`` at
W + g bits, g = 2 bitlen(W) + 4 (2^g > 16 W^2), falls short by under
3 + |k| (b - a) < 2^g/4 units of 2^-(W+g) of its size, as |k| < 1.01 W + 1
above the cutoff and b - a < 1.27 (W + g) + 6.  Its shift to W bits floors,
under 1 unit, under 23 units of the estimate over the 2 (11 2^L) + 1 nodes
of step 2^-L.  Against sums >= 1 (B, Gamma >= 1 on (0, 1]) that is under 30
units of 2^-W, below the 64 of ``GUARD_BITS``, one unit of work.prec.

Convergence
-----------
Each integral halves its step until two successive trapezoid estimates
agree to 10^-(dps+5).  If ``MAX_LEVEL`` (12) halvings pass without agreement
the estimate is not trusted: ``ValueError("inconclusive: ...")`` is raised
instead of returning it.  Near the axes ``beta_integral`` does not converge.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .specials import DEFAULT_DPS, evaluate, exp_scaled, work_context

NODE_CACHE_SIZE = 1024  # entries; the cached levels hold 327 nodes a precision
CACHED_LEVELS = 5
# step halvings before an integral is declared inconclusive
MAX_LEVEL = 12
GUARD_BITS = 7  # the bit length of the 64-unit bound above


@lru_cache(maxsize=NODE_CACHE_SIZE)
def _unit_node(work, k: int, level: int):
    """((log m, log(-log m)), (log M, log(-log M)), log(pi cosh u)) times 2^W
    at u = k 2^-level >= 0, for m and M the smaller and larger of t and 1 - t."""
    from mpmath.libmp import to_fixed

    ctx, bits = work_context(work.dps), work.prec + GUARD_BITS
    u = ctx.ldexp(k, -level)
    two_s = ctx.pi * ctx.sinh(u)
    minus_log_big = ctx.log1p(ctx.exp(-two_s))
    small, big = ((to_fixed((-v)._mpf_, bits), to_fixed(ctx.ln(v)._mpf_, bits))
                  for v in (two_s + minus_log_big, minus_log_big))
    return small, big, to_fixed(ctx.ln(ctx.pi * ctx.cosh(u))._mpf_, bits)


def _de_sum(work, f: Callable, dps: int) -> object:
    """Halving trapezoid sums of the unit nodes' terms, exactly on integers.

    Each row adds the odd multiples of the new step; a row stops once a pair
    of terms falls below 10^-(dps+5) of its running total, or once u passes
    10, where tanh is saturated far beyond working precision.  Levels stop
    when two successive estimates agree to the same target; if ``MAX_LEVEL``
    levels pass without agreement, ValueError is raised.  It returns the sum
    at level L times 2^-(W+L), a Fraction, which ``evaluate`` rounds once.
    """
    bits = work.prec + GUARD_BITS
    one, scale = 1 << bits, 10 ** (dps + 5)
    cutoff = -(bits << bits) * 6932 // 10000   # below -W ln 2, every term floors to 0
    guard = 2 * bits.bit_length() + 4   # 2^guard > 16 W^2

    def term(log_pi_cosh, t, tc):
        exponent = log_pi_cosh + f(t, tc)
        if exponent < cutoff:
            return 0
        s, k = exp_scaled(exponent << guard, bits + guard)
        return s >> guard - k if k < guard else s << k - guard

    def row(level: int, k: int, step: int) -> int:
        node = _unit_node if level <= CACHED_LEVELS else _unit_node.__wrapped__
        total = 0
        while True:
            small, big, log_pi_cosh = node(work, k, level)
            pair = term(log_pi_cosh, big, small)
            pair += term(log_pi_cosh, small, big) if k else 0
            total += pair
            if k and pair * scale < max(one, total) or k > 10 << level:
                return total
            k += step

    total = row(0, 0, 1)
    for level in range(1, MAX_LEVEL + 1):
        previous = total
        total += row(level, 1, 2)
        # |total 2^-level - previous 2^-(level-1)| against max(1, total 2^-level)
        if abs(total - 2 * previous) * scale < max(one << level, total):
            return Fraction(total, 1 << (bits + level))
    raise ValueError(
        f"inconclusive: quadrature did not converge in {MAX_LEVEL} levels")


def tanh_sinh_unit(f: Callable, dps: int = DEFAULT_DPS) -> object:
    """Integrate over (0, 1) with tanh-sinh node placement.

    `f` is called once per node with the t pair and the 1-t pair, each
    (log, log(-log)) of that coordinate scaled by 2^W, and returns the log of
    its integrand times t (1-t) on the same scale.  Near t = 1 the 1-t pair
    carries the precision that 1 - t would destroy.
    """
    return evaluate(lambda work: _de_sum(work, f, dps), dps)


def _times(x: Fraction) -> Callable[[int], int]:
    """v -> floor(x v) for integers v."""
    num, den = x.numerator, x.denominator
    return lambda v: num * v // den


def beta_integral(x, y, dps: int = DEFAULT_DPS) -> object:
    """Quadrature value of the Euler integral of the first kind.

    Direct evaluation of int_0^1 t^(x-1) (1-t)^(y-1) dt; independent of the
    gamma-series route.
    """

    def integral(work, x, y):
        if not (x > 0 and y > 0):
            raise ValueError("domain error: beta_integral requires positive arguments")
        x_times, y_times = _times(x), _times(y)
        return tanh_sinh_unit(lambda t, tc: x_times(t[0]) + y_times(tc[0]), dps)

    return evaluate(integral, dps, x, y)


def gamma_integral(x, dps: int = DEFAULT_DPS) -> object:
    """Quadrature value of the Euler integral of the second kind.

    Direct evaluation of Gamma(x) = int_0^1 (-log t)^(x-1) dt, the integral
    over (0, oo) after the substitution e^(-t) -> t, on the unit nodes.
    """

    def integral(work, x):
        if not x > 0:
            raise ValueError("domain error: gamma_integral requires x > 0")
        x_times = _times(x)
        return tanh_sinh_unit(lambda t, tc: t[0] + tc[0] + x_times(t[1]) - t[1], dps)

    return evaluate(integral, dps, x)
