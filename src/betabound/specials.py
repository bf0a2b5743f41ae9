"""High-precision gamma/polygamma/beta evaluation on arbitrary-precision floats.

Everything is computed from scratch on top of ``mpmath`` raw floats
(``mpf``), by one Stirling series with exact Bernoulli-number coefficients.
mpmath's own gamma/digamma routines are never called, so they remain an
independent cross-check in the test suite (alongside the quadrature oracles).

Precision contract
------------------
``work_context(dps)`` is the one place the ``GUARD_DIGITS`` extra digits
are added.  Every public high-precision function of the package runs
through ``evaluate(raw, dps, *args)``: the arguments become mpfs of the
working context (a non-finite one is a domain error), ``raw`` checks its
own domain and computes, and the result is rounded to ``dps`` digits.
Compositions (F, G, the sandwich margins) call the public functions at
``work.dps``.  No ambient global state is mutated.

Stirling kernel
---------------
``_stirling_raw(ctx, x, order)`` is log Gamma (order -1) or psi^(order)
(orders 0, 1, 2).  After shifting x up to ``STIRLING_SHIFT`` by the
recurrences, it sums one series (DLMF 5.11.1 and its derivatives, 5.15.8):
a head by order, then the terms (-1)^(order+1) B_2k (2k+order-1)!/(2k)!
x^-(2k+order).  It keeps its last ``KERNEL_CACHE_SIZE`` results in an
``lru_cache`` keyed by the context (one per precision), the mpf argument
(immutable, hashed by value) and the order; the result depends on nothing
else, so a hit returns the very value a recomputation would give.  A
domain error is raised, not cached.  One replay makes 171 kernel calls,
63 distinct (64 at 30 digits).

``STIRLING_SHIFT = 40`` and ``STIRLING_TERMS = 21`` (Bernoulli numbers up
to B_42) put the first omitted series term below 1e-46 of the result for
every function here (worst case psi''), far inside the 1e-30 error
budget.  Being fixed, they cap the accuracy at about 1e-53 absolute
whatever ``dps`` asks for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath.ctx_mp import MPContext

GUARD_DIGITS = 15
STIRLING_SHIFT = 40
STIRLING_TERMS = 21
DEFAULT_DPS = 50
# entries in the kernel cache; one replay makes 63 distinct kernel calls (of 171)
KERNEL_CACHE_SIZE = 256


@lru_cache(maxsize=None)
def context(dps: int) -> MPContext:
    """A dedicated mpmath context at `dps` digits (never mutated afterwards)."""
    ctx = MPContext()
    ctx.dps = dps
    return ctx


def to_mpf(ctx: MPContext, value):
    """Convert ints, Fractions, floats, strings and mpfs into ctx's mpf."""
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
    return ctx.mpf(value)


def work_context(dps: int) -> MPContext:
    """The working context of a `dps`-digit evaluation: GUARD_DIGITS extra digits."""
    return context(dps + GUARD_DIGITS)


def evaluate(raw, dps: int, *args):
    """raw(work, *args) in ``work_context(dps)``, rounded to `dps` digits.

    The arguments arrive as mpfs of `work`, and a non-finite one is a domain
    error.  A dict result has its mpfs of `work` rounded; other values pass.
    """
    work = work_context(dps)
    values = [to_mpf(work, a) for a in args]
    if not all(map(work.isfinite, values)):
        raise ValueError("domain error: arguments must be finite")
    result = raw(work, *values)
    out = context(dps)
    if isinstance(result, dict):
        return {k: out.mpf(v) if isinstance(v, work.mpf) else v
                for k, v in result.items()}
    return out.mpf(result)


@lru_cache(maxsize=None)
def bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_2, B_4, ..., B_{2*count} (B_1 = -1/2)."""
    top = 2 * count
    b = [Fraction(0)] * (top + 1)
    b[0] = Fraction(1)
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b[m] = -acc / (m + 1)
    return tuple(b[2 * k] for k in range(1, count + 1))


@lru_cache(maxsize=None)
def _stirling_coeffs(order: int) -> tuple[Fraction, ...]:
    """(-1)^(order+1) B_2k (2k+order-1)!/(2k)!, k = 1..STIRLING_TERMS, exactly."""
    sign = (-1) ** (order + 1)
    return tuple(
        sign * b * Fraction(math.factorial(2 * k + order - 1), math.factorial(2 * k))
        for k, b in enumerate(bernoulli_even(STIRLING_TERMS), start=1)
    )


@lru_cache(maxsize=None)
def _series_coeffs(ctx: MPContext, order: int):
    """ctx mpf copies of ``_stirling_coeffs(order)``."""
    return tuple(to_mpf(ctx, c) for c in _stirling_coeffs(order))


# psi^(n)(x) = psi^(n)(x + 1) + _SHIFT_TERMS[n](x), for n = 0, 1, 2
_SHIFT_TERMS = (lambda x: -1 / x, lambda x: 1 / (x * x), lambda x: -2 / (x * x * x))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _stirling_raw(ctx: MPContext, x, order: int):
    """log Gamma (order -1) or psi^(order) (orders 0, 1, 2) at x > 0, ctx mpf in/out.

    The shifts of log Gamma(x) = log Gamma(x + 1) - ln x share one logarithm.
    """
    if not x > 0:
        raise ValueError("domain error: the gamma family requires a positive argument")
    shift = ctx.mpf(1 if order < 0 else 0)
    while x < STIRLING_SHIFT:
        if order < 0:
            shift *= x
        else:
            shift += _SHIFT_TERMS[order](x)
        x += 1
    inv = 1 / x
    inv2 = inv * inv
    if order < 0:
        result = (x - ctx.mpf(1) / 2) * ctx.ln(x) - x + ctx.ln(2 * ctx.pi) / 2
        power = inv
    elif order == 0:
        result, power = ctx.ln(x) - inv / 2, inv2
    elif order == 1:
        result, power = inv + inv2 / 2, inv2 * inv
    else:
        result, power = -inv2 - inv2 * inv, inv2 * inv2
    for c in _series_coeffs(ctx, order):
        result += c * power
        power *= inv2
    return result - ctx.ln(shift) if order < 0 else result + shift


def _beta_raw(ctx: MPContext, x, y):
    return ctx.exp(
        _stirling_raw(ctx, x, -1) + _stirling_raw(ctx, y, -1)
        - _stirling_raw(ctx, x + y, -1)
    )


def _delta_raw(ctx: MPContext, x):
    ratio = ctx.exp(2 * _stirling_raw(ctx, x, -1) - _stirling_raw(ctx, 2 * x, -1))
    return 1 / (x * x) - ratio


def log_gamma(x, dps: int = DEFAULT_DPS):
    """log Gamma(x) for x > 0, accurate to the documented budget."""
    return evaluate(lambda ctx, t: _stirling_raw(ctx, t, -1), dps, x)


def gamma(x, dps: int = DEFAULT_DPS):
    """Gamma(x) = exp(log_gamma(x)) for x > 0."""
    return evaluate(lambda ctx, t: ctx.exp(_stirling_raw(ctx, t, -1)), dps, x)


def beta(x, y, dps: int = DEFAULT_DPS):
    """Euler beta B(x, y) = exp(lgamma(x) + lgamma(y) - lgamma(x+y))."""
    return evaluate(_beta_raw, dps, x, y)


def psi(x, dps: int = DEFAULT_DPS):
    """Digamma psi(x) for x > 0."""
    return evaluate(lambda ctx, t: _stirling_raw(ctx, t, 0), dps, x)


def psi1(x, dps: int = DEFAULT_DPS):
    """Trigamma psi'(x) for x > 0."""
    return evaluate(lambda ctx, t: _stirling_raw(ctx, t, 1), dps, x)


def psi2(x, dps: int = DEFAULT_DPS):
    """Tetragamma psi''(x) for x > 0."""
    return evaluate(lambda ctx, t: _stirling_raw(ctx, t, 2), dps, x)


def delta(x, dps: int = DEFAULT_DPS):
    """The gap 1/x^2 - Gamma(x)^2 / Gamma(2x), defined for x > 0."""
    return evaluate(_delta_raw, dps, x)


class DeltaMax(NamedTuple):
    x: object       # maximizer location (mpf)
    value: object   # maximum of delta (mpf)


def _delta_derivatives(ctx: MPContext, x):
    """Delta'(x) = -2/x^3 - r u and Delta''(x) = 6/x^4 - r (u^2 + u').

    Here r = Gamma(x)^2/Gamma(2x), u = (log r)' = 2 psi(x) - 2 psi(2x) and
    u' = 2 psi'(x) - 4 psi'(2x).
    """
    r = ctx.exp(2 * _stirling_raw(ctx, x, -1) - _stirling_raw(ctx, 2 * x, -1))
    u = 2 * _stirling_raw(ctx, x, 0) - 2 * _stirling_raw(ctx, 2 * x, 0)
    du = 2 * _stirling_raw(ctx, x, 1) - 4 * _stirling_raw(ctx, 2 * x, 1)
    return -2 / x**3 - r * u, 6 / x**4 - r * (u * u + du)


def _delta_max_raw(work: MPContext) -> dict:
    grid = [1 + work.mpf(k) / 10 for k in range(0, 21)]  # 1.0, 1.1, ..., 3.0
    best = max(range(len(grid)), key=lambda k: _delta_raw(work, grid[k]))
    if best == 0 or best == len(grid) - 1:
        raise RuntimeError("delta maximum did not bracket inside the scan")
    lo, x, hi = grid[best - 1 : best + 2]
    last = work.inf
    while True:
        d1, d2 = _delta_derivatives(work, x)
        step = d1 / d2
        if abs(step) >= last:
            break
        x, last = x - step, abs(step)
        if not lo < x < hi:
            raise RuntimeError("a Newton step left the bracket of the delta maximum")
    return {"x": x, "value": _delta_raw(work, x)}


def locate_delta_max(dps: int = DEFAULT_DPS) -> DeltaMax:
    """Maximize delta over x >= 1: coarse scan, then Newton steps on Delta' = 0.

    A 0.1-step scan of [1, 3] brackets the maximum by the neighbours of its
    best point; Newton steps start there, and one that leaves the bracket
    raises.  The loop stops, without taking it, at the first step no smaller
    than the last: steps shrink until the rounding noise of Delta', and one
    too small to move x repeats.  The root of Delta' is simple, so location
    and value are right to `dps` digits, up to the series cap.
    """
    return DeltaMax(**evaluate(_delta_max_raw, dps))
