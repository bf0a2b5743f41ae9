"""High-precision gamma/polygamma/beta evaluation on arbitrary-precision floats.

Everything is computed from scratch on top of ``mpmath`` raw floats
(``mpf``) and Python integers, by one Stirling series with exact
Bernoulli-number coefficients.  mpmath's own gamma/digamma routines are
never called, so they remain an independent cross-check in the test suite
(alongside the quadrature oracles).

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
(orders 0, 1, 2).  The recurrences shift x to z >= ``STIRLING_SHIFT``; one
series (DLMF 5.11.1 and its derivatives, 5.15.8) sums a head by order and
the terms (-1)^(order+1) B_2k (2k+order-1)!/(2k)! z^-(2k+order).  ctx mpfs
hold the head (ln z, powers of 1/z), a shift step below 1 and the log of
the log Gamma shift product.  The other shift steps and the series (Horner
in w = 1/z^2, then a product by z^-(order+2)) run on integers scaled by
2^W, W = ctx.prec + ``GUARD_BITS``, converted once.  Only x < STIRLING_SHIFT
is made fixed-point, and 1/z comes from ctx: no cost grows with x's exponent.

The integer part errs by under K 2^-W, K = 2 STIRLING_SHIFT: under 1 for
each of at most STIRLING_SHIFT - 1 floored shift steps (for log Gamma,
relative to a product >= 1), under |psi^(n+1)(1)| <= 6 zeta(4) < 7 for
flooring x + 1 when x < 1, and under 3 for the series whatever
STIRLING_TERMS, as each Horner step floors twice and scales the error
carried in by w <= 1/1600.  GUARD_BITS, the bit length of K STIRLING_SHIFT^2,
put that below one unit of ctx.prec on any |psi''| the kernel shifts.

An ``lru_cache`` keeps the last ``KERNEL_CACHE_SIZE`` results, keyed by all a
result depends on: the context, the mpf argument (hashed by value) and the
order; a domain error is not cached.  One replay makes 29 kernel calls, 18
distinct.  The fixed shift and term count (B_2 to B_42) put the first omitted
term below 1e-46 of the result (worst case psi'') and cap the accuracy near 1e-53.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, to_fixed

GUARD_DIGITS = 15
STIRLING_SHIFT = 40
STIRLING_TERMS = 21
GUARD_BITS = (2 * STIRLING_SHIFT**3).bit_length()  # K STIRLING_SHIFT^2, see above
DEFAULT_DPS = 50
# entries in the kernel cache; one replay makes 18 distinct kernel calls (of 29)
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
    """Exact B_2, ..., B_{2*count}, as (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the
    tangent numbers T_k, which are built on integers (Brent and Harvey 2011)."""
    t = [0] + [math.factorial(k - 1) for k in range(1, count + 1)]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                 for k in range(1, count + 1))


@lru_cache(maxsize=None)
def _stirling_coeffs(order: int) -> tuple[Fraction, ...]:
    """(-1)^(order+1) B_2k (2k+order-1)!/(2k)!, k = 1..STIRLING_TERMS, exactly."""
    sign = (-1) ** (order + 1)
    return tuple(
        sign * b * Fraction(math.factorial(2 * k + order - 1), math.factorial(2 * k))
        for k, b in enumerate(bernoulli_even(STIRLING_TERMS), start=1)
    )


@lru_cache(maxsize=None)
def _fixed_coeffs(bits: int, order: int) -> tuple[int, ...]:
    """``_stirling_coeffs(order)`` times 2^bits, floored, last first."""
    return tuple((c.numerator << bits) // c.denominator
                 for c in reversed(_stirling_coeffs(order)))


_SHIFT_NUMERATORS = (-1, 1, -2)  # psi^(n)(x) - psi^(n)(x + 1), times x^(n+1)
# ln(2 pi) / 2, once a context
_half_log_2pi = lru_cache(maxsize=None)(lambda ctx: ctx.ln(2 * ctx.pi) / 2)


def _fixed_shift(X: int, bits: int, order: int) -> tuple[int, int]:
    """Step X = x 2^bits >= 2^bits up to STIRLING_SHIFT: (the X it ends on, the
    product of the x or the sum of the shift terms, times 2^bits, floored)."""
    one = 1 << bits
    acc = one if order < 0 else 0
    c = _SHIFT_NUMERATORS[order] << (order + 2) * bits if order >= 0 else 0
    while X < STIRLING_SHIFT * one:
        acc = acc * X >> bits if order < 0 else acc + c // X ** (order + 1)
        X += one
    return X, acc


def _fixed_series(inv: int, bits: int, order: int) -> int:
    """The series at inv = 2^bits / z, times 2^((order+3) bits), by Horner in 1/z^2."""
    w, s = inv * inv >> bits, 0
    for c in _fixed_coeffs(bits, order):
        s = c + (s * w >> bits)
    return s * inv ** (order + 2)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _stirling_raw(ctx: MPContext, x, order: int):
    """log Gamma (order -1) or psi^(order) (orders 0, 1, 2) at x > 0, ctx mpf in/out.

    The shifts of log Gamma(x) = log Gamma(x + 1) - ln x share one logarithm.
    """
    if not x > 0:
        raise ValueError("domain error: the gamma family requires a positive argument")
    bits = ctx.prec + GUARD_BITS
    z, result, shift, below = x, ctx.zero, 0, 1
    if x < STIRLING_SHIFT:
        X = to_fixed(x._mpf_, bits)
        if x < 1:
            below, X = x, X + (1 << bits)
            if order >= 0:
                result = _SHIFT_NUMERATORS[order] / x ** (order + 1)
        X, shift = _fixed_shift(X, bits, order)
        z = ctx.make_mpf(from_man_exp(X, -bits))
        if order < 0:
            result, shift = -ctx.ln(below * ctx.make_mpf(from_man_exp(shift, -bits))), 0
    inv = 1 / z
    if order < 0:
        result += (z - ctx.mpf(1) / 2) * ctx.ln(z) - z + _half_log_2pi(ctx)
    elif order == 0:
        result += ctx.ln(z) - inv / 2
    elif order == 1:
        result += inv + inv * inv / 2
    else:
        result -= inv * inv * (1 + inv)
    fixed = _fixed_series(to_fixed(inv._mpf_, bits), bits, order)
    fixed += shift << (order + 2) * bits
    return result + ctx.make_mpf(from_man_exp(fixed, -(order + 3) * bits))


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
