"""High-precision gamma/polygamma/beta evaluation on arbitrary-precision floats.

Everything is computed from scratch on top of ``mpmath`` raw floats
(``mpf``): the gamma family uses the Stirling asymptotic series after
recurrence-shifting the argument above a fixed threshold, with exact
Bernoulli-number coefficients.  mpmath's own gamma/digamma routines are
never called, so they remain available as an independent cross-check in
the test suite (alongside the quadrature oracles).

Precision contract
------------------
``work_context(dps)`` is the one place the ``GUARD_DIGITS`` extra digits
are added.  Every public high-precision function of the package runs
through ``evaluate(raw, dps, *args)``: the arguments become mpfs of the
working context (a non-finite one is a domain error), ``raw`` checks its
own domain and computes, and the result is rounded to ``dps`` digits.
Compositions (F, G, the sandwich margins) call the public functions at
``work.dps``.  No ambient global state is mutated.

Kernel cache
------------
The two series kernels, ``_log_gamma_raw(ctx, x)`` and
``_psi_raw(ctx, x, order)``, keep their last ``KERNEL_CACHE_SIZE`` results
in an ``lru_cache``.  The key is the context, which ``context`` hands out
once per precision, and the mpf argument, which is immutable and hashes by
value; the kernel's result depends on nothing else, so a hit returns the
very value a recomputation would give.  A domain error is raised, not
cached.  One replay makes 171 kernel calls of which 63 are distinct (64 at
30 digits): beta, gamma, delta, F, G and the sandwich margins all reach the
cache through the kernels.

``STIRLING_SHIFT = 40`` and ``STIRLING_TERMS = 21`` (Bernoulli numbers up
to B_42) put the first omitted series term below 1e-46 of the result for
every function here (worst case psi''), far inside the 1e-30 error
budget.  Being fixed, they cap the accuracy at about 1e-53 absolute
whatever ``dps`` asks for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from mpmath.ctx_mp import MPContext

GUARD_DIGITS = 15
STIRLING_SHIFT = 40
STIRLING_TERMS = 21
DEFAULT_DPS = 50
# entries per kernel cache; one replay makes 63 distinct kernel calls (of 171)
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
def _series_coeffs(dps: int):
    """Per-context mpf copies of the asymptotic-series coefficients."""
    ctx = context(dps)
    bern = bernoulli_even(STIRLING_TERMS)
    lgamma = tuple(
        to_mpf(ctx, b / ((2 * k) * (2 * k - 1)))
        for k, b in enumerate(bern, start=1)
    )
    psi = tuple(to_mpf(ctx, b / (2 * k)) for k, b in enumerate(bern, start=1))
    psi1 = tuple(to_mpf(ctx, b) for b in bern)
    psi2 = tuple(
        to_mpf(ctx, (2 * k + 1) * b) for k, b in enumerate(bern, start=1)
    )
    return lgamma, psi, psi1, psi2


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _log_gamma_raw(ctx: MPContext, x):
    """log Gamma via argument shifting plus the Stirling series (ctx mpf in/out)."""
    if not x > 0:
        raise ValueError("domain error: the gamma family requires a positive argument")
    prod = None
    while x < STIRLING_SHIFT:
        prod = x if prod is None else prod * x
        x += 1
    coeffs = _series_coeffs(ctx.dps)[0]
    lnx = ctx.ln(x)
    half = ctx.mpf(1) / 2
    result = (x - half) * lnx - x + ctx.ln(2 * ctx.pi) / 2
    inv = 1 / x
    inv2 = inv * inv
    power = inv
    for c in coeffs:
        result += c * power
        power *= inv2
    if prod is not None:
        result -= ctx.ln(prod)
    return result


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _psi_raw(ctx: MPContext, x, order: int):
    """psi (order 0), psi' (order 1) or psi'' (order 2), via shift + series."""
    if not x > 0:
        raise ValueError("domain error: the gamma family requires a positive argument")
    correction = ctx.mpf(0)
    while x < STIRLING_SHIFT:
        if order == 0:
            correction -= 1 / x
        elif order == 1:
            correction += 1 / (x * x)
        else:
            correction -= 2 / (x * x * x)
        x += 1
    _, c_psi, c_psi1, c_psi2 = _series_coeffs(ctx.dps)
    inv = 1 / x
    inv2 = inv * inv
    if order == 0:
        result = ctx.ln(x) - inv / 2
        power = inv2
        for c in c_psi:
            result -= c * power
            power *= inv2
    elif order == 1:
        result = inv + inv2 / 2
        power = inv2 * inv
        for c in c_psi1:
            result += c * power
            power *= inv2
    else:
        result = -inv2 - inv2 * inv
        power = inv2 * inv2
        for c in c_psi2:
            result -= c * power
            power *= inv2
    return result + correction


def _beta_raw(ctx: MPContext, x, y):
    return ctx.exp(
        _log_gamma_raw(ctx, x) + _log_gamma_raw(ctx, y) - _log_gamma_raw(ctx, x + y)
    )


def _delta_raw(ctx: MPContext, x):
    ratio = ctx.exp(2 * _log_gamma_raw(ctx, x) - _log_gamma_raw(ctx, 2 * x))
    return 1 / (x * x) - ratio


def log_gamma(x, dps: int = DEFAULT_DPS):
    """log Gamma(x) for x > 0, accurate to the documented budget."""
    return evaluate(_log_gamma_raw, dps, x)


def gamma(x, dps: int = DEFAULT_DPS):
    """Gamma(x) = exp(log_gamma(x)) for x > 0."""
    return evaluate(lambda ctx, t: ctx.exp(_log_gamma_raw(ctx, t)), dps, x)


def beta(x, y, dps: int = DEFAULT_DPS):
    """Euler beta B(x, y) = exp(lgamma(x) + lgamma(y) - lgamma(x+y))."""
    return evaluate(_beta_raw, dps, x, y)


def psi(x, dps: int = DEFAULT_DPS):
    """Digamma psi(x) for x > 0."""
    return evaluate(lambda ctx, t: _psi_raw(ctx, t, 0), dps, x)


def psi1(x, dps: int = DEFAULT_DPS):
    """Trigamma psi'(x) for x > 0."""
    return evaluate(lambda ctx, t: _psi_raw(ctx, t, 1), dps, x)


def psi2(x, dps: int = DEFAULT_DPS):
    """Tetragamma psi''(x) for x > 0."""
    return evaluate(lambda ctx, t: _psi_raw(ctx, t, 2), dps, x)


def delta(x, dps: int = DEFAULT_DPS):
    """The gap 1/x^2 - Gamma(x)^2 / Gamma(2x), defined for x > 0."""
    return evaluate(_delta_raw, dps, x)


class DeltaMax(NamedTuple):
    x: object       # maximizer location (mpf)
    value: object   # maximum of delta (mpf)


def _delta_max_raw(work: MPContext, xtol: str) -> dict:
    f = partial(_delta_raw, work)
    grid = [1 + work.mpf(k) / 10 for k in range(0, 21)]  # 1.0, 1.1, ..., 3.0
    values = [f(t) for t in grid]
    best = max(range(len(grid)), key=lambda k: values[k])
    if best == 0 or best == len(grid) - 1:
        raise RuntimeError("delta maximum did not bracket inside the scan")
    lo, hi = grid[best - 1], grid[best + 1]

    tol = work.mpf(xtol)
    invphi = (work.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xstar = (a + b) / 2
    return {"x": xstar, "value": f(xstar)}


def locate_delta_max(dps: int = DEFAULT_DPS, xtol: str | None = None) -> DeltaMax:
    """Maximize delta over x >= 1: coarse scan, then golden-section.

    The maximum is interior and the function is unimodal on the scanned
    bracket, so a 0.1-step scan over [1, 3] followed by golden-section to
    `xtol` encloses it.  The default `xtol` is 10^-floor((dps + GUARD_DIGITS)
    / 2): delta is flat at its maximum, so near it delta(x) moves by about
    (x - x*)^2 and comparisons in the working context resolve x only to
    about the square root of its epsilon.  The value is then correct to
    `dps` digits and the location to about half as many; at 30 digits the
    default is 1e-22, which keeps all 20 digits that ``betabound
    constants`` prints correct.
    """
    if xtol is None:
        xtol = f"1e-{(dps + GUARD_DIGITS) // 2}"
    return DeltaMax(**evaluate(lambda work: _delta_max_raw(work, xtol), dps))
