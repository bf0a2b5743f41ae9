"""High-precision gamma/polygamma/beta evaluation, as mpfs and as enclosures.

Two routes share one Stirling series with exact Bernoulli-number
coefficients: public functions that return ``mpmath`` floats (``mpf``), and
``Interval`` enclosures computed on Python integers alone.  Only the mpf
route imports mpmath, when it first runs (``context`` and ``_stirling_raw``),
so a command that reads enclosures never loads it.  mpmath's own
gamma/digamma routines are never called, so they remain an independent
cross-check in the test suite (alongside the quadrature oracles).

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
order; a domain error is not cached.  The fixed shift and term count (B_2 to
B_42) put the first omitted term below 1e-46 of the result (worst case psi'')
and cap the accuracy near 1e-53.

Enclosures
----------
``stirling_enclosure(x, order, dps)`` and ``ln_enclosure(r, dps)`` run the same
series on integers at a positive rational argument, with no mpf and no
context, and return an ``Interval`` that holds the value: the shift is exact,
and every floor and the series remainder enter as a radius, derived in the
docstrings below.  ``exp_enclosure(v, dps)`` maps an Interval through exp the
same way.  The proof replay and the sweep's re-check read their
transcendental values from them, and ``nstr`` prints an exact rational as
mpmath's ``nstr`` prints an mpf, so the CLI prints without mpmath too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

GUARD_DIGITS = 15
STIRLING_SHIFT = 40
STIRLING_TERMS = 21
GUARD_BITS = (2 * STIRLING_SHIFT**3).bit_length()  # K STIRLING_SHIFT^2, see above
DEFAULT_DPS = 50
# entries in the kernel cache (the replay reads enclosures and makes no kernel call)
KERNEL_CACHE_SIZE = 256


@lru_cache(maxsize=None)
def context(dps: int) -> MPContext:
    """A dedicated mpmath context at `dps` digits (never mutated afterwards)."""
    from mpmath.ctx_mp import MPContext

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
def _stirling_coeff(order: int, k: int) -> Fraction:
    """(-1)^(order+1) B_2k (2k+order-1)!/(2k)!, exactly, for k <= STIRLING_TERMS + 1."""
    b = bernoulli_even(STIRLING_TERMS + 1)[k - 1]
    sign = (-1) ** (order + 1)
    return sign * b * Fraction(math.factorial(2 * k + order - 1), math.factorial(2 * k))


@lru_cache(maxsize=None)
def _stirling_coeffs(order: int) -> tuple[Fraction, ...]:
    """The coefficients of the series, k = 1..STIRLING_TERMS."""
    return tuple(_stirling_coeff(order, k) for k in range(1, STIRLING_TERMS + 1))


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
    from mpmath.libmp import from_man_exp, to_fixed

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


# ---------------------------------------------------------------------------
# enclosures on integers: the kernel's series at rational arguments, with radii
# ---------------------------------------------------------------------------


class Interval(NamedTuple):
    """The closed interval [lo, hi] of two Fractions; adding or subtracting
    an Interval, an int or a Fraction is exact."""

    lo: Fraction
    hi: Fraction

    def __add__(self, other):
        lo, hi = other if isinstance(other, Interval) else (other, other)
        return Interval(self.lo + lo, self.hi + hi)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -other

    def digits(self, dps: int) -> str:
        """"[lo, hi]", lo rounded down and hi up to `dps` significant digits."""
        return f"[{_decimal(self.lo, dps, math.floor)}, {_decimal(self.hi, dps, math.ceil)}]"

    def rounded(self, dps: int) -> str:
        """The value rounded to the most significant digits, up to `dps`, at
        which both ends round alike (``nstr``); rounding is monotone, so every
        point between them rounds so too.  "[lo, hi]" if not even one does."""
        for places in range(dps, 0, -1):
            text = nstr(self.lo, places)
            if text == nstr(self.hi, places):
                return text
        return self.digits(dps)


def exact(value) -> Fraction:
    """An int, float, Fraction or finite mpf as the Fraction it equals."""
    if hasattr(value, "_mpf_"):   # a finite mpf is (-1)^sign man 2^exp exactly
        if not value.context.isfinite(value):
            raise ValueError("a non-finite mpf has no exact value")
        sign, man, exp, _ = value._mpf_
        return (-1) ** sign * man * Fraction(2) ** exp
    return Fraction(value)


def _scaled(v: Fraction, dps: int, rounding) -> tuple[int, int]:
    """(rounding(v 10^(dps-1-e)), e) for v != 0 and the e with 10^e <= |v| < 10^(e+1)."""
    size = abs(v)
    e = math.floor(math.log10(size.numerator) - math.log10(size.denominator))
    e += (size >= Fraction(10) ** (e + 1)) - (size < Fraction(10) ** e)
    return rounding(v * Fraction(10) ** (dps - 1 - e)), e


def _decimal(v: Fraction, dps: int, rounding) -> str:
    """v rounded by `rounding` (math.floor or math.ceil) to `dps` significant digits."""
    if v == 0:
        return "0"
    n, e = _scaled(v, dps, rounding)
    places = dps - 1 - e
    if places <= 0:
        return str(n * 10**-places)
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{'-' * (n < 0)}{digits[:-places]}.{digits[-places:]}"


def _half_up(t: Fraction) -> int:
    """t rounded to the nearest int, ties away from zero."""
    n = math.floor(abs(t) + Fraction(1, 2))
    return n if t >= 0 else -n


def nstr(v: Fraction, dps: int) -> str:
    """v as mpmath's ``nstr`` prints an mpf equal to it, on integers.

    v is rounded half away from zero to `dps` significant digits, written
    positionally when its leading digit's exponent e has min(-(dps//3), -5)
    < e < dps and as d.ddd e+E otherwise, and stripped of trailing zeros.
    """
    if v == 0:
        return "0.0"
    n, e = _scaled(v, dps, _half_up)
    if abs(n) == 10**dps:   # rounded up to the next power of ten
        n, e = n // 10, e + 1
    digits, split, suffix = str(abs(n)), 1, f"e{e:+d}"
    if min(-(dps // 3), -5) < e < dps:   # positional
        suffix = ""
        if e < 0:
            digits = "0" * -e + digits
        else:
            split = e + 1
    text = f"{digits[:split]}.{digits[split:]}".rstrip("0")
    return f"{'-' * (n < 0)}{text}{'0' * text.endswith('.')}{suffix}"


# Below, an enclosure is a pair (lo, hi) of ints: lo 2^-bits <= value <= hi 2^-bits.


def _rounded(num: int, den: int, bits: int) -> tuple[int, int]:
    """num/den times 2^bits, floored and ceiled (den > 0)."""
    lo, rem = divmod(num << bits, den)
    return lo, lo + (rem > 0)


def _atanh(p: int, q: int, bits: int) -> tuple[int, int]:
    """atanh(t) for t = p/q in [0, 1/3].

    T = floor(t 2^bits) and T2 = floor(T^2 / 2^bits) fall short of t 2^bits
    and t^2 2^bits by under 1 and under 2t + 1.  So P_0 = T and P_j =
    floor(P_(j-1) T2 / 2^bits) fall short of t^(2j+1) 2^bits by e < (1 + (2t
    + 1) t)/(1 - t^2) <= 7/4: each step loses under 1 and the short T2 under
    (2t + 1) t^(2j-1) <= (2t + 1) t, and t^2 scales what was lost before.
    The sum s of floor(P_j / (2j+1)) stops at the first P_J = 0, where
    t^(2J+1) 2^bits < e: term 0 loses under 1, each term 0 < j < J under
    1 + e/3 < 2, and term J with the tail past it under e (1/3 + t^2/(1 -
    t^2)) < 1.  Every loss is a shortfall, so atanh(t) 2^bits lies in
    [s, s + 2(J + 1)].
    """
    P = (p << bits) // q
    s, j, T2 = P, 0, P * P >> bits
    while P:
        P = P * T2 >> bits
        j += 1
        s += P // (2 * j + 1)
    return s, s + 2 * (j + 1)


@lru_cache(maxsize=None)
def _ln2(bits: int) -> tuple[int, int]:
    lo, hi = _atanh(1, 3, bits)   # 2 = (1 + 1/3)/(1 - 1/3)
    return 2 * lo, 2 * hi


def _ln(num: int, den: int, bits: int) -> tuple[int, int]:
    """ln(num/den) for positive ints: num/den = 2^k m with m in [2/3, 4/3],
    and ln m = 2 atanh(t), t = (m - 1)/(m + 1), |t| <= 1/5."""
    k = num.bit_length() - den.bit_length()
    n, d = (num, den << k) if k >= 0 else (num << -k, den)   # n/d in (1/2, 2)
    if 3 * n > 4 * d:
        d, k = d << 1, k + 1
    elif 3 * n < 2 * d:
        n, k = n << 1, k - 1
    lo, hi = _atanh(abs(n - d), n + d, bits)
    if n < d:
        lo, hi = -hi, -lo
    l2 = sorted(k * v for v in _ln2(bits))
    return 2 * lo + l2[0], 2 * hi + l2[1]


def _exp(T: int, bits: int, up: bool) -> int:
    """exp(t) 2^bits for t = T 2^-bits in [0, 1), rounded down, or up with `up`.

    The terms P_0 = 2^bits and P_j = P_(j-1) T / (j 2^bits) are floored
    (ceiled), and T >= 0, so each is a lower (upper) bound of t^j/j! 2^bits.
    Down, the sum stops at the first P_J = 0 and drops a positive tail.  Up,
    it stops at the first P_J <= 1 and adds 1 for the tail past term J, which
    is under term J times (t/(J+1)) / (1 - t/(J+1)) < 1.
    """
    last = int(up)   # the P_J that stops the sum
    s = P = 1 << bits
    j = 0
    while P > last:
        j += 1
        P = -(-P * T // (j << bits)) if up else P * T // (j << bits)
        s += P
    return s + last


def _exp_end(r: Fraction, bits: int, up: bool) -> Fraction:
    """exp r rounded down, or up with `up`: see ``exp_enclosure``."""
    a, b = _ln2(bits)
    R, q = r.numerator << bits, r.denominator
    k = R // (q * (b if R >= 0 else a))
    if up:
        T = -((q * min(k * a, k * b) - R) // q)
    else:
        T = (R - q * max(k * a, k * b)) // q
    s = _exp(T, bits, up)
    return Fraction(s << k, 1 << bits) if k >= 0 else Fraction(s, 1 << (bits - k))


def _stirling_formula(p: int, q: int, order: int, bits: int) -> tuple[int, int]:
    """Stirling's formula for order -1, 0 or 1 at z = p/q >= STIRLING_SHIFT,
    without log Gamma's constant ln(2 pi)/2: the head, the series and the
    remainder past it.

    The series is ``_fixed_series`` at I = floor(2^bits/z), shifted down to
    2^bits.  Horner's w = floor(I^2/2^bits) is within 1 + 2/z of 2^bits/z^2;
    each step floors twice (the coefficient and the product) and scales the
    error carried in by w <= 1/1600, and w's own error reaches the sum through
    the partial sums c_(k+1) + c_(k+2) w + ..., whose sizes weighted by
    w^(k-1) add up to under 1/5 (about |c_2|).  So s errs by under 5/2; the
    factor I^(order+2)/2^((order+2) bits) <= 1/40 and I's own error add under
    1/5, and the shift floors once more, so the result lies within 2 units of
    the sum of the K = STIRLING_TERMS terms.  The remainder past them lies
    between 0 and the first omitted term c_(K+1) z^-(2K+2+order): DLMF
    5.11(ii) for log Gamma; for psi and psi', Alzer (Math. Comp. 66, 1997)
    shows that the remainders of psi, times (-1)^K, are completely monotonic,
    so those of psi and psi' alternate in sign with K, and each lies between
    0 and the next term.
    """
    if order < 0:   # (z - 1/2) ln z - z = ((2p - q) ln z - 2p) / (2q)
        a, b = _ln(p, q, bits)
        c, u = 2 * p - q, 2 * p << bits
        lo, hi = (c * a - u) // (2 * q), -((u - c * b) // (2 * q))
    elif order == 0:   # ln z - 1/(2z)
        a, b = _ln(p, q, bits)
        c, d = _rounded(q, 2 * p, bits)
        lo, hi = a - d, b - c
    else:   # 1/z + 1/(2z^2)
        lo, hi = _rounded(q * (2 * p + q), 2 * p * p, bits)
    series = _fixed_series((q << bits) // p, bits, order) >> (order + 2) * bits
    omitted, e = _stirling_coeff(order, STIRLING_TERMS + 1), 2 * STIRLING_TERMS + 2 + order
    r_lo, r_hi = _rounded(omitted.numerator * q**e, omitted.denominator * p**e, bits)
    return lo + series - 2 + min(0, r_lo), hi + series + 2 + max(0, r_hi)


@lru_cache(maxsize=None)
def _half_log_2pi_fixed(bits: int) -> tuple[int, int]:
    """ln(2 pi)/2: log Gamma(N) = ln (N-1)! exactly at N = STIRLING_SHIFT, so it
    is ln (N-1)! less the rest of Stirling's formula at N."""
    n = STIRLING_SHIFT
    a, b = _ln(math.factorial(n - 1), 1, bits)
    c, d = _stirling_formula(n, 1, -1, bits)
    return a - d, b - c


def _bits(dps: int) -> int:
    """The kernel's working bits at `dps` digits, as on the mpf path, with no
    context: mpmath's ``dps_to_prec(dps + GUARD_DIGITS) + GUARD_BITS``."""
    return max(1, round((dps + GUARD_DIGITS + 1) * 3.3219280948873626)) + GUARD_BITS


def _interval(pair: tuple[int, int], bits: int) -> Interval:
    return Interval(Fraction(pair[0], 1 << bits), Fraction(pair[1], 1 << bits))


def ln_enclosure(r, dps: int = DEFAULT_DPS) -> Interval:
    """An Interval holding ln r for a positive rational r (int or Fraction)."""
    r = Fraction(r)
    if not r > 0:
        raise ValueError("domain error: ln requires a positive argument")
    bits = _bits(dps)
    return _interval(_ln(r.numerator, r.denominator, bits), bits)


def exp_enclosure(v: Interval, dps: int = DEFAULT_DPS) -> Interval:
    """An Interval holding exp of every point of `v`, on integers scaled by
    2^bits, bits as on the mpf path.

    exp is increasing, so the lower end bounds exp(v.lo) from below and the
    upper end exp(v.hi) from above.  An end r is reduced to t = r - k ln 2
    with ``_ln2``'s bracket [a, b] 2^-bits: k = floor(r 2^bits / b) for r >= 0
    and floor(r 2^bits / a) below make r 2^bits - k a and r 2^bits - k b
    both nonnegative, so t >= 0, and t < 0.7.  T, t 2^bits floored (ceiled)
    with k ln 2 at the end of its bracket that makes t smaller (larger), errs
    by under 1 + |k| (b - a) units.  ``_exp`` sums the Taylor series at T,
    and the sum times 2^k is exact.

    Width.  In ``_exp``'s down sum each floor loses under 1 and scales the
    shortfall carried in by t/j < 1, so every P_j falls under 2 short; the
    tail it drops at P_J = 0 is under P_J's shortfall, 2.  So the down sum
    lies within 2J + 2 units below exp(t) 2^bits, and the up sum, likewise,
    within 2J + 1 above, J the terms summed.  exp' < 3 on t < 1 triples T's
    error.  Each end thus lies within 2J + 5 + 3 |k| (b - a) units of
    2^(k - bits) of exp at that end of `v`.
    """
    bits = _bits(dps)
    return Interval(_exp_end(v.lo, bits, False), _exp_end(v.hi, bits, True))


def stirling_enclosure(x, order: int, dps: int = DEFAULT_DPS) -> Interval:
    """An Interval holding log Gamma (order -1), psi (0) or psi' (1) at a
    positive rational x, on integers scaled by 2^bits, bits as on the mpf path.

    The recurrences shift x exactly to z = x + n >= STIRLING_SHIFT, where
    ``_stirling_formula`` applies.  log Gamma subtracts the log of the exact
    product x (x+1) ... (x+n-1); psi^(order) adds c sum 1/(x+k)^(order+1),
    c from ``_SHIFT_NUMERATORS``, whose n terms, each floored, fall under 1
    short apiece.  Past about 50 digits the width is the remainder, about
    3e-53 at z = 40, whatever `dps`; below, the radii of the floors.
    """
    x = Fraction(x)
    if not x > 0:
        raise ValueError("domain error: the gamma family requires a positive argument")
    if order not in (-1, 0, 1):
        raise ValueError("order must be -1, 0 or 1")
    bits, p, q = _bits(dps), x.numerator, x.denominator
    n = max(0, -((p - STIRLING_SHIFT * q) // q))   # ceil(STIRLING_SHIFT - x)
    lo, hi = _stirling_formula(p + n * q, q, order, bits)
    if order < 0:
        a, b = _ln(math.prod(range(p, p + n * q, q)), q**n, bits)
        c, d = _half_log_2pi_fixed(bits)
        return _interval((lo + c - b, hi + d - a), bits)
    e = order + 1
    s = sum((q**e << bits) // (p + k * q) ** e for k in range(n))
    shift = sorted(_SHIFT_NUMERATORS[order] * v for v in (s, s + n))
    return _interval((lo + shift[0], hi + shift[1]), bits)


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
