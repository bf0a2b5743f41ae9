"""High-precision gamma/polygamma/beta evaluation, as enclosures and as mpfs.

One Stirling series with exact Bernoulli-number coefficients runs on Python
integers alone (``_stirling``).  At a positive rational it encloses log
Gamma, psi, psi' or psi'' in an ``Interval``, two integers over one power of
two, every floor and the series remainder entering as a radius, derived in
the docstrings below.  ``stirling_enclosure`` and ``ln_enclosure`` return
such Intervals and ``exp_enclosure`` maps one through ``exp_scaled``, exp
on integers, which ``quadrature`` reads too.  Both elementary kernels reduce
their argument: ``_ln`` divides by the nearest 1 + j/32, whose logs
``_ln_table`` keeps per bits, and ``_exp`` reads exp of t's top four bytes
from tables kept per bits and sums the rest's series.  The replay and the
sweep's re-check read their values from them, and ``nstr`` prints an exact
rational as mpmath's ``nstr`` prints an mpf, so they never import mpmath.

The public functions return ``mpmath`` floats (``mpf``).  ``log_gamma``,
``psi``, ``psi1`` and ``psi2`` are the midpoints of the same enclosures
(``_value``); ``gamma``, ``beta``, ``delta`` and ``locate_delta_max`` read
those midpoints and apply mpmath's exp.  Only this route imports mpmath, when
it first runs (``context`` and ``_value``).  mpmath's own gamma/digamma
routines are never called, so they remain an independent cross-check in the
test suite (alongside the quadrature oracles).

Precision contract
------------------
``work_context(dps)`` is the one place the ``GUARD_DIGITS`` extra digits
are added.  Every public high-precision function of the package runs
through one of two helpers, and its result is rounded to ``dps`` digits:

* ``evaluate(raw, dps, *args)``: the arguments become mpfs of the working
  context (a non-finite one is a domain error), and ``raw`` checks its own
  domain and computes.  The special functions here, ``constants``,
  ``quadrature`` and ``proof`` use it; compositions call the public
  functions or the enclosures at ``work.dps``.
* ``evaluate_rational(raw, dps, *args)``: for a formula of +, -, * and /
  alone, run on stdlib ``decimal`` (libmpdec, in C) in a local context of
  ``GUARD_DIGITS + 2`` extra digits, whose unit roundoff is no coarser than
  the working context's.  ``psibounds``' Yang's L (``lx_general``,
  ``lxx_general``, ``sandwich_margins``) uses it.

No ambient global state, mpmath's or ``decimal``'s, is used or mutated.

The enclosures run on integers scaled by 2^bits, bits the working precision
plus ``GUARD_BITS`` (``_bits``; ``_value`` reads it off its context); the
ln table is summed at bits + 8 and exp's products 6 + bitlen(bits) finer.  The
fixed shift and term count (B_2 to B_42) put the first omitted term below
1e-46 of the result (worst case psi'') and cap the accuracy near 1e-53.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

GUARD_DIGITS = 15
STIRLING_SHIFT = 40
STIRLING_TERMS = 21
# 2^GUARD_BITS units of 2^-bits make one unit of the working precision; the
# radii of the enclosures, in those units, stay far below it
GUARD_BITS = 17
DEFAULT_DPS = 50


@lru_cache(maxsize=None)
def context(dps: int) -> MPContext:
    """A dedicated mpmath context at `dps` digits (never mutated afterwards)."""
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = dps
    return ctx


def _rounded_mpf(ctx: MPContext, p: int, q: int):
    """p/q (q > 0) rounded once, to nearest, into ctx's mpf: from |p|/q floored to
    ctx.prec + 2 bits or more and a half unit for a nonzero remainder."""
    s = ctx.prec + 2 - abs(p).bit_length() + q.bit_length()
    man, rem = divmod(abs(p) << s, q) if s >= 0 else divmod(abs(p), q << -s)
    man = 2 * man + (rem > 0)   # given its bit count, mpmath rounds it without a recount
    return ctx.mpf((int(p < 0), man, -s - 1, man.bit_length()))


def to_mpf(ctx: MPContext, value):
    """Ints, Fractions, floats, strings and mpfs as ctx's mpfs; a Fraction by ``_rounded_mpf``."""
    if isinstance(value, Fraction):
        return _rounded_mpf(ctx, value.numerator, value.denominator)
    return ctx.mpf(value)


def work_context(dps: int) -> MPContext:
    """The working context of a `dps`-digit evaluation: GUARD_DIGITS extra digits."""
    return context(dps + GUARD_DIGITS)


def evaluate(raw, dps: int, *args):
    """raw(work, *args) in ``work_context(dps)``, rounded to `dps` digits.

    The arguments arrive as mpfs of `work`, and a non-finite one is a domain
    error.  A dict result has its mpfs of `work` rounded and its other values
    passed; any other result, an mpf or a Fraction, is rounded.
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
    return to_mpf(out, result)


@lru_cache(maxsize=None)
def rational_context(dps: int) -> decimal.Context:
    """``evaluate_rational``'s decimal context, which it runs on a copy of:
    dps + GUARD_DIGITS + 2 digits, rounding half even, every field set here and
    none read from ``decimal.DefaultContext``.  Its unit roundoff 10^-(dps+16)/2
    is below the 2^-prec of ``work_context(dps)``, prec = round((dps+16) log2 10)."""
    return decimal.Context(
        prec=dps + GUARD_DIGITS + 2, rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, capitals=1, clamp=0, flags=[],
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow])


def evaluate_rational(raw, dps: int, *args):
    """raw(*args) on Decimals of ``rational_context(dps)``, rounded to `dps` digits.

    For formulas of +, -, * and / alone: libmpdec rounds each correctly, as
    mpmath does an mpf operation.  Each argument enters as its exact value (an
    int or Fraction as it is) divided once; a non-finite one is a domain error.
    The context is local, so the caller's decimal context is neither used nor
    changed.  A result, or each value of a dict result, is rounded once: a
    Decimal d of ctx.prec digits or fewer is the integer d 10^e(d) over 10^e(d).
    """
    try:
        values = [a if isinstance(a, (int, Fraction)) else exact(a) for a in args]
    except (ValueError, OverflowError) as exc:
        raise ValueError("domain error: arguments must be finite numbers") from exc
    with decimal.localcontext(rational_context(dps)) as ctx:
        result = raw(*(ctx.divide(v.numerator, v.denominator) for v in values))
    out = context(dps)
    e = lambda d: max(0, ctx.prec - 1 - d.adjusted())
    rounded = lambda d: _rounded_mpf(out, int(d.scaleb(e(d), ctx)), 10 ** e(d))
    if isinstance(result, dict):
        return {k: rounded(v) for k, v in result.items()}
    return rounded(result)


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
def _fixed_coeffs(bits: int, order: int) -> tuple[int, ...]:
    """The series' coefficients, k = STIRLING_TERMS..1, times 2^bits, floored."""
    coeffs = (_stirling_coeff(order, k) for k in range(STIRLING_TERMS, 0, -1))
    return tuple((c.numerator << bits) // c.denominator for c in coeffs)


_SHIFT_NUMERATORS = (-1, 1, -2)  # psi^(n)(x) - psi^(n)(x + 1), times x^(n+1)


def _fixed_series(inv: int, bits: int, order: int) -> int:
    """The sum of c_k z^-2(k-1) at inv = 2^bits / z, times 2^bits, by Horner."""
    w, s = inv * inv >> bits, 0
    for c in _fixed_coeffs(bits, order):
        s = c + (s * w >> bits)
    return s


# ---------------------------------------------------------------------------
# enclosures on integers: the series at rational arguments, with radii
# ---------------------------------------------------------------------------


class Interval(NamedTuple):
    """[lo, hi] 2^-scale for ints lo <= hi and scale >= 0, as the kernels compute.

    Intervals add and subtract exactly, the ends at the smaller scale shifted to
    the larger.  An int or Fraction r is rounded outward at the Interval's scale:
    floor(r 2^scale) joins lo and ceil(r 2^scale) hi, each under 1 from r 2^scale,
    so each end holds the exact sum and lies within one unit of 2^-scale of it.
    ``ends`` and ``mid`` are exact Fractions."""

    lo: int
    hi: int
    scale: int = 0

    def __add__(self, other):
        if not isinstance(other, Interval):
            r = Fraction(other)
            other = Interval(*_rounded(r.numerator, r.denominator, self.scale), self.scale)
        a, b = (self, other) if self.scale <= other.scale else (other, self)
        shift = b.scale - a.scale
        return Interval((a.lo << shift) + b.lo, (a.hi << shift) + b.hi, b.scale)

    def __neg__(self):
        return Interval(-self.hi, -self.lo, self.scale)

    def __sub__(self, other):
        return self + -other

    @property
    def ends(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.lo, 1 << self.scale), Fraction(self.hi, 1 << self.scale)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.lo + self.hi, 2 << self.scale)

    def digits(self, dps: int) -> str:
        """"[lo, hi]", lo rounded down and hi up to `dps` significant digits."""
        lo, hi = self.ends
        return f"[{_decimal(lo, dps, math.floor)}, {_decimal(hi, dps, math.ceil)}]"

    def rounded(self, dps: int) -> str:
        """The value rounded to the most significant digits, up to `dps`, at
        which both ends round alike (``nstr``); rounding is monotone, so every
        point between them rounds so too.  "[lo, hi]" if not even one does."""
        lo, hi = self.ends
        for places in range(dps, 0, -1):
            text = nstr(lo, places)
            if text == nstr(hi, places):
                return text
        return self.digits(dps)


def exact(value) -> Fraction:
    """An int, float, Fraction or finite mpf as the Fraction it equals."""
    if hasattr(value, "_mpf_"):   # a finite mpf is (-1)^sign man 2^exp exactly
        if not value.context.isfinite(value):
            raise ValueError("a non-finite mpf has no exact value")
        sign, man, exp, _ = value._mpf_
        return Fraction((-man if sign else man) << max(exp, 0), 1 << max(-exp, 0))
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
    s, d, T2 = P, 1, P * P >> bits   # d = 2j + 1
    while P:
        P = P * T2 >> bits
        d += 2
        s += P // d
    return s, s + d + 1


@lru_cache(maxsize=None)
def _ln2(bits: int) -> tuple[int, int]:
    lo, hi = _atanh(1, 3, bits)   # 2 = (1 + 1/3)/(1 - 1/3)
    return 2 * lo, 2 * hi


@lru_cache(maxsize=None)
def _ln_table(bits: int) -> tuple[tuple[int, int], ...]:
    """ln(1 + j/32) = 2 atanh(j/(64 + j)) at index j + 11, j = -11..11: summed
    at bits + 8 and shifted outward, under 2 + 4(J + 1)/2^8 units wide (J terms)."""
    ends = [_atanh(abs(j), 64 + j, bits + 8) for j in range(-11, 12)]
    ends = [(-hi, -lo) if i < 11 else (lo, hi) for i, (lo, hi) in enumerate(ends)]
    return tuple((2 * lo >> 8, -(-2 * hi >> 8)) for lo, hi in ends)


def _ln(num: int, den: int, bits: int) -> tuple[int, int]:
    """ln(num/den) for positive ints: num/den = 2^k M, M in [2/3, 4/3], M = c_j m
    for c_j = 1 + j/32, j = round(32 (M - 1)) in [-11, 11], and ln m = 2 atanh(t),
    t = (m - 1)/(m + 1): |M - c_j| <= 1/64 and c_j >= 21/32 give |m - 1| <= 1/42
    and |t| <= 1/83.  The width adds twice ``_atanh``'s, ``_ln_table``'s and |k| ``_ln2``'s."""
    if num <= 0:
        raise ValueError("domain error: ln requires a positive argument")
    k = num.bit_length() - den.bit_length()
    n, d = (num, den << k) if k >= 0 else (num << -k, den)   # n/d in (1/2, 2)
    if 3 * n > 4 * d:
        d, k = d << 1, k + 1
    elif 3 * n < 2 * d:
        n, k = n << 1, k - 1
    j = (64 * (n - d) + d) // (2 * d)
    n, d = 32 * n, (32 + j) * d
    lo, hi = _atanh(abs(n - d), n + d, bits)
    if n < d:
        lo, hi = -hi, -lo
    c_lo, c_hi = _ln_table(bits)[j + 11]
    l2 = sorted(k * v for v in _ln2(bits))
    return 2 * lo + c_lo + l2[0], 2 * hi + c_hi + l2[1]


@lru_cache(maxsize=None)
def _exp_tables(bits: int) -> tuple:
    """``_exp``'s constants at `bits`: g; 2^w/n! for n = N..0, floored, and
    negated and floored; four levels of 256 entries, each with i and w - 8i."""
    g = bits.bit_length() + 6
    w, n = bits + g, 1
    down, up = [1 << w], [-1 << w]   # floor(floor(x/a)/b) = floor(x/(ab))
    while down[-1] // n >= 1 << 32 * n - 1:   # else n = N + 1: 2^w/n! < 2^(32n - 1)
        down, up, n = down + [down[-1] // n], up + [up[-1] // n], n + 1
    horner = tuple(down[::-1]), tuple(up[::-1])
    return g, horner, tuple(([None] * 256, i, w - 8 * i) for i in range(1, 5))


def _exp_entry(level: list, i: int, j: int, w: int) -> int:
    """exp(j 2^-8i) 2^w rounded down, stored in `level`: the sum of P_0 = 2^w
    and P_n = floor(P_(n-1) j / (n 2^8i)) up to the first P_J = 0."""
    s, P, n = 1 << w, 1 << w, 0
    while P:
        n += 1
        P = P * j // (n << 8 * i)
        s += P
    level[j] = s
    return s


def _exp(T: int, bits: int, up: bool) -> int:
    """exp(t) 2^bits for t = T 2^-bits in [0, 1), rounded down, or up with
    `up`, by under 3/2 units; up, the sum is negated, so each floor rounds up.

    On w = bits + g bits, g = 6 + bitlen(bits), t = a_1 + ... + a_4 + p, a_i =
    j_i 2^-8i its i-th byte and p < 2^-32 the rest.  In exp(a_i)'s entry each
    floor loses under 1 and scales the shortfall carried in by a_i/n <= 1/2,
    so each P_n, and the tail past P_J = 0, falls under 2 short; up adds 2J +
    2 < w + 4, as P_(J-1) >= 1 gives (J - 1)! <= 2^w.  Horner's sum of exp(p)
    to n = N loses under 2 a step, scaled by p, and the tail is under 1: 5/2.
    The product of the five factors, exp(t) 2^w < e 2^w, is floored four
    times; an error reaches it times the factors after it, and products of two
    errors stay far below a unit: under e (4w + 24) < 2^(g-1) units of 2^-w
    for bits >= 18, and 3/2 units of 2^-bits after the last shift.
    """
    g, horner, levels = _exp_tables(bits)
    w, U = bits + g, T << g
    p = U & (1 << w - 32) - 1
    s = 0
    for c in horner[up]:
        s = c + (s * p >> w)
    s, pad = s - up, (w + 4) * up   # up: the tail past N, and each entry's
    for level, i, shift in levels:
        j = U >> shift & 255
        s = s * ((level[j] or _exp_entry(level, i, j, w)) + pad) >> w
    return -(s >> g) if up else s >> g


def _stirling_formula(p: int, q: int, order: int, bits: int, E: int = 0) -> tuple[int, int]:
    """Stirling's formula for order -1, 0, 1 or 2 at z = p/q >= STIRLING_SHIFT,
    without log Gamma's constant ln(2 pi)/2, in units of 2^-bits (psi' and
    psi'': 2^-(bits + order E)).  u = 1/z lies in [I, I + 1) 2^-bits.

    Heads: log Gamma's and psi's are exact but for the floors of ``_ln`` and
    their own.  psi' and psi'' are summed as h = z^order psi^(order)(z), with
    the heads 1 + u/2 and -1 - u, and h times u^order keeps their relative
    precision at any z: U = floor(2^(bits+E)/z), so u 2^E lies in [U, U + 1)
    2^-bits, and h's ends times U^order and (U + 1)^order, floored and ceiled,
    hold it.

    Series: Horner's sum s of c_k w^(k-1) (``_fixed_series``), times I^j, j =
    order + 2 (2 in h).  w = floor(I^2/2^bits) is within 1 + 2/z of
    2^bits/z^2; each step floors twice and scales the error carried in by w <=
    1/1600, and w's error reaches s through the partial sums c_(k+1) + c_(k+2)
    w + ..., whose sizes weighted by w^(k-1) add up to under 1/5 (about |c_2|,
    at most 1/6, for psi'').  So s errs by under 5/2; I^j/2^(j bits) <= 1/40,
    I's own error adds under 1/5 and the shift floors once more: within 2
    units of the K = STIRLING_TERMS terms.

    Remainder: R_K lies between 0 and the first omitted term: DLMF 5.11(ii)
    for log Gamma.  Alzer (Math. Comp. 66, 1997) shows that (-1)^K R_K of psi
    is completely monotonic, so that of psi^(n), its n-th derivative, has the
    sign (-1)^(K+n), and R_(K+1) the other; their difference is the omitted
    term.  Past z = 2^bits, I = 0 and the term is far below a unit.
    """
    I = (q << bits) // p
    j = 2 + min(order, 0)
    series = _fixed_series(I, bits, order) * I**j >> j * bits
    rest, e = _stirling_coeff(order, STIRLING_TERMS + 1), 2 * STIRLING_TERMS + j
    r_lo, r_hi = _rounded(rest.numerator * q**e, rest.denominator * p**e, bits) if I else (-1, 1)
    if order < 0:   # (z - 1/2) ln z - z = ((2p - q) ln z - 2p) / (2q)
        a, b = _ln(p, q, bits)
        c, u = 2 * p - q, 2 * p << bits
        lo, hi = (c * a - u) // (2 * q), -((u - c * b) // (2 * q))
    elif order == 0:   # ln z - 1/(2z)
        a, b = _ln(p, q, bits)
        c, d = _rounded(q, 2 * p, bits)
        lo, hi = a - d, b - c
    elif order == 1:   # 1 + u/2
        lo, hi = (1 << bits) + (I >> 1), (1 << bits) + (I + 2 >> 1)
    else:   # -1 - u
        lo, hi = -(1 << bits) - I - 1, -(1 << bits) - I
    lo, hi = lo + series - 2 + min(0, r_lo), hi + series + 2 + max(0, r_hi)
    if order < 1:
        return lo, hi
    U = (q << bits + E) // p
    ends = [v * U**order for v in (lo, hi)] + [v * (U + 1) ** order for v in (lo, hi)]
    return min(ends) >> order * bits, -(-max(ends) >> order * bits)


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


def ln_enclosure(r, dps: int = DEFAULT_DPS) -> Interval:
    """An Interval holding ln r for a positive rational r (int or Fraction)."""
    r, bits = Fraction(r), _bits(dps)
    return Interval(*_ln(r.numerator, r.denominator, bits), bits)


def exp_scaled(X: int, bits: int, up: bool = False) -> tuple[int, int]:
    """(s, k): s 2^(k - bits) is exp(x), x = X 2^-bits, rounded down (up with
    `up`) by under (3 + |k| (b - a)) exp(x) 2^-bits, [a, b] 2^-bits ``_ln2``'s
    bracket, 4J + 4 <= 1.27 bits + 6 units wide for J <= bits/3.17 + 1/2.

    t = x - k ln 2 with k = floor(X/b), or floor(X/a) below 0, is in [0, 0.7).
    T, t 2^bits with k ln 2 at the end of its bracket that makes t smaller
    (larger), is off by at most |k| (b - a): as many units of exp(t) (up, times
    e^d, d = |k| (b - a) 2^-bits < 2^(-bits/2-1)).  ``_exp`` adds 3/2 more.
    """
    a, b = _ln2(bits)
    k, low = divmod(X, b) if X >= 0 else divmod(X, a)
    T = X - k * (a if X >= 0 else b) if up else low
    return _exp(T, bits, up), k


def exp_enclosure(v: Interval, dps: int = DEFAULT_DPS) -> Interval:
    """An Interval holding exp of every point of `v`, on integers scaled by
    2^bits, bits as on the mpf path (finer below 1: see the last line).

    exp is increasing: the ends are ``exp_scaled`` of v.lo 2^bits floored,
    rounded down, and of v.hi 2^bits ceiled, rounded up, within (4 + |k| (b -
    a)) exp(r) 2^-bits of exp at that end r of `v`; their s 2^(k - bits) are
    shifted, exactly, to the scale bits - min(k, 0).
    """
    bits = _bits(dps)
    lo, k = exp_scaled(v.lo << bits >> v.scale, bits)
    hi, m = exp_scaled(-(-v.hi << bits >> v.scale), bits, True)
    low = min(k, 0)
    return Interval(lo << k - low, hi << m - low, bits - low)


def _stirling(p: int, q: int, order: int, bits: int) -> Interval:
    """An Interval [lo, hi] 2^-scale holding f(p/q), for f log Gamma
    (order -1) or psi^(order) (orders 0, 1, 2), p/q > 0 and q > 0.

    The recurrences shift x exactly to z = x + n >= STIRLING_SHIFT: log Gamma
    subtracts the log of the exact product x (x+1) ... (x+n-1), psi^(order)
    adds c sum 1/(x+k)^(order+1), c from ``_SHIFT_NUMERATORS``, whose n terms,
    each floored, fall under 1 short apiece.  scale is bits, or bits + order E
    for psi' and psi'' at x >= 64, E the bit length of floor(x) less 6.

    A denominator past 2^bits would make the shift grow with x's exponent.
    Such an x is rounded down to scale fractional bits, after one exact step
    to x + 1 if x < 1 (-ln x, or c (q/p)^(order+1) by ``_power_ratio``).  On
    [1, oo) the derivative of psi^(order) is at most |psi^(order+1)(1)| <= 6
    zeta(4) < 7, |psi^(m)| decreasing for m >= 1, and that of log Gamma, psi,
    lies in (-1, ln x): the rounding moves f by under 7 units plus the bit
    length of floor(x).
    """
    if p <= 0:
        raise ValueError("domain error: the gamma family requires a positive argument")
    lo = hi = 0
    if q > 1 << bits and p < q:
        if order < 0:
            a, b = _ln(p, q, bits)
            lo, hi = -b, -a
        else:
            ends = _power_ratio(q, p, order + 1, bits)
            lo, hi = sorted(_SHIFT_NUMERATORS[order] * v for v in ends)
        p += q
    L = (p // q).bit_length()
    E = max(0, L - 6) if order > 0 else 0
    scale = bits + order * E
    if q > 1 << bits:
        p, q, lo, hi = (p << scale) // q, 1 << scale, lo - 7 - L, hi + 7 + L
    n = max(0, -((p - STIRLING_SHIFT * q) // q))   # ceil(STIRLING_SHIFT - x)
    a, b = _stirling_formula(p + n * q, q, order, bits, E)
    lo, hi = lo + a, hi + b
    if order < 0:
        a, b = _ln(math.prod(range(p, p + n * q, q)), q**n, bits)
        c, d = _half_log_2pi_fixed(bits)
        return Interval(lo + c - b, hi + d - a, scale)
    e, top = order + 1, q ** (order + 1) << bits
    s = sum(top // v**e for v in range(p, p + n * q, q))
    shift = sorted(_SHIFT_NUMERATORS[order] * v for v in (s, s + n))
    return Interval(lo + shift[0], hi + shift[1], scale)


def _power_ratio(num: int, den: int, e: int, bits: int) -> tuple[int, int]:
    """lo <= (num/den)^e 2^bits <= hi from R, num/den in [R, R + 1) 2^-d, of
    2 bits bits or so: relative width under e 2^(2 - 2 bits) at any size."""
    d = 2 * bits - num.bit_length() + den.bit_length()
    R = (num << d) // den if d >= 0 else num // (den << -d)
    lo, hi, shift = R**e, (R + 1) ** e, bits - d * e
    return (lo << shift, hi << shift) if shift >= 0 else (lo >> -shift, -(-hi >> -shift))


def stirling_enclosure(x, order: int, dps: int = DEFAULT_DPS) -> Interval:
    """An Interval holding log Gamma (order -1), psi (0), psi' (1) or psi''
    (2) at a positive rational x, at ``_bits(dps)`` (see ``_stirling``).

    Past about 50 digits the width is the remainder, about 3e-53 at z = 40,
    whatever `dps`; below, the radii of the floors.
    """
    if order not in (-1, 0, 1, 2):
        raise ValueError("order must be -1, 0, 1 or 2")
    x = Fraction(x)
    return _stirling(x.numerator, x.denominator, order, _bits(dps))


def _value(ctx: MPContext, x, order: int):
    """log Gamma (order -1) or psi^(order) at the ctx mpf x: the midpoint of
    its enclosure at ctx.prec + GUARD_BITS bits, rounded to ctx."""
    x = exact(x)
    lo, hi, scale = _stirling(x.numerator, x.denominator, order, ctx.prec + GUARD_BITS)
    return _rounded_mpf(ctx, lo + hi, 2 << scale)


def _beta_raw(ctx: MPContext, x, y):
    return ctx.exp(_value(ctx, x, -1) + _value(ctx, y, -1) - _value(ctx, x + y, -1))


def _delta_raw(ctx: MPContext, x):
    ratio = ctx.exp(2 * _value(ctx, x, -1) - _value(ctx, 2 * x, -1))
    return 1 / (x * x) - ratio


def log_gamma(x, dps: int = DEFAULT_DPS):
    """log Gamma(x) for x > 0, accurate to the documented budget."""
    return evaluate(lambda ctx, t: _value(ctx, t, -1), dps, x)


def gamma(x, dps: int = DEFAULT_DPS):
    """Gamma(x) = exp(log_gamma(x)) for x > 0."""
    return evaluate(lambda ctx, t: ctx.exp(_value(ctx, t, -1)), dps, x)


def beta(x, y, dps: int = DEFAULT_DPS):
    """Euler beta B(x, y) = exp(lgamma(x) + lgamma(y) - lgamma(x+y))."""
    return evaluate(_beta_raw, dps, x, y)


def psi(x, dps: int = DEFAULT_DPS):
    """Digamma psi(x) for x > 0."""
    return evaluate(lambda ctx, t: _value(ctx, t, 0), dps, x)


def psi1(x, dps: int = DEFAULT_DPS):
    """Trigamma psi'(x) for x > 0."""
    return evaluate(lambda ctx, t: _value(ctx, t, 1), dps, x)


def psi2(x, dps: int = DEFAULT_DPS):
    """Tetragamma psi''(x) for x > 0."""
    return evaluate(lambda ctx, t: _value(ctx, t, 2), dps, x)


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
    r = ctx.exp(2 * _value(ctx, x, -1) - _value(ctx, 2 * x, -1))
    u = 2 * _value(ctx, x, 0) - 2 * _value(ctx, 2 * x, 0)
    du = 2 * _value(ctx, x, 1) - 4 * _value(ctx, 2 * x, 1)
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
