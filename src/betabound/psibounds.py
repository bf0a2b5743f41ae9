"""Rational sandwich bounds for psi' and psi'' from Yang's two-log function.

Yang's function L(x, a), a weighted sum of two logs of quadratics in x
(written once, in ``log_terms``), has x-derivatives that sandwich psi'(x+1)
and psi''(x+1) for the parameter choices used here (a = 2/5 and a = 4/5 on
the outside, the best-possible constants a1, a2, a3 inside).  L, L_x and
L_xx are sums over its log terms, and the proof replay reads L_x and L_xx at
a = 2/5 and 4/5 from ``derive_lx`` and ``derive_lxx``, which differentiate
those terms exactly.  The closed forms as displayed in the source
material are kept below as ``PRINTED_LX`` and ``PRINTED_LXX``, and
``closed_form_mismatches`` compares them with the derivation.

``yang_lx`` and ``yang_lxx`` are plain arithmetic over any number type.
``lx_general``, ``lxx_general`` and ``sandwich_margins`` evaluate them on
Decimals (``specials.evaluate_rational``), with no mpf arithmetic, and
round each result once to a ``dps``-digit mpf.

Also here: Alzer's lower bound for psi(x+1) - psi(x+s) at truncation order n,
as the rational function ``alzer_bracket_rf(n)`` that the replay reads.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .polys import BiPoly, Poly, RationalFn, as_fraction
from .specials import DEFAULT_DPS, GUARD_DIGITS, context, evaluate_rational, stirling_enclosure

A_SMALL = Fraction(2, 5)
A_LARGE = Fraction(4, 5)

_X = Poly.x()


# the closed forms exactly as displayed in the source material
PRINTED_LX = {
    A_SMALL: (3 * (1 + 2 * _X) * (61 + 90 * _X + 90 * _X**2))
    / (2 * (11 + 15 * _X + 15 * _X**2) * (5 + 18 * _X + 18 * _X**2)),
    A_LARGE: (3 * (1 + 2 * _X) * (199 + 180 * _X + 180 * _X**2))
    / (2 * (17 + 15 * _X + 15 * _X**2) * (11 + 36 * _X + 36 * _X**2)),
}
PRINTED_LXX = {
    A_SMALL: (
        -3 * (
            4993 + 36546 * _X + 110526 * _X**2 + 196560 * _X**3
            + 219780 * _X**4 + 145800 * _X**5 + 48600 * _X**6
        )
    ) / (2 * (11 + 15 * _X + 15 * _X**2) ** 2 * (5 + 18 * _X + 18 * _X**2) ** 2),
    A_LARGE: (
        -3 * (
            46537 + 322206 * _X + 784446 * _X**2 + 1118880 * _X**3
            + 1045440 * _X**4 + 583200 * _X**5 + 194400 * _X**6
        )
    ) / (2 * (17 + 15 * _X + 15 * _X**2) ** 2 * (11 + 36 * _X + 36 * _X**2) ** 2),
}


def log_terms(x, a):
    """L's two log terms at x as (weight, argument) pairs:

        L(x, a) = log(x^2 + x + (3a+1)/3) / (90 a^2 + 2)
                + 45 a^2 log(x^2 + x + (15a-1)/(45a)) / (90 a^2 + 2).

    Plain arithmetic over an mpf, ``Fraction`` or ``Poly`` x and a number a.
    Requires a > 1/15 so that both arguments stay positive for x >= 0.
    """
    if not a * 15 > 1:
        raise ValueError("domain error: parameter a must exceed 1/15")
    denom = 90 * a * a + 2
    base = x * x + x
    return (
        (1 / denom, base + (3 * a + 1) / 3),
        (45 * a * a / denom, base + (15 * a - 1) / (45 * a)),
    )


def yang_lx(x, a):
    """L_x(x, a) as plain arithmetic: a ``RationalFn`` for ``Poly`` x, else a number."""
    two_x1 = 2 * x + 1
    return sum(w * two_x1 / u for w, u in log_terms(x, a))


def yang_lxx(x, a):
    """L_xx(x, a) as plain arithmetic, like ``yang_lx``."""
    sq = (2 * x + 1) ** 2
    return sum(w * (2 * u - sq) / (u * u) for w, u in log_terms(x, a))


@lru_cache(maxsize=None)
def derive_lx(a) -> RationalFn:
    """L_x(., a) derived from L itself: w u'/u summed over the two log terms.

    Independent of the hand-written ``yang_lx``: only the log terms and
    ``Poly.derivative`` enter.
    """
    return sum(w * u.derivative() / u for w, u in log_terms(_X, as_fraction(a)))


@lru_cache(maxsize=None)
def derive_lxx(a) -> RationalFn:
    """L_xx(., a) as the quotient-rule derivative of ``derive_lx(a)``."""
    return derive_lx(a).derivative()


def closed_form_mismatches() -> list[str]:
    """Labels of printed closed forms that fail the symbolic re-derivation."""
    bad = []
    for a, label in ((A_SMALL, "2/5"), (A_LARGE, "4/5")):
        if not derive_lx(a).equivalent(PRINTED_LX[a]):
            bad.append(f"Lx(., {label})")
        if not derive_lxx(a).equivalent(PRINTED_LXX[a]):
            bad.append(f"Lxx(., {label})")
    return bad


def _nonnegative(x):
    """x itself; L and its derivatives are only defined for x >= 0."""
    if not x >= 0:
        raise ValueError("domain error: L requires x >= 0")
    return x


def lx_general(x, a, dps: int = DEFAULT_DPS):
    """L_x(x, a) for x >= 0 and any a > 1/15 (high precision)."""
    return evaluate_rational(lambda x, a: yang_lx(_nonnegative(x), a), dps, x, a)


def lxx_general(x, a, dps: int = DEFAULT_DPS):
    """L_xx(x, a) for x >= 0 and any a > 1/15 (high precision)."""
    return evaluate_rational(lambda x, a: yang_lxx(_nonnegative(x), a), dps, x, a)


def error_budget(dps: int):
    """Certification threshold for high-precision inequality margins.

    1e-30 at the library's standard 50-digit precision; widened when the
    caller asks for fewer digits so that arithmetic noise stays far below
    the certification line.
    """
    return context(dps).mpf(10) ** (-min(30, dps - 2))


def sandwich_margins(x, dps: int = DEFAULT_DPS) -> dict:
    """The four sandwich margins at x > 0 (all positive when the bounds hold).

    Keys: lower/upper margins of L_x(., 4/5) < psi'(x+1) < L_x(., 2/5) and
    of L_xx(., 2/5) < psi''(x+1) < L_xx(., 4/5).  psi'(x+1) and psi''(x+1),
    at the exact sum of the Decimal x and 1, are the midpoints of their
    enclosures at the bits of dps + GUARD_DIGITS digits (220 bits at 30
    digits, against 170 for ``psi1``), each divided once into a Decimal.
    """

    def raw(x, small, large):
        if not x > 0:
            raise ValueError("domain error: sandwich bounds require x > 0")
        t = Fraction(x) + 1
        ends = (stirling_enclosure(t, k, dps + GUARD_DIGITS) for k in (1, 2))
        p1, p2 = (Decimal(lo + hi) / (2 << scale) for lo, hi, scale in ends)
        return {
            "psi1_above_lx45": p1 - yang_lx(x, large),
            "psi1_below_lx25": yang_lx(x, small) - p1,
            "psi2_above_lxx25": p2 - yang_lxx(x, small),
            "psi2_below_lxx45": yang_lxx(x, large) - p2,
        }

    return evaluate_rational(raw, dps, x, A_SMALL, A_LARGE)


def _alzer_sum(x, s, n: int):
    """(1-s) [1/(x+s+n) + sum_{i<n} 1/((x+i+1)(x+i+s))] as plain arithmetic."""
    acc = 1 / (x + s + n)
    for i in range(n):
        acc += 1 / ((x + i + 1) * (x + i + s))
    return (1 - s) * acc


@lru_cache(maxsize=None)
def alzer_bracket_rf(n: int) -> RationalFn:
    """The n-term bound as a bivariate rational function.

    Convention: the digamma difference being bounded is
    psi(y+1) - psi(y+x), i.e. the offset s is the variable x and the
    argument is the variable y (the orientation used in the main proof).
    """
    return _alzer_sum(BiPoly.y(), BiPoly.x(), n)
