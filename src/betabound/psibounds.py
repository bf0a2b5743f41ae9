"""Rational sandwich bounds for psi' and psi'' from Yang's two-log function.

Yang's function

    L(x, a) = log(x^2 + x + (3a+1)/3) / (90 a^2 + 2)
            + 45 a^2 log(x^2 + x + (15a-1)/(45a)) / (90 a^2 + 2)

has x-derivatives that sandwich psi'(x+1) and psi''(x+1) for the parameter
choices used here (a = 2/5 and a = 4/5 on the outside, the best-possible
constants a1, a2, a3 inside).  The closed forms of L_x and L_xx at a = 2/5
and 4/5 are hard-coded below exactly as displayed in the source material
and independently re-derived by symbolic differentiation, so a
transcription error on either side is caught by ``verify_closed_forms``.

Also here: Alzer's lower bound for the digamma difference
psi(x+1) - psi(x+s), implemented for general truncation order n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .polys import BiPoly, Poly, RationalFn, as_fraction
from .specials import DEFAULT_DPS, context, evaluate, psi1, psi2, to_mpf

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


def log_arguments(a):
    """Weights and quadratic constants (w1, w2, c1, c2) of the two log terms.

    Plain arithmetic: exact for a ``Fraction``, mpf for an mpf.  Requires
    a > 1/15 so that both log arguments stay positive for x >= 0.
    """
    if not a * 15 > 1:
        raise ValueError("domain error: parameter a must exceed 1/15")
    denom = 90 * a * a + 2
    w1 = 1 / denom
    w2 = 45 * a * a / denom
    c1 = (3 * a + 1) / 3
    c2 = (15 * a - 1) / (45 * a)
    return w1, w2, c1, c2


def yang_lx(x, a):
    """L_x(x, a) as plain arithmetic: a ``RationalFn`` for ``Poly`` x, else a number."""
    w1, w2, c1, c2 = log_arguments(a)
    two_x1 = 2 * x + 1
    return w1 * two_x1 / (x * x + x + c1) + w2 * two_x1 / (x * x + x + c2)


def yang_lxx(x, a):
    """L_xx(x, a) as plain arithmetic, like ``yang_lx``."""
    w1, w2, c1, c2 = log_arguments(a)
    u1 = x * x + x + c1
    u2 = x * x + x + c2
    sq = (2 * x + 1) ** 2
    return w1 * (2 * u1 - sq) / (u1 * u1) + w2 * (2 * u2 - sq) / (u2 * u2)


def derive_lx(a) -> RationalFn:
    """L_x(., a) derived from L itself: w u'/u summed over the two log terms.

    Independent of the hand-written ``yang_lx``: only the log arguments and
    ``Poly.derivative`` enter.
    """
    w1, w2, c1, c2 = log_arguments(as_fraction(a))
    u1, u2 = _X * _X + _X + c1, _X * _X + _X + c2
    return w1 * u1.derivative() / u1 + w2 * u2.derivative() / u2


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


def verify_closed_forms() -> bool:
    """True iff all four printed derivative forms match the symbolic ones."""
    return not closed_form_mismatches()


def _nonnegative(x):
    """x itself; L and its derivatives are only defined for x >= 0."""
    if not x >= 0:
        raise ValueError("domain error: L requires x >= 0")
    return x


def _l_raw(work, x, a):
    x = _nonnegative(x)
    w1, w2, c1, c2 = log_arguments(a)
    return w1 * work.ln(x * x + x + c1) + w2 * work.ln(x * x + x + c2)


def l_value(x, a, dps: int = DEFAULT_DPS):
    """Yang's L(x, a) itself (high precision), for x >= 0 and a > 1/15."""
    return evaluate(_l_raw, dps, x, a)


def lx_general(x, a, dps: int = DEFAULT_DPS):
    """L_x(x, a) for x >= 0 and any a > 1/15 (high precision)."""
    return evaluate(lambda work, x, a: yang_lx(_nonnegative(x), a), dps, x, a)


def lxx_general(x, a, dps: int = DEFAULT_DPS):
    """L_xx(x, a) for x >= 0 and any a > 1/15 (high precision)."""
    return evaluate(lambda work, x, a: yang_lxx(_nonnegative(x), a), dps, x, a)


def error_budget(dps: int):
    """Certification threshold for high-precision inequality margins.

    1e-30 at the library's standard 50-digit precision; widened when the
    caller asks for fewer digits so that arithmetic noise stays far below
    the certification line.
    """
    return context(dps).mpf(10) ** (-min(30, dps - 2))


def certified_sign(value, dps: int) -> int:
    """+1 or -1 when |value| exceeds 10x the error budget, else 0.

    The band |value| <= 10x budget is the package's one certification
    threshold: a value inside it is indistinguishable from 0 at `dps` digits.
    """
    threshold = 10 * error_budget(dps)
    return (value > threshold) - (value < -threshold)


def _sandwich_raw(work, x) -> dict:
    if not x > 0:
        raise ValueError("domain error: sandwich bounds require x > 0")
    p1 = psi1(x + 1, work.dps)
    p2 = psi2(x + 1, work.dps)
    small, large = to_mpf(work, A_SMALL), to_mpf(work, A_LARGE)
    return {
        "psi1_above_lx45": p1 - yang_lx(x, large),
        "psi1_below_lx25": yang_lx(x, small) - p1,
        "psi2_above_lxx25": p2 - yang_lxx(x, small),
        "psi2_below_lxx45": yang_lxx(x, large) - p2,
    }


def sandwich_margins(x, dps: int = DEFAULT_DPS) -> dict:
    """The four sandwich margins at x > 0 (all positive when the bounds hold).

    Keys: lower/upper margins of L_x(., 4/5) < psi'(x+1) < L_x(., 2/5) and
    of L_xx(., 2/5) < psi''(x+1) < L_xx(., 4/5).
    """
    return evaluate(_sandwich_raw, dps, x)


def sandwich_check(x, dps: int = DEFAULT_DPS) -> bool:
    """True iff both sandwiches hold at x with margin over 10x the budget.

    Margins inside the budget band are neither certifiable nor refutable
    and raise instead of guessing.
    """
    signs = [certified_sign(m, dps) for m in sandwich_margins(x, dps).values()]
    if all(sign == 1 for sign in signs):
        return True
    if -1 in signs:
        return False
    raise ValueError("inconclusive: sandwich margin within the error budget")


def _alzer_sum(x, s, n: int):
    """(1-s) [1/(x+s+n) + sum_{i<n} 1/((x+i+1)(x+i+s))] as plain arithmetic."""
    acc = 1 / (x + s + n)
    for i in range(n):
        acc += 1 / ((x + i + 1) * (x + i + s))
    return (1 - s) * acc


def alzer_psi_diff_lower(x, s, n: int, dps: int = DEFAULT_DPS):
    """Alzer's lower bound for psi(x+1) - psi(x+s).

    Value of (1-s) [ 1/(x+s+n) + sum_{i=0}^{n-1} 1/((x+i+1)(x+i+s)) ]
    for x > 0, s in (0, 1), integer n >= 0.  Exact Fraction on rational
    input, mpf otherwise.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("domain error: n must be a nonnegative integer")

    def checked(work, x, s):
        if not 0 < s < 1:
            raise ValueError("domain error: s must lie in (0, 1)")
        if not x > 0:
            raise ValueError("domain error: x must be positive")
        return _alzer_sum(x, s, n)

    if isinstance(x, (int, Fraction)) and isinstance(s, (int, Fraction)):
        return checked(None, as_fraction(x), as_fraction(s))
    return evaluate(checked, dps, x, s)


@lru_cache(maxsize=None)
def alzer_bracket_rf(n: int) -> RationalFn:
    """The n-term bound as a bivariate rational function.

    Convention: the digamma difference being bounded is
    psi(y+1) - psi(y+x), i.e. the offset s is the variable x and the
    argument is the variable y (the orientation used in the main proof).
    """
    return _alzer_sum(BiPoly.y(), BiPoly.x(), n)
