"""The library's named constants and their reference decimal digits.

Five numbers recur throughout the bound machinery:

* ``alpha`` = 2 pi^2 / 3 - 4, the best-possible constant of the classical
  rational two-sided bound for B(x, y) on (0,1]^2 (its partner ``beta`` is
  exactly 1);
* ``a1``, ``a2``, ``a3``: the best-possible parameters of the psi'/psi''
  sandwich; a1 and a2 have closed forms, a3 is the root of
  L_xx(0, a) = psi''(1) and is found by bisection on that monotone map;
* ``alzer_max``: max over x >= 1 of 1/x^2 - Gamma(x)^2 / Gamma(2x).

``REFERENCE_DIGITS`` holds the decimal prefixes these constants are known
to print to; ``agrees_with_printed`` implements the "last printed digit
within one ulp" acceptance rule used across the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .psibounds import A_LARGE, A_SMALL, lx_general, lxx_general
from .specials import DEFAULT_DPS, evaluate, locate_delta_max, psi1, psi2

# bracket width at which solve_a3 stops bisecting; fixed, whatever the precision
A3_TOL = "1e-15"

REFERENCE_DIGITS = {
    "alpha": "2.57973",
    "a1": "0.79003",
    "a2": "0.47053",
    "a3": "0.43218",
    "alzer_max": "0.08731",
}


def agrees_with_printed(value, printed: str) -> bool:
    """|value - printed prefix| <= one unit in the prefix's last place, compared
    exactly; `value` is an int, a Fraction or an mpf, and a non-finite mpf
    never agrees."""
    places = len(printed.split(".")[1]) if "." in printed else 0
    if hasattr(value, "man_exp"):  # a finite mpf is (-1)^sign man 2^exp exactly
        if not value.context.isfinite(value):
            return False
        sign, man, exp, _ = value._mpf_
        value = (-1) ** sign * man * Fraction(2) ** exp
    return abs(Fraction(value) - Fraction(printed)) <= Fraction(1, 10**places)


def alpha(dps: int = DEFAULT_DPS):
    """2 pi^2 / 3 - 4 = 2.57973..."""
    return evaluate(lambda work: 2 * work.pi**2 / 3 - 4, dps)


def a1(dps: int = DEFAULT_DPS):
    """(40 + 3 sqrt(205)) / 105 = 0.79003..."""
    return evaluate(lambda work: (40 + 3 * work.sqrt(205)) / 105, dps)


def a2(dps: int = DEFAULT_DPS):
    """(45 - 4 pi^2 + 3 sqrt(4 pi^4 - 80 pi^2 + 405)) / (30 (pi^2 - 9))."""

    def raw(work):
        pi2 = work.pi**2
        return (45 - 4 * pi2 + 3 * work.sqrt(4 * pi2**2 - 80 * pi2 + 405)) / (
            30 * (pi2 - 9)
        )

    return evaluate(raw, dps)


def solve_a3(dps: int = DEFAULT_DPS):
    """The unique solution of L_xx(0, a) = psi''(1), by bisection to ``A3_TOL``.

    a -> L_xx(0, a) is increasing on (1/15, oo), so the root in (1/15, 2)
    is unique and plain bisection on the sign of the difference converges.
    """

    def bisect(work):
        target = psi2(1, work.dps)

        def gap(am):
            return lxx_general(0, am, work.dps) - target

        lo = work.mpf(1) / 15 + work.mpf("1e-9")
        hi = work.mpf(2)
        flo, fhi = gap(lo), gap(hi)
        if not (flo < 0 < fhi):
            raise RuntimeError(
                "no sign change on the a3 bracket (indicates an implementation bug)"
            )
        tol = work.mpf(A3_TOL)
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    return evaluate(bisect, dps)


class NamedConstants(NamedTuple):
    alpha: object
    beta_const: Fraction
    a1: object
    a2: object
    a3: object
    alzer_max: object
    delta_argmax: object  # where Delta peaks; `betabound constants` prints it


def compute_constants(dps: int = DEFAULT_DPS) -> NamedConstants:
    dmax = locate_delta_max(dps)
    return NamedConstants(
        alpha=alpha(dps),
        beta_const=Fraction(1),
        a1=a1(dps),
        a2=a2(dps),
        a3=solve_a3(dps),
        alzer_max=dmax.value,
        delta_argmax=dmax.x,
    )


def full_sandwich(x, dps: int = DEFAULT_DPS) -> list[tuple[str, object]]:
    """Both five-member sandwich chains at x, in ascending order.

    Returns labelled values for
    L_x(x,4/5) < L_x(x,a1) < psi'(x+1) < L_x(x,a2) < L_x(x,2/5) and
    L_xx(x,2/5) < L_xx(x,a3) < psi''(x+1) < L_xx(x,a1) < L_xx(x,4/5).
    x < 0 is a domain error, raised by the first L_x member.
    """

    def chain(work, x):
        c1, c2, c3 = a1(dps), a2(dps), solve_a3(dps)
        return {
            "Lx(x, 4/5)": lx_general(x, A_LARGE, dps),
            "Lx(x, a1)": lx_general(x, c1, dps),
            "psi'(x+1)": psi1(x + 1, dps),
            "Lx(x, a2)": lx_general(x, c2, dps),
            "Lx(x, 2/5)": lx_general(x, A_SMALL, dps),
            "Lxx(x, 2/5)": lxx_general(x, A_SMALL, dps),
            "Lxx(x, a3)": lxx_general(x, c3, dps),
            "psi''(x+1)": psi2(x + 1, dps),
            "Lxx(x, a1)": lxx_general(x, c1, dps),
            "Lxx(x, 4/5)": lxx_general(x, A_LARGE, dps),
        }

    return list(evaluate(chain, dps, x).items())


__all__ = [
    "A3_TOL",
    "REFERENCE_DIGITS",
    "NamedConstants",
    "a1",
    "a2",
    "agrees_with_printed",
    "alpha",
    "compute_constants",
    "full_sandwich",
    "solve_a3",
]
