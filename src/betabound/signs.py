"""Sign criterion for one-sign-change polynomials and certified root enclosures.

A polynomial whose coefficient sequence is nonnegative up to some index and
nonpositive afterwards (with at least one strict coefficient on each side)
has exactly one positive crossing root: it is positive below it and negative
above it.  The mirror image (nonpositive then nonnegative) behaves the same
with signs reversed.  This module classifies coefficient patterns, turns a
single exact evaluation into a one-sided positivity certificate, and
encloses the crossing root by bisection on exact sign evaluations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polys import Poly, as_fraction

DEFAULT_WIDTH = Fraction(1, 10**6)


class PatternKind(enum.Enum):
    PN = "PN"                 # nonnegative block, then nonpositive block
    NP = "NP"                 # nonpositive block, then nonnegative block
    ALL_NONNEG = "AllNonneg"
    ALL_NONPOS = "AllNonpos"
    OTHER = "Other"


@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] with exactly opposite signs at the endpoints."""

    lo: Fraction
    hi: Fraction


def classify(p: Poly) -> PatternKind:
    """Classify the coefficient sign pattern of a nonzero polynomial.

    Zero coefficients may sit inside either block.  More than one sign
    change among the nonzero coefficients yields ``OTHER``.
    """
    if p.is_zero:
        raise ValueError("degenerate input: zero polynomial")
    # the denominator is positive, so the numerators carry the signs
    signs = [n > 0 for _, n in sorted(p.nums.items())]
    lead = signs[0]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes == 0:
        return PatternKind.ALL_NONNEG if lead else PatternKind.ALL_NONPOS
    if changes > 1:
        return PatternKind.OTHER
    return PatternKind.PN if lead else PatternKind.NP


def _require(p: Poly, *kinds: PatternKind) -> None:
    """Raise unless the pattern of `p` is one of `kinds`."""
    kind = classify(p)
    if kind not in kinds:
        expected = " or ".join(k.value for k in kinds)
        raise ValueError(
            f"criterion inapplicable: expected {expected} pattern, "
            f"got {kind.value}"
        )


def positive_below(p: Poly, x1) -> bool:
    """For a PN polynomial: p(x1) > 0 certifies p > 0 on (0, x1].

    An exact zero at x1 returns False: the conclusion only holds strictly
    below the crossing root.
    """
    _require(p, PatternKind.PN)
    return p(as_fraction(x1)) > 0


def negative_below(p: Poly, x1) -> bool:
    """For an NP polynomial: p(x1) < 0 certifies p < 0 on (0, x1]."""
    _require(p, PatternKind.NP)
    return p(as_fraction(x1)) < 0


def isolate_crossing(p: Poly, lo, hi, width=DEFAULT_WIDTH) -> Enclosure:
    """Bisect [lo, hi] down to `width` around the unique sign change.

    Endpoint signs must already be strictly opposite; every returned
    enclosure keeps that property, so it certifiably brackets the root.
    The bracket is integers a, b over one denominator, doubled per halving.
    """
    lo, hi, width = as_fraction(lo), as_fraction(hi), as_fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    _require(p, PatternKind.PN, PatternKind.NP)
    flo, fhi = p(lo), p(hi)
    if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError("no bracket: endpoint signs are not strictly opposite")
    den = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    while (b - a) * width.denominator > width.numerator * den:
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        fm = p(Fraction(m, den))
        if fm == 0:
            # Exact hit: the crossing is strict on both sides, so nudge
            # within the current bracket to restore opposite endpoint signs.
            mid, step = Fraction(m, den), min(width / 2, Fraction(b - a, 4 * den))
            lo2, hi2 = mid - step, mid + step
            if (p(lo2) > 0) != (p(hi2) > 0):
                return Enclosure(lo2, hi2)
            raise ValueError("no bracket: flat region around exact root")
        if (fm > 0) == (flo > 0):
            a = m
        else:
            b = m
    return Enclosure(Fraction(a, den), Fraction(b, den))


def verify_root_ordering(enclosures: Sequence[Enclosure]) -> bool:
    """True iff the crossing-root enclosures are pairwise disjoint, increasing.

    Certifies the chain "p_j negative implies p_{j+1} negative" (NP case) on
    the bracket the enclosures were isolated in.  Enclosures that overlap
    cannot be ordered and raise instead of guessing.
    """
    ordered = True
    for a, b in zip(enclosures, enclosures[1:]):
        if a.hi < b.lo:
            continue
        if b.hi < a.lo:
            ordered = False
            continue
        raise ValueError("refine width: enclosures overlap at requested width")
    return ordered


@dataclass(frozen=True)
class RootDigits:
    """Outcome of checking printed decimal digits against an enclosure."""

    prefix: str
    enclosure: Enclosure
    certified: bool      # every point of the enclosure truncates to prefix
    consistent: bool     # enclosure meets [prefix, prefix + 1 ulp]


def truncate_decimal(value: Fraction, places: int) -> str:
    """Decimal truncation toward zero with exactly `places` digits."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**places
    digits = int(scaled)  # floor for nonnegative
    whole, frac = divmod(digits, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def check_printed_digits(enclosure: Enclosure, prefix: str) -> RootDigits:
    """Compare a printed decimal prefix (a truncation) with an enclosure."""
    places = len(prefix.split(".")[1])
    t = Fraction(prefix)
    ulp = Fraction(1, 10**places)
    certified = (
        truncate_decimal(enclosure.lo, places) == prefix
        and truncate_decimal(enclosure.hi, places) == prefix
    )
    consistent = not (enclosure.hi < t or enclosure.lo > t + ulp)
    return RootDigits(prefix, enclosure, certified, consistent)
