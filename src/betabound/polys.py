"""Exact polynomial algebra over arbitrary-precision rationals.

The rational scalar type is ``fractions.Fraction`` (always canonical:
positive denominator, gcd-reduced).  On top of it this module provides
immutable univariate polynomials (``Poly``), bivariate polynomials
(``BiPoly``) and formal quotients (``RationalFn``).  Everything is exact;
no floating point enters any operation here.

Both polynomial types are stored one way, sparsely: ``terms`` maps each
exponent to its coefficient, a nonzero canonical Fraction, and the zero
polynomial has no terms.  The exponent is an ``int`` for ``Poly`` and an
``(i, j)`` pair for ``BiPoly``.  The ring operations (``+``, ``-``, ``*``,
``**``, division by a scalar, ``==`` and hashing) are written once, in the
private base ``_Sparse``, which needs from each type only how its exponents
add.  The two rings never mix: ``Poly + BiPoly`` raises ``TypeError``, and
``RationalFn`` lifts a ``Poly`` into the bivariate ring where it must.

Equality of rational functions is decided by cross-multiplication and
expansion, never by sampling, so a ``True`` from ``RationalFn.equivalent`` is
a certificate.  Polynomial division/GCD is deliberately not implemented.

Products run over integers: each operand is scaled once to integer
numerators over the lcm of its denominators, the numerators are convolved
as Python ints, and each output coefficient is one ``Fraction(n, D1 * D2)``
(zeros dropped), so the stored coefficients stay canonical Fractions.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence


def _scaled(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _horner(coeffs: Sequence, x):
    """sum(coeffs[k] * x**k) by Horner's rule."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
    return acc


def _coerced(op):
    """Binary method `op` on ``self._coerce(other)``; NotImplemented if None."""

    @functools.wraps(op)
    def method(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else op(self, other)

    return method


class _Sparse:
    """Ring arithmetic shared by ``Poly`` and ``BiPoly``.

    ``terms`` maps exponents to nonzero canonical Fractions.  A subclass sets
    ``ONE`` (the exponent of the constant term), ``_add`` (which adds two
    exponents) and ``__mul__ = __rmul__``.  Instances are immutable values.
    """

    __slots__ = ("terms",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _wrap(cls, terms: dict):
        """An instance over `terms` as is: nonzero canonical Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def const(cls, c):
        c = as_fraction(c)
        return cls._wrap({cls.ONE: c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @_coerced
    def __eq__(self, other) -> bool:
        return self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        """`other` as an element of this ring, or None if it is not one."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.const(other)
        return None

    @_coerced
    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            total = out.pop(key, 0) + c
            if total:
                out[key] = total
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_coerced
    def __mul__(self, other):
        add = self._add
        left, left_den = _scaled(self.terms.values())
        right, right_den = _scaled(other.terms.values())
        right = list(zip(other.terms, right))
        out: dict = {}
        for e1, a in zip(self.terms, left):
            for e2, b in right:
                key = add(e1, e2)
                out[key] = out.get(key, 0) + a * b
        den = left_den * right_den
        return self._wrap({key: Fraction(n, den) for key, n in out.items() if n})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if n < 2:
            return self if n == 1 else self.const(1)
        # (p**(n//2))**2, times p for odd n: never a product with the constant 1
        square = self ** (n // 2)
        square = square * square
        return square * self if n & 1 else square

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / as_fraction(other)
            return self._wrap({key: c * inv for key, c in self.terms.items()})
        if isinstance(other, type(self)):
            return RationalFn(self, other)
        return NotImplemented

    @_coerced
    def __rtruediv__(self, other):
        return RationalFn(other, self)


class Poly(_Sparse):
    """Univariate polynomial; ``terms`` maps the power of x to its coefficient.

    ``coeffs`` is a read-only dense view: ``coeffs[k]`` is the degree-k
    coefficient, and the last entry is nonzero (the zero polynomial gives
    the empty tuple).
    """

    __slots__ = ()
    ONE = 0
    _add = staticmethod(operator.add)
    # own class entries rather than inherited ones, so that each ring's
    # product can be wrapped on its own (perfbench/spans.py hooks them)
    __mul__ = __rmul__ = _Sparse.__mul__

    def __init__(self, coeffs: Iterable = ()):
        terms = {k: c for k, c in enumerate(map(as_fraction, coeffs)) if c}
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @property
    def coeffs(self) -> tuple:
        zero = Fraction(0)
        return tuple([self.terms.get(k, zero) for k in range(self.degree + 1)])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def coefficient(self, k: int) -> Fraction:
        return self.terms.get(k, Fraction(0))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for k, c in sorted(self.terms.items()):
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return "Poly(" + " + ".join(parts) + ")"

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments."""
        return _horner(self.coeffs, x)

    def derivative(self) -> "Poly":
        """Formal derivative with exact coefficients."""
        return Poly._wrap({k - 1: k * c for k, c in self.terms.items() if k})

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), expanded exactly (Horner over the polynomial ring)."""
        return _horner([Poly.const(c) for c in self.coeffs], inner)

    # -- serialization --------------------------------------------------

    @staticmethod
    def from_json(obj: Mapping) -> "Poly":
        return Poly(Fraction(c) for c in obj["coeffs"])


class BiPoly(_Sparse):
    """Bivariate polynomial; ``terms`` maps (x-degree, y-degree) to its coefficient.

    Degrees in this library stay small (well under 30 per variable), so
    sparsity is the only tuning needed.
    """

    __slots__ = ()
    ONE = (0, 0)
    __mul__ = __rmul__ = _Sparse.__mul__  # own entries, as in Poly

    @staticmethod
    def _add(a: tuple, b: tuple) -> tuple:
        return (a[0] + b[0], a[1] + b[1])

    def __init__(self, terms: Mapping = ()):
        clean: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            key = (int(i), int(j))
            clean[key] = clean.get(key, 0) + as_fraction(c)
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c})

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    @staticmethod
    def from_x_poly(p: Poly) -> "BiPoly":
        return BiPoly._wrap({(k, 0): c for k, c in p.terms.items()})

    # -- structure --------------------------------------------------------

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def __repr__(self):
        if self.is_zero:
            return "BiPoly(0)"
        bits = [
            f"{c}*x^{i}*y^{j}" for (i, j), c in sorted(self.terms.items())
        ]
        return "BiPoly(" + " + ".join(bits) + ")"

    # -- evaluation and calculus ---------------------------------------------

    def y_coefficients(self) -> list[Poly]:
        """Coefficient polynomials in x, indexed by the power of y."""
        rows: list[dict] = [{} for _ in range(self.degree_y + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        return [Poly._wrap(row) for row in rows]

    def __call__(self, x, y):
        """Evaluate via Horner in y over the x-coefficient polynomials."""
        return _horner([p(x) for p in self.y_coefficients()], y)

    def partial_y(self) -> "BiPoly":
        return BiPoly._wrap(
            {(i, j - 1): j * c for (i, j), c in self.terms.items() if j}
        )

    def substitute_y(self, p: Poly) -> Poly:
        """Replace y by a polynomial in x (Horner in y); the result is in x."""
        return _horner(self.y_coefficients(), p)


class RationalFn:
    """Formal quotient of two polynomials (both Poly, or both BiPoly).

    Denominators must be nonzero polynomials.  No common-factor reduction
    is performed; equivalence is the cross-multiplied zero test.
    """

    __slots__ = ("num", "den")
    # immutability and subtraction (as + and unary -) do not depend on the ring
    __setattr__ = _Sparse.__setattr__
    __sub__ = _Sparse.__sub__
    __rsub__ = _Sparse.__rsub__

    def __init__(self, num, den):
        ring = BiPoly if BiPoly in (type(num), type(den)) else Poly
        num, den = _promote(num, ring), _promote(den, ring)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, (int, Fraction, _Sparse)):
            return RationalFn(_promote(other, type(self.num)), 1)
        return None

    @_coerced
    def __add__(self, other):
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    @_coerced
    def __mul__(self, other):
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        return RationalFn(self.num * other.den, self.den * other.num)

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    # -- equivalence and evaluation -----------------------------------------

    def equivalent(self, other) -> bool:
        """True iff num1*den2 - num2*den1 expands to the zero polynomial."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot compare RationalFn with this operand")
        return (self.num * other.den - other.num * self.den).is_zero

    def __eq__(self, other):
        try:
            return self.equivalent(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        raise TypeError("RationalFn is unhashable (equality is equivalence)")

    def __call__(self, *args):
        den = self.den(*args)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num(*args) / den

    def derivative(self) -> "RationalFn":
        """(n'd - nd')/d^2 for univariate quotients."""
        if not isinstance(self.num, Poly):
            raise TypeError("derivative() is for univariate quotients")
        n, d = self.num, self.den
        return RationalFn(n.derivative() * d - n * d.derivative(), d * d)

    def partial_y(self) -> "RationalFn":
        if not isinstance(self.num, BiPoly):
            raise TypeError("partial_y() is for bivariate quotients")
        n, d = self.num, self.den
        return RationalFn(n.partial_y() * d - n * d.partial_y(), d * d)


def _promote(value, ring):
    """`value` (a scalar, Poly or BiPoly) lifted into `ring`, Poly or BiPoly."""
    if isinstance(value, ring):
        return value
    if isinstance(value, (int, Fraction)):
        return ring.const(value)
    if ring is BiPoly and isinstance(value, Poly):
        return BiPoly.from_x_poly(value)
    raise TypeError(f"cannot mix {type(value).__name__} with {ring.__name__}")
