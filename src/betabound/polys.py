"""Exact polynomial algebra over arbitrary-precision rationals.

The rational scalar type is ``fractions.Fraction`` (always canonical:
positive denominator, gcd-reduced).  On top of it this module provides
immutable univariate polynomials (``Poly``), sparse bivariate polynomials
(``BiPoly``) and formal quotients (``RationalFn``).  Everything is exact;
no floating point enters any operation here.

Equality of rational functions is decided by cross-multiplication and
expansion, never by sampling, so a ``True`` from ``RationalFn.equivalent`` is
a certificate.  Polynomial division/GCD is deliberately not implemented.

Products run over integers: each operand is scaled once to integer
numerators over the lcm of its denominators, the numerators are convolved
as Python ints, and each output coefficient is one ``Fraction(n, D1 * D2)``
(zeros dropped), so the stored coefficients stay canonical Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterable, Mapping


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


class Poly:
    """Univariate polynomial; ``coeffs[k]`` is the degree-k coefficient.

    Trailing zero coefficients are stripped on construction, so the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    Instances are immutable values: share them freely.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _wrap(coeffs: tuple) -> "Poly":
        """A Poly over canonical Fractions with a nonzero last entry, as is."""
        p = object.__new__(Poly)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return "Poly(" + " + ".join(parts) + ")"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            (self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly((-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        left, left_den = _scaled(self.coeffs)
        right, right_den = _scaled(other.coeffs)
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            if a:
                for j, b in enumerate(right):
                    out[i + j] += a * b
        den = left_den * right_den
        # both leading coefficients are nonzero, so the product's is too
        return Poly._wrap(tuple(Fraction(n, den) for n in out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / as_fraction(other)
            return Poly((c * inv for c in self.coeffs))
        if isinstance(other, Poly):
            return RationalFn(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFn(Poly((other,)), self)
        return NotImplemented

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments."""
        if isinstance(x, str):
            x = Fraction(x)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        return acc

    def derivative(self) -> "Poly":
        """Formal derivative with exact coefficients."""
        return Poly((k * c for k, c in enumerate(self.coeffs) if k > 0))

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), expanded exactly (Horner over the polynomial ring)."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly((c,))
        return acc

    # -- serialization --------------------------------------------------

    def to_json(self, var: str = "x") -> dict:
        return {"var": var, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: Mapping) -> "Poly":
        return Poly(Fraction(c) for c in obj["coeffs"])


class BiPoly:
    """Sparse bivariate polynomial: map (x-degree, y-degree) -> coefficient.

    Zero coefficients are never stored.  Degrees in this library stay small
    (well under 30 per variable), so sparsity is the only tuning needed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping = ()):
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            c = as_fraction(c)
            if c != 0:
                key = (int(i), int(j))
                clean[key] = clean.get(key, Fraction(0)) + c
        object.__setattr__(
            self, "terms", {k: v for k, v in clean.items() if v != 0}
        )

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @staticmethod
    def _wrap(terms: dict) -> "BiPoly":
        """A BiPoly over nonzero canonical Fractions with int keys, as is."""
        p = object.__new__(BiPoly)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ---------------------------------------------------

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def from_x_poly(p: Poly) -> "BiPoly":
        return BiPoly({(k, 0): c for k, c in enumerate(p.coeffs)})

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(("BiPoly", tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero:
            return "BiPoly(0)"
        bits = [
            f"{c}*x^{i}*y^{j}" for (i, j), c in sorted(self.terms.items())
        ]
        return "BiPoly(" + " + ".join(bits) + ")"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        left, left_den = _scaled(self.terms.values())
        right, right_den = _scaled(other.terms.values())
        right = list(zip(other.terms, right))
        out: dict = {}
        for (i1, j1), a in zip(self.terms, left):
            for (i2, j2), b in right:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + a * b
        den = left_den * right_den
        return BiPoly._wrap(
            {key: Fraction(n, den) for key, n in out.items() if n}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / as_fraction(other)
            return BiPoly({k: c * inv for k, c in self.terms.items()})
        if isinstance(other, BiPoly):
            return RationalFn(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFn(BiPoly.const(other), self)
        return NotImplemented

    # -- evaluation and calculus ---------------------------------------------

    def y_coefficients(self) -> list[Poly]:
        """Coefficient polynomials in x, indexed by the power of y."""
        out: list[list] = [[] for _ in range(self.degree_y + 1)]
        for (i, j), c in self.terms.items():
            row = out[j]
            while len(row) <= i:
                row.append(Fraction(0))
            row[i] += c
        return [Poly(row) for row in out]

    def __call__(self, x, y):
        """Evaluate via Horner in y over the x-coefficient polynomials."""
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(y, str):
            y = Fraction(y)
        coeffs = [p(x) for p in self.y_coefficients()]
        acc = None
        for c in reversed(coeffs):
            acc = c if acc is None else acc * y + c
        if acc is None:
            return Fraction(0) if isinstance(y, (int, Fraction)) else 0 * y
        return acc

    def partial_x(self) -> "BiPoly":
        return BiPoly(
            {(i - 1, j): i * c for (i, j), c in self.terms.items() if i > 0}
        )

    def partial_y(self) -> "BiPoly":
        return BiPoly(
            {(i, j - 1): j * c for (i, j), c in self.terms.items() if j > 0}
        )

    def substitute_y(self, p: Poly) -> Poly:
        """Replace y by a polynomial in x; the result is univariate in x."""
        out = Poly()
        for q, cp in zip(self.y_coefficients(), _powers(p, self.degree_y)):
            out = out + q * cp
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        terms = [
            [i, j, str(c)] for (i, j), c in sorted(self.terms.items())
        ]
        return {"terms": terms}

    @staticmethod
    def from_json(obj: Mapping) -> "BiPoly":
        return BiPoly({(i, j): Fraction(c) for i, j, c in obj["terms"]})


def _powers(p: Poly, top: int) -> list[Poly]:
    out = [Poly((1,))]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


class RationalFn:
    """Formal quotient of two polynomials (both Poly, or both BiPoly).

    Denominators must be nonzero polynomials.  No common-factor reduction
    is performed; equivalence is the cross-multiplied zero test.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num, den = _promote_pair(num, den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @staticmethod
    def from_ring(elem) -> "RationalFn":
        one = Poly((1,)) if isinstance(elem, Poly) else BiPoly.const(1)
        return RationalFn(elem, one)

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, (int, Fraction, Poly, BiPoly)):
            promoted = _promote_scalar(other, like=self.num)
            return RationalFn.from_ring(promoted)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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


def _promote_scalar(value, like):
    """Lift a scalar or mismatched polynomial into the ring of `like`."""
    if isinstance(like, BiPoly):
        if isinstance(value, BiPoly):
            return value
        if isinstance(value, Poly):
            return BiPoly.from_x_poly(value)
        return BiPoly.const(value)
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    raise TypeError(f"cannot mix {type(value).__name__} with Poly")


def _promote_pair(num, den):
    if isinstance(num, BiPoly) or isinstance(den, BiPoly):
        num = _promote_scalar(num, like=BiPoly.const(0))
        den = _promote_scalar(den, like=BiPoly.const(0))
    else:
        num = _promote_scalar(num, like=Poly())
        den = _promote_scalar(den, like=Poly())
    return num, den

