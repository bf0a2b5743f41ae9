"""Exact polynomial algebra over arbitrary-precision rationals.

The rational scalar type is ``fractions.Fraction``.  On top of it this module
provides immutable univariate polynomials (``Poly``), bivariate polynomials
(``BiPoly``) and formal quotients (``RationalFn``).  Everything is exact; no
floating point enters any operation here, and a ``Poly`` or ``BiPoly``
evaluates only at ``int`` and ``Fraction`` arguments.

Both polynomial types are stored one way, as integer numerators over one
common denominator: ``nums`` maps each exponent (an ``int`` for ``Poly``, an
``(i, j)`` pair for ``BiPoly``) to a nonzero ``int``, and ``den`` is a
positive ``int`` with gcd(den, *nums) = 1; the zero polynomial has no
numerators and ``den == 1``.  So each value has exactly one representation,
``==`` and hashing compare (den, nums), and ``terms`` (exponent to
``Fraction``) is a read-only view.  The ring operations (``+``, ``-``, ``*``,
``**``, division by a scalar, ``==`` and hashing) are written once, in the
private base ``_Sparse``, which needs from each type only how its exponents
add.  A sum rescales both sides to the lcm of the two denominators; a product
convolves the numerators as Python ints and divides out one gcd.  The two
rings never mix: ``Poly + BiPoly`` raises ``TypeError``, and ``RationalFn``
lifts a ``Poly`` into the bivariate ring where it must.

Equality of rational functions is decided by cross-multiplication and
expansion, never by sampling, so a ``True`` from ``RationalFn.equivalent`` is
a certificate.  Polynomial division/GCD is deliberately not implemented.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _horner(coeffs: Sequence, x):
    """sum(coeffs[k] * x**k) by Horner's rule, for a polynomial x."""
    return functools.reduce(lambda acc, c: acc * x + c, reversed(coeffs), 0 * x)


def _coerced(op):
    """Binary method `op` on ``self._coerce(other)``; NotImplemented if None."""

    @functools.wraps(op)
    def method(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else op(self, other)

    return method


class _Sparse:
    """Ring arithmetic shared by ``Poly`` and ``BiPoly``.

    ``nums`` maps exponents to nonzero ints over the positive int ``den``,
    with gcd(den, *nums) = 1.  A subclass sets ``ONE`` (the exponent of the
    constant term), ``_add`` (which adds two exponents) and
    ``__mul__ = __rmul__``.  Instances are immutable values.
    """

    __slots__ = ("nums", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, nums: dict, den: int) -> None:
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _store_terms(self, terms: Mapping) -> None:
        """Store `terms` (exponent to Fraction, zeros allowed) over the lcm
        of their denominators, which leaves gcd(den, *nums) = 1."""
        den = math.lcm(*(c.denominator for c in terms.values()))
        self._store({k: c.numerator * (den // c.denominator)
                     for k, c in terms.items() if c}, den)

    @classmethod
    def _wrap(cls, nums: dict, den: int):
        """An instance over `nums` and `den` as is: already canonical."""
        p = object.__new__(cls)
        p._store(nums, den)
        return p

    @classmethod
    def _reduced(cls, nums: dict, den: int):
        """An instance over `nums` / `den` (den > 0) with zeros and the common
        factor of den and the numerators removed."""
        g = math.gcd(den, *nums.values())
        return cls._wrap({k: n // g for k, n in nums.items() if n}, den // g)

    @classmethod
    def const(cls, c):
        c = as_fraction(c)
        return cls._wrap({cls.ONE: c.numerator} if c else {}, c.denominator)

    @property
    def terms(self) -> dict:
        """Exponent to coefficient, a nonzero Fraction (a fresh dict)."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @_coerced
    def __eq__(self, other) -> bool:
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((type(self).__name__, self.den, frozenset(self.nums.items())))

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
        den = math.lcm(self.den, other.den)
        scale = den // other.den
        out = {k: n * scale for k, n in other.nums.items()}
        scale = den // self.den
        for key, n in self.nums.items():
            out[key] = out.get(key, 0) + n * scale
        return self._reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({key: -n for key, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_coerced
    def __mul__(self, other):
        add = self._add
        right = list(other.nums.items())
        out: dict = {}
        for e1, a in self.nums.items():
            for e2, b in right:
                key = add(e1, e2)
                out[key] = out.get(key, 0) + a * b
        return self._reduced(out, self.den * other.den)

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
            inv = 1 / as_fraction(other)
            nums = {key: n * inv.numerator for key, n in self.nums.items()}
            return self._reduced(nums, self.den * inv.denominator)
        if isinstance(other, type(self)):
            return RationalFn(self, other)
        return NotImplemented

    @_coerced
    def __rtruediv__(self, other):
        return RationalFn(other, self)


class Poly(_Sparse):
    """Univariate polynomial; the exponent is the power of x.

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
        self._store_terms(dict(enumerate(map(as_fraction, coeffs))))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @property
    def coeffs(self) -> tuple:
        return tuple([self.coefficient(k) for k in range(self.degree + 1)])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.nums, default=-1)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums.get(k, 0), self.den)

    def __repr__(self):
        powers = {0: "", 1: "*x"}
        parts = [f"{c}{powers.get(k, f'*x^{k}')}" for k, c in sorted(self.terms.items())]
        return "Poly(" + (" + ".join(parts) or "0") + ")"

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, x):
        """The exact value at an int or a Fraction x; any other x raises TypeError.

        At x = a/b, Horner's rule runs on integers, forms the sum of
        n_k a^k b^(d-k) and divides it once by den b^d.
        """
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"Poly evaluates at an int or a Fraction, not {x!r}")
        nums, d = self.nums, self.degree
        if d < 0:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        acc, scale = nums[d], 1
        for k in range(d - 1, -1, -1):
            scale *= b
            acc = acc * a + nums.get(k, 0) * scale
        return Fraction(acc, self.den * scale)

    def derivative(self) -> "Poly":
        """Formal derivative with exact coefficients."""
        return Poly._reduced({k - 1: k * n for k, n in self.nums.items() if k}, self.den)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), expanded exactly (Horner over the polynomial ring)."""
        return _horner(self.coeffs, inner)

    # -- serialization --------------------------------------------------

    @staticmethod
    def from_json(obj: Mapping) -> "Poly":
        return Poly(Fraction(c) for c in obj["coeffs"])


class BiPoly(_Sparse):
    """Bivariate polynomial; exponents are (x-degree, y-degree) pairs.

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
            key = (operator.index(i), operator.index(j))
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            clean[key] = clean.get(key, 0) + as_fraction(c)
        self._store_terms(clean)

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    @staticmethod
    def from_x_poly(p: Poly) -> "BiPoly":
        return BiPoly._wrap({(k, 0): n for k, n in p.nums.items()}, p.den)

    # -- structure --------------------------------------------------------

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self.nums), default=-1)

    def __repr__(self):
        bits = [f"{c}*x^{i}*y^{j}" for (i, j), c in sorted(self.terms.items())]
        return "BiPoly(" + (" + ".join(bits) or "0") + ")"

    # -- evaluation and calculus ---------------------------------------------

    def y_coefficients(self) -> list[Poly]:
        """Coefficient polynomials in x, indexed by the power of y."""
        rows: list[dict] = [{} for _ in range(self.degree_y + 1)]
        for (i, j), n in self.nums.items():
            rows[j][i] = n
        return [Poly._reduced(row, self.den) for row in rows]

    def __call__(self, x, y):
        """The exact value at int or Fraction x = a/b and y = c/d (any other argument
        raises TypeError): the integer sum of n_ij a^i b^(DX-i) c^j d^(DY-j), DX and
        DY the degrees in x and y, divided once by den b^DX d^DY."""
        for v in (x, y):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"BiPoly evaluates at ints or Fractions, not {v!r}")
        dx = max((i for i, _ in self.nums), default=0)
        dy = max((j for _, j in self.nums), default=0)
        xs = [x.numerator**i * x.denominator ** (dx - i) for i in range(dx + 1)]
        ys = [y.numerator**j * y.denominator ** (dy - j) for j in range(dy + 1)]
        total = sum(n * xs[i] * ys[j] for (i, j), n in self.nums.items())
        return Fraction(total, self.den * x.denominator**dx * y.denominator**dy)

    def partial_y(self) -> "BiPoly":
        return BiPoly._reduced(
            {(i, j - 1): j * n for (i, j), n in self.nums.items() if j}, self.den
        )

    def substitute_y(self, p: Poly) -> Poly:
        """Replace y by a polynomial in x (Horner in y); the result is in x."""
        return _horner(self.y_coefficients(), p)


class RationalFn:
    """Formal quotient of two polynomials (both Poly, or both BiPoly).

    Denominators must be nonzero polynomials.  No common-factor reduction
    is performed; equivalence compares the two cross products.
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
        """True iff num1*den2 and num2*den1 expand to the same polynomial."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot compare RationalFn with this operand")
        return self.num * other.den == other.num * self.den

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
