"""Exact polynomial algebra: worked values, ring laws, serialization."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betabound.catalogue import load_catalogue
from betabound.polys import BiPoly, Poly, RationalFn

CAT = load_catalogue()
X = Poly.x()


class TestRationalSubstrate:
    def test_canonical_form(self):
        r = F(-6, -8)
        assert r.numerator == 3 and r.denominator == 4
        assert F(2, -4).denominator > 0

    def test_canonicalization_idempotent(self):
        r = F(-10, 15)
        assert F(r.numerator, r.denominator) == r
        assert (F(r.numerator, r.denominator).numerator, r.denominator) == (
            r.numerator,
            r.denominator,
        )

    def test_structural_equality(self):
        assert F(1, 2) == F(2, 4)
        assert hash(F(1, 2)) == hash(F(3, 6))


class TestPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0,)).is_zero
        assert Poly(()).is_zero
        assert Poly((0,)) == Poly(())

    def test_normalization_idempotent(self):
        p = Poly((F(2, 4), F(6, 3), 0))
        again = Poly(p.coeffs)
        assert again == p and again.coeffs == p.coeffs

    def test_degree_and_leading(self):
        assert Poly((1, 2, 3)).degree == 2
        assert Poly(()).degree == -1
        assert (Poly((0, 1)) * Poly((0, 1))).degree == 2

    def test_eval_printed_values(self):
        assert CAT.p[0](F(3, 20)) == F(75107551, 32000)
        assert CAT.q[4](F(1, 2)) == F(33, 2)

    def test_eval_zero_poly(self):
        assert Poly(())(F(7, 3)) == 0

    def test_derivative_power_rule(self):
        assert (X**2).derivative() == 2 * X
        assert Poly((5,)).derivative().is_zero

    def test_derivative_of_quintic(self):
        # derivative of 37 + 90x - 93x^2 - 636x^3 - 810x^4 - 540x^5,
        # term by term
        expected = Poly((90, -186, -1908, -3240, -2700))
        assert CAT.p[4].derivative() == expected

    def test_compose(self):
        p = 1 + 2 * X + X**2
        assert p.compose(2 * X) == 1 + 4 * X + 4 * X**2

    def test_pow_and_mul_degree(self):
        p = (1 + X) ** 3
        assert p == 1 + 3 * X + 3 * X**2 + X**3

    def test_json_roundtrip(self):
        # the catalogue's form: coefficient strings from degree 0 upward
        p = Poly((F(1, 3), -2, 0, F(7, 5)))
        assert Poly.from_json({"var": "x", "coeffs": ["1/3", "-2", "0", "7/5"]}) == p


class TestBiPolyBasics:
    def test_eval_constant_term(self):
        q = BiPoly({(0, 0): 4, (2, 1): 3})
        assert q(0, 0) == 4

    def test_q_at_printed_points(self):
        assert CAT.Q(0, 1) == -200
        assert CAT.Q(F(1, 2), F(1, 2)) == F(801, 8)

    def test_q_diagonal_matches_factored(self):
        x = F(1, 2)
        inner = 7137 + (1 - x) * (24365 + 375 * x**2) + 5300 * x**2
        factored = F(4, 625) * (1 - x) * (252 + (5 * x - 1) * inner)
        assert CAT.Q(x, 1 - x) == factored

    def test_horner_matches_term_sum(self):
        q = BiPoly({(0, 0): F(1, 2), (1, 2): -3, (2, 0): F(5, 7), (1, 1): 2})
        x, y = F(3, 4), F(-2, 5)
        direct = sum(c * x**i * y**j for (i, j), c in q.terms.items())
        assert q(x, y) == direct

    def test_substitution(self):
        x, y = BiPoly.x(), BiPoly.y()
        p = (x + y) * (x - y)
        assert p.substitute_y(Poly((0, 1))) == Poly(())  # y := x
        assert p.substitute_y(Poly((1,))) == X**2 - 1    # y := 1

    def test_partials(self):
        x, y = BiPoly.x(), BiPoly.y()
        p = x**2 * y + 3 * y**2
        assert p.partial_y() == x**2 + 6 * y

    def test_no_zero_terms_stored(self):
        q = BiPoly({(1, 1): 1}) - BiPoly({(1, 1): 1})
        assert q.is_zero and q.terms == {}


class TestRationalFn:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(X, Poly(()))

    def test_cancellation(self):
        assert RationalFn(X, X).equivalent(RationalFn(Poly((1,)), 1))

    def test_bound_difference_identity(self):
        # x + y - xy - [1 - (5/2)(1-x)(1-y)/((1+x)(1+y))]
        #   == (1-x)(1-y)(3-2x-2y-2xy) / (2(1+x)(1+y))
        x, y = BiPoly.x(), BiPoly.y()
        lhs = (x + y - x * y) - (
            1 - (F(5, 2) * (1 - x) * (1 - y)) / ((1 + x) * (1 + y))
        )
        rhs = ((1 - x) * (1 - y) * (3 - 2 * x - 2 * y - 2 * x * y)) / (
            2 * (1 + x) * (1 + y)
        )
        assert lhs.equivalent(rhs)

    def test_quadratic_factorization_identity(self):
        # 3 - 2x - 2y - (x+y)^2 == (1-x-y)(3+x+y)
        x, y = BiPoly.x(), BiPoly.y()
        assert 3 - 2 * x - 2 * y - (x + y) ** 2 == (1 - x - y) * (3 + x + y)

    def test_derivative_quotient_rule(self):
        f = RationalFn(X**2, 1 + X)
        expected = (2 * X * (1 + X) - X**2) / ((1 + X) ** 2)
        assert f.derivative().equivalent(expected)

    def test_evaluation_pole(self):
        f = RationalFn(Poly((1,)), X - 1)
        with pytest.raises(ZeroDivisionError):
            f(F(1))


fractions_small = st.fractions(min_value=-100, max_value=100, max_denominator=30)
polys_small = st.lists(fractions_small, min_size=0, max_size=7).map(Poly)
nonzero_polys = polys_small.filter(lambda p: not p.is_zero)
# mixed denominators, both signs, and explicit zeros (a product can also cancel)
coeffs_mixed = st.one_of(
    st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=12)
)
polys_mixed = st.lists(coeffs_mixed, max_size=6).map(Poly)
bipolys_mixed = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs_mixed, max_size=7
).map(BiPoly)


@settings(deadline=None)
@given(polys_small, polys_small, polys_small, *[bipolys_mixed] * 3)
def test_ring_laws(p, q, r, a, b, c):
    # Poly and BiPoly run the same ring code; check it over both
    for p, q, r in ((p, q, r), (a, b, c)):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p - q == p + (-1) * q
        assert p**3 == p * p * p


@settings(deadline=None)
@given(polys_small, polys_small)
def test_product_degree(p, q):
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree == p.degree + q.degree


@settings(deadline=None)
@given(polys_small, polys_small, fractions_small,
       bipolys_mixed, bipolys_mixed, fractions_small)
def test_eval_is_ring_homomorphism(p, q, x, a, b, y):
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)
    assert (a * b)(x, y) == a(x, y) * b(x, y)
    assert (a + b)(x, y) == a(x, y) + b(x, y)
    assert (a - b)(x, y) == a(x, y) - b(x, y)
    assert (a**2)(x, y) == a(x, y) ** 2


@settings(deadline=None)
@given(polys_small, polys_small)
def test_derivative_linearity_and_product_rule(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@settings(deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_rationalfn_equivalence_under_common_factor(num, den, s):
    f = RationalFn(num, den)
    g = RationalFn(num * s, den * s)
    assert f.equivalent(g)
    assert g.equivalent(f)
    assert f.equivalent(f)


def schoolbook_poly(p, q):
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def schoolbook_bipoly(p, q):
    out = {}
    for (i1, j1), a in p.terms.items():
        for (i2, j2), b in q.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, F(0)) + a * b
    return BiPoly(out)


def assert_reduced(c):
    assert type(c) is F
    assert c.denominator > 0
    assert math.gcd(c.numerator, c.denominator) == 1


@settings(deadline=None)
@given(polys_mixed, polys_mixed)
def test_poly_product_matches_fraction_schoolbook(p, q):
    # (p + q)(p - q) cancels its cross terms inside the convolution
    for left, right in ((p, q), (p + q, p - q)):
        product, expected = left * right, schoolbook_poly(left, right)
        assert product.coeffs == expected.coeffs
        assert not product.coeffs or product.coeffs[-1] != 0
        for c in product.coeffs:
            assert_reduced(c)


@settings(deadline=None)
@given(bipolys_mixed, bipolys_mixed)
def test_bipoly_product_matches_fraction_schoolbook(p, q):
    for left, right in ((p, q), (p + q, p - q)):
        product, expected = left * right, schoolbook_bipoly(left, right)
        assert product.terms == expected.terms
        for c in product.terms.values():
            assert c != 0
            assert_reduced(c)


def test_product_with_cancellation_and_zero():
    x, y = BiPoly.x(), BiPoly.y()
    half = F(1, 2)
    assert (x * half - y / 3) * (x * half + y / 3) == x * x / 4 - y * y / 9
    assert (x - y) * BiPoly() == BiPoly()
    assert (X / 2 - F(1, 3)) * Poly() == Poly()
    assert (X / 2 - F(1, 3)) * (X / 2 + F(1, 3)) == Poly((F(-1, 9), 0, F(1, 4)))


def test_rings_do_not_mix():
    with pytest.raises(TypeError):
        Poly((1, 2)) + BiPoly.x()
    with pytest.raises(TypeError):
        BiPoly.x() + Poly((1, 2))
    assert Poly((1,)) != BiPoly.const(1)


@pytest.mark.parametrize("x", [0.5, mpmath.mpf("0.5")], ids=["float", "mpf"])
def test_poly_evaluates_only_at_exact_arguments(x):
    with pytest.raises(TypeError):
        Poly((1, 2))(x)
    # a BiPoly checks both of its arguments, the zero BiPoly too
    for bipoly in (BiPoly.x() + BiPoly.y(), BiPoly()):
        for args in ((x, F(1, 2)), (F(1, 2), x)):
            with pytest.raises(TypeError):
                bipoly(*args)


def test_equal_values_hash_equal():
    assert hash(Poly((1, 2, 0))) == hash(Poly((1, 2)))
    first = BiPoly({(0, 1): 2, (1, 0): F(1, 3)})
    second = BiPoly({(1, 0): F(1, 3), (0, 1): 2})
    assert list(first.terms) != list(second.terms)
    assert first == second and hash(first) == hash(second)


def test_traced_methods_are_own_class_entries():
    # perfbench/spans.py hooks these via vars(cls)[name], which skips inherited ones
    assert "__call__" in vars(Poly) and "__mul__" in vars(Poly)
    assert "__mul__" in vars(BiPoly)
    assert "equivalent" in vars(RationalFn)


def test_power_takes_square_and_multiply_products(monkeypatch):
    # (x + 1)**k needs one square per bit below the highest set bit and one
    # product per other set bit: 0, 0, 1, 2, 2, 3 for k = 0..5
    products = []
    multiply = Poly.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for k, expected in enumerate((0, 0, 1, 2, 2, 3)):
        products.clear()
        power = (X + 1) ** k
        assert len(products) == expected
        assert power == Poly([math.comb(k, i) for i in range(k + 1)])


# -- storage: integer numerators over one denominator ------------------------


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.den == 1 or not p.is_zero


def reference_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, F(0)) + c
    return {k: c for k, c in out.items() if c}


def reference_horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


scalars = st.one_of(
    st.integers(-50, 50).filter(bool),
    st.fractions(min_value=-20, max_value=20, max_denominator=40).filter(bool),
)


@settings(deadline=None)
@given(polys_mixed, polys_mixed, bipolys_mixed, bipolys_mixed, scalars)
def test_ring_results_are_canonical_and_match_fraction_reference(p, q, a, b, c):
    for left, right, schoolbook in ((p, q, schoolbook_poly), (a, b, schoolbook_bipoly)):
        lt, rt = left.terms, right.terms
        cases = {
            "add": (left + right, reference_add(lt, rt)),
            "sub": (left - right, reference_add(lt, {k: -v for k, v in rt.items()})),
            "neg": (-left, {k: -v for k, v in lt.items()}),
            "mul": (left * right, schoolbook(left, right).terms),
            "square": (left**2, schoolbook(left, left).terms),
            "scalar-mul": (c * left, {k: c * v for k, v in lt.items()}),
            "scalar-div": (left / c, {k: v / c for k, v in lt.items()}),
            "const": (type(left).const(c), {left.ONE: F(c)}),
        }
        for name, (result, expected) in cases.items():
            assert_canonical(result)
            assert result.terms == expected, name
    calculus = {
        "derivative": (p.derivative(), {k - 1: k * v for k, v in p.terms.items() if k}),
        "partial_y": (
            a.partial_y(),
            {(i, j - 1): j * v for (i, j), v in a.terms.items() if j},
        ),
        "from_x_poly": (BiPoly.from_x_poly(p), {(k, 0): v for k, v in p.terms.items()}),
    }
    for name, (result, expected) in calculus.items():
        assert_canonical(result)
        assert result.terms == expected, name
    rows = a.y_coefficients()
    for j, row in enumerate(rows):
        assert_canonical(row)
        assert row.terms == {i: v for (i, jj), v in a.terms.items() if jj == j}
    assert_canonical(a.substitute_y(p))
    assert_canonical(p.compose(q))


def test_zero_results_have_denominator_one():
    half = Poly((F(1, 2), F(1, 3)))
    zeros = (half - half, half * Poly(), Poly() / 7, -Poly(), half.derivative().derivative())
    for zero in zeros:
        assert zero.is_zero and zero.den == 1 and zero.nums == {}
    x = BiPoly({(0, 0): F(1, 6), (0, 1): F(5, 4)})
    assert (x - x).den == 1 and x.partial_y().partial_y().den == 1
    assert [row.den for row in BiPoly({(1, 2): F(1, 6)}).y_coefficients()] == [1, 1, 6]


dyadic_points = st.builds(
    lambda n, e: F(n, 2**e), st.integers(-(2**61), 2**61), st.integers(0, 60)
)
rational_points = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
    dyadic_points,
)


@settings(deadline=None)
@given(polys_mixed, rational_points, bipolys_mixed, rational_points)
def test_evaluation_matches_fraction_horner(p, x, a, y):
    value = p(x)
    assert type(value) is F
    assert value == reference_horner(p.coeffs, x)
    direct = sum((c * F(x) ** i * F(y) ** j for (i, j), c in a.terms.items()), F(0))
    assert a(x, y) == direct


def test_evaluation_at_bisection_midpoints():
    # 60 bisection steps toward 1/sqrt(2): numerators near 0.7 * 2**60
    lo, hi = F(0), F(1)
    for _ in range(60):
        mid = (lo + hi) / 2
        for p in CAT.p + CAT.q:
            assert p(mid) == reference_horner(p.coeffs, mid)
        lo, hi = (mid, hi) if 2 * mid * mid < 1 else (lo, mid)
    assert mid.denominator == 2**60 and mid.numerator > 2**59


def test_equal_values_by_different_routes_compare_and_hash_equal():
    third = Poly((F(1, 3), F(2, 3)))
    routes = (
        Poly((F(1, 3), F(2, 3))),
        Poly(("1/3", "2/3", 0)),
        (1 + 2 * X) / 3,
        Poly((1, 2)) * F(1, 3),
        Poly((2, 4)) / 6,
        (Poly((1, 2)) * Poly((1, 1)) - Poly((0, 1, 2))) / 3,
        Poly.const(F(1, 3)) + Poly.const(F(2, 3)) * X,
    )
    for route in routes:
        assert route == third and hash(route) == hash(third)
        assert (route.den, route.nums) == (3, {0: 1, 1: 2})
    assert Poly.const(F(4, 2)) == Poly((2,)) == Poly((F(6, 3),)) == 2
    xy = BiPoly({(1, 1): F(1, 2)})
    for route in (BiPoly.x() * BiPoly.y() / 2, BiPoly({(1, 1): 1, (0, 0): 0}) * F(1, 2)):
        assert route == xy and hash(route) == hash(xy)


@pytest.mark.parametrize(
    "terms, error",
    [
        ({(1.5, 0): 1}, TypeError),
        ({("2", 0): 2}, TypeError),
        ({(0, 1.0): 1}, TypeError),
        ({(0, -1): 1}, ValueError),
        ({(-2, 0): 1}, ValueError),
    ],
    ids=["float", "string", "float-y", "negative-y", "negative-x"],
)
def test_bipoly_rejects_bad_exponents(terms, error):
    with pytest.raises(error):
        BiPoly(terms)
