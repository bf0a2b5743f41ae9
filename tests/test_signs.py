"""Sign-pattern classification, positivity certificates, root enclosures."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betabound import signs
from betabound.catalogue import load_catalogue
from betabound.polys import Poly
from betabound.signs import PatternKind

CAT = load_catalogue()
X = Poly.x()


class TestClassify:
    def test_p0_is_pn(self):
        assert signs.classify(CAT.p[0]) is PatternKind.PN  # + + - - -

    def test_q0_is_np(self):
        assert signs.classify(CAT.q[0]) is PatternKind.NP  # - - + +

    def test_all_nonneg(self):
        assert signs.classify(1 + X) is PatternKind.ALL_NONNEG
        assert signs.classify(Poly((-1, 0, -2))) is PatternKind.ALL_NONPOS

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError, match="degenerate input"):
            signs.classify(Poly(()))

    def test_two_changes_is_other(self):
        assert signs.classify(Poly((1, -1, 1))) is PatternKind.OTHER

    def test_interior_zero_coefficients_allowed(self):
        assert signs.classify(Poly((1, 0, 2, 0, -3))) is PatternKind.PN


class TestOneSidedCertificates:
    def test_p2_positive_below_one(self):
        assert signs.positive_below(CAT.p[2], 1)
        assert CAT.p[2](F(1)) == F(4298768)

    def test_p1_positive_below_fifth(self):
        assert signs.positive_below(CAT.p[1], F(1, 5))
        assert CAT.p[1](F(1, 5)) == F(64124455182553, 15625)

    def test_p0_not_positive_at_ten(self):
        assert not signs.positive_below(CAT.p[0], 10)
        assert CAT.p[0](F(10)) < 0

    def test_boundary_root_flagged_not_guessed(self):
        p = 1 - X  # PN with root exactly at 1
        assert signs.positive_below(p, 1) is False

    def test_wrong_pattern_rejected(self):
        with pytest.raises(ValueError, match="criterion inapplicable"):
            signs.positive_below(CAT.q[0], 1)
        with pytest.raises(ValueError, match="criterion inapplicable"):
            signs.negative_below(CAT.p[0], 1)

    def test_np_mirrors(self):
        assert signs.negative_below(CAT.q[0], F(1, 2))
        assert not signs.negative_below(CAT.q[5], F(1, 2))


class TestIsolateCrossing:
    def test_linear_root(self):
        enc = signs.isolate_crossing(X - 1, 0, 2, F(1, 10**6))
        assert enc.lo <= 1 <= enc.hi
        assert enc.hi - enc.lo <= F(1, 10**6)

    def test_q1_root_digits(self):
        enc = signs.isolate_crossing(CAT.q[1], 0, F(1, 2), F(1, 10**6))
        check = signs.check_printed_digits(enc, "0.03733")
        assert check.certified and check.consistent

    def test_q5_root_digits(self):
        enc = signs.isolate_crossing(CAT.q[5], 0, F(1, 2), F(1, 10**6))
        assert signs.check_printed_digits(enc, "0.4439").certified

    def test_endpoint_signs_strictly_opposite(self):
        for k in range(1, 6):
            enc = signs.isolate_crossing(CAT.q[k], 0, F(1, 2), F(1, 10**4))
            assert CAT.q[k](enc.lo) * CAT.q[k](enc.hi) < 0

    def test_no_bracket_error(self):
        with pytest.raises(ValueError, match="no bracket"):
            signs.isolate_crossing(CAT.q[1], F(1, 4), F(1, 2), F(1, 100))

    def test_exact_midpoint_root(self):
        # root at 1 is hit exactly by bisection of [0, 2]
        enc = signs.isolate_crossing(X - 1, 0, 2, F(1, 1000))
        assert enc.lo < 1 < enc.hi
        assert (X - 1)(enc.lo) * (X - 1)(enc.hi) < 0


def enclose(polys, width=signs.DEFAULT_WIDTH):
    return [signs.isolate_crossing(p, 0, F(1, 2), width) for p in polys]


class TestRootOrdering:
    def test_q_family_ordered(self):
        assert signs.verify_root_ordering(enclose(CAT.q[1:]))

    def test_reversed_pair_not_ordered(self):
        assert not signs.verify_root_ordering(enclose([CAT.q[5], CAT.q[1]]))

    def test_single_poly_vacuous(self):
        assert signs.verify_root_ordering(enclose([CAT.q[3]]))

    def test_overlap_at_coarse_width_raises(self):
        with pytest.raises(ValueError, match="refine width"):
            signs.verify_root_ordering(enclose(CAT.q[1:], F(1, 4)))

    def test_q_signs_around_enclosures(self):
        # exact sign of q_j below and above its enclosure, 100 points each side
        rng = random.Random(7)
        for k in range(1, 6):
            enc = signs.isolate_crossing(CAT.q[k], 0, F(1, 2), F(1, 10**6))
            for _ in range(100):
                below = F(rng.randrange(1, 10**6), 10**6) * enc.lo
                above = enc.hi + F(rng.randrange(1, 10**6), 10**6) * (
                    F(1, 2) - enc.hi
                )
                assert CAT.q[k](below) < 0
                assert CAT.q[k](above) > 0


@st.composite
def pn_polys(draw):
    """Nonnegative block then nonpositive block, one strict entry each."""
    pos = draw(
        st.lists(
            st.fractions(min_value=0, max_value=50, max_denominator=20),
            min_size=1,
            max_size=4,
        )
    )
    neg = draw(
        st.lists(
            st.fractions(min_value=0, max_value=50, max_denominator=20),
            min_size=1,
            max_size=4,
        )
    )
    first = draw(st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20))
    last = draw(st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20))
    coeffs = [first] + pos + [-c for c in neg] + [-last]
    return Poly(coeffs)


positive_points = st.fractions(min_value=F(1, 40), max_value=50, max_denominator=40)


@settings(deadline=None, max_examples=200)
@given(pn_polys(), positive_points, positive_points)
def test_pn_positive_below_any_positive_point(p, a, b):
    # the one-sign-change criterion itself: a positive value certifies
    # positivity everywhere strictly below; must hold with zero exceptions
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return
    if p(hi) > 0:
        assert p(lo) > 0


@settings(deadline=None, max_examples=200)
@given(pn_polys(), st.fractions(min_value=F(1, 10), max_value=100, max_denominator=30))
def test_classify_invariant_under_positive_scaling(p, c):
    assert signs.classify(c * p) == signs.classify(p)


@settings(deadline=None, max_examples=100)
@given(pn_polys())
def test_pn_enclosure_has_opposite_signs(p):
    # every PN polynomial of this shape starts positive at 0 and is
    # eventually negative; bracket the crossing and check the enclosure
    hi = F(1)
    while p(hi) > 0:
        hi *= 2
    if p(hi) == 0:
        hi *= 2
    enc = signs.isolate_crossing(p, 0, hi, F(1, 1000)) if p(F(0)) > 0 else None
    if enc is not None:
        assert p(enc.lo) * p(enc.hi) < 0
        assert enc.hi - enc.lo <= F(1, 1000)
