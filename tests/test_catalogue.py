"""Catalogue transcription: pinned hashes, exact printed values, Q assembly."""

from fractions import Fraction as F

from betabound.catalogue import (
    P_NAMES,
    Q_NAMES,
    catalogue_hashes,
    load_catalogue,
)
from betabound.polys import BiPoly

# transcription fingerprints; any edit to data/catalogue.json must be deliberate
EXPECTED_HASHES = {
    "p0": "ace6f6f9c1d6ab98c8fb632d5129694475a7d644770850c17836c9cdd95330e6",
    "p1": "f37f128da889e92f902576156d0b8502e67d058c353b4b4cbe26b147172c5101",
    "p2": "da49f9836a75cd7a90e70221ffc83377ba4aa078dc60bd666326998f4e2e3e71",
    "p3": "a29ce8547e4b41293dcc01903bba845d9c901cc2673dbb77b12c04e4d3af3b03",
    "p4": "4461e86def3ec496ecc095c94a508c86b488a5f84d05e00f202de2f522b1090f",
    "q0": "940b34205f62bfe513a71d834cb3b03e145d37ebd5f99de12e743f06d9063484",
    "q1": "9930bc7cf4cf43aa298e71368ea080dafea02508219a013ce1e251d9dc5b457b",
    "q2": "6f1e918c29d611e1323f5650d58d97910126d3dab5fc5a2e1ef934a10e2da067",
    "q3": "db5bcfd84c05d8e1d7292d639972c30583e38b3bc680267ecc99dfcdfb16335b",
    "q4": "6b302a5210deb7624b35dcb9bee1381f109ce534b67ef0e35d2d0ff8159a9190",
    "q5": "ca470dcf155b53d9bbb43fcca55ec16a7149afdda6cfdf2d988255af0caab2ef",
}

# Q(x, y) as displayed, term by term: (x-degree, y-degree, coefficient)
DISPLAYED_Q_TERMS = [
    (0, 0, 11), (0, 1, -5), (0, 2, -65), (0, 3, -84), (0, 4, -45), (0, 5, -11),
    (0, 6, -1), (1, 0, 5), (1, 1, 129), (1, 2, 254), (1, 3, 222), (1, 4, 101),
    (1, 5, 23), (1, 6, 2), (2, 0, -11), (2, 1, 131), (2, 2, 242), (2, 3, 157),
    (2, 4, 43), (2, 5, 4), (3, 0, -5), (3, 1, 33), (3, 2, 49), (3, 3, 19),
    (3, 4, 2),
]


def test_hashes_pinned():
    assert catalogue_hashes() == EXPECTED_HASHES


def test_exact_printed_evaluations():
    cat = load_catalogue()
    assert cat.p[0](F(3, 20)) == F(75107551, 32000)
    assert cat.p[1](F(1, 5)) == F(64124455182553, 15625)
    assert cat.p[2](F(1)) == 4298768
    assert cat.p[3](F(1)) == 68461255039
    assert cat.p[4](F(9, 25)) == F(21101408, 1953125)
    assert cat.q[0](F(1, 2)) == F(-81, 8)
    assert cat.q[1](F(1, 2)) == F(771, 8)
    assert cat.q[2](F(1, 2)) == F(1029, 8)
    assert cat.q[3](F(1, 2)) == F(549, 8)
    assert cat.q[4](F(1, 2)) == F(33, 2)
    assert cat.q[5](F(1, 2)) == F(3, 2)


def test_q_bipoly_matches_definition():
    cat = load_catalogue()
    assert cat.Q == BiPoly({(i, j): c for i, j, c in DISPLAYED_Q_TERMS})


def test_degrees_as_displayed():
    cat = load_catalogue()
    assert [p.degree for p in cat.p] == [4, 11, 9, 8, 5]
    assert [q.degree for q in cat.q] == [3, 3, 3, 3, 3, 2]
    assert cat.Q.degree_y == 6
    assert max(i for i, _ in cat.Q.terms) == 3  # degree in x


def test_catalogue_names_complete():
    assert P_NAMES == ("p0", "p1", "p2", "p3", "p4")
    assert Q_NAMES == ("q0", "q1", "q2", "q3", "q4", "q5")
