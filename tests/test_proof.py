"""Proof-engine: margins, symmetry, derivative validation, full replay."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from betabound import proof
from betabound.polys import BiPoly, Poly
from betabound.proof import (
    G_rational,
    alzer_lower_bound,
    big_F,
    big_G,
    dF_dx,
    dFdx_rational,
    dG_dx,
    dGdx_rational,
    diag_gap,
    edge_slope,
    ivady_lower_bound,
    ivady_upper_bound,
    log_correction,
    new_bound,
    remark_sandwich,
    replay_all,
    replay_diagonal,
    replay_strip,
    replay_trapezoid,
    sweep_theorem,
    theorem_margin,
)
from betabound.catalogue import load_catalogue
from betabound.constants import agrees_with_printed
from betabound.specials import context, to_mpf

HP = context(60)
mpmath.mp.dps = 60
CAT = load_catalogue()


class TestTheoremMargin:
    def test_corner_margin_is_third(self):
        assert abs(theorem_margin(1, 1) - F(1, 3)) < HP.mpf("1e-45")

    def test_center_margin_is_pi_minus_three(self):
        margin = theorem_margin(F(1, 2), F(1, 2))
        assert abs(margin - (mpmath.mp.pi - 3)) < HP.mpf("1e-45")

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="domain error"):
            theorem_margin(0, F(1, 2))
        with pytest.raises(ValueError, match="domain error"):
            theorem_margin(F(1, 2), F(3, 2))

    def test_log_margin_vanishes_toward_left_edge(self):
        # F -> 0 as x -> 0 (equality holds only there)
        for y in ("0.3", "0.7", "1"):
            assert big_F("1e-6", y) < HP.mpf("1e-4")
            assert big_F("1e-6", y) > 0

    def test_margin_positive_on_coarse_grid(self):
        for i in range(1, 11):
            for j in range(i, 11):
                assert theorem_margin(F(i, 10), F(j, 10)) > 0


class TestCoreFunctionIdentities:
    def test_F_symmetric(self):
        rng = random.Random(5)
        for _ in range(40):
            x = HP.mpf(rng.uniform(0.01, 1.0))
            y = HP.mpf(rng.uniform(0.01, 1.0))
            assert abs(big_F(x, y) - big_F(y, x)) < HP.mpf("1e-25")

    def test_G_antisymmetric(self):
        rng = random.Random(6)
        for _ in range(40):
            x = HP.mpf(rng.uniform(0.01, 1.0))
            y = HP.mpf(rng.uniform(0.01, 1.0))
            assert abs(big_G(x, y) + big_G(y, x)) < HP.mpf("1e-25")
        assert big_G(F(3, 10), F(3, 10)) == 0

    def test_F_vanishes_on_left_edge(self):
        for y in (F(1, 4), F(1, 2), F(9, 10), F(1)):
            assert abs(big_F(0, y)) < HP.mpf("1e-25")

    def test_diagonal_restriction_matches_gap(self):
        for x in (F(1, 10), F(1, 3), F(3, 5)):
            assert abs(big_F(x, x) - diag_gap(x)) < HP.mpf("1e-25")

    def test_diag_gap_at_half_is_log_pi_thirds(self):
        assert abs(diag_gap(F(1, 2)) - mpmath.mp.log(mpmath.mp.pi / 3)) < HP.mpf(
            "1e-40"
        )

    def test_diag_gap_domain_guard(self):
        with pytest.raises(ValueError, match="1 \\+ 2x - 2x\\^2"):
            diag_gap(F(3, 2))

    def test_dFdx_matches_finite_differences(self):
        # displayed partial against centred differences of F itself,
        # 100 random interior points, h = 1e-8 at 50-digit working precision
        rng = random.Random(42)
        h = HP.mpf("1e-8")
        for _ in range(100):
            x = HP.mpf(rng.uniform(0.05, 0.95))
            y = HP.mpf(rng.uniform(0.05, 0.95))
            fd = (big_F(x + h, y) - big_F(x - h, y)) / (2 * h)
            assert abs(fd - dF_dx(x, y)) < HP.mpf("1e-14")

    def test_dFdy_matches_finite_differences(self):
        h = HP.mpf("1e-8")
        x, y = HP.mpf("0.22"), HP.mpf("0.61")
        fd = (big_F(x, y + h) - big_F(x, y - h)) / (2 * h)
        # F is symmetric, so dF/dy at (x, y) is dF/dx at (y, x)
        assert abs(fd - dF_dx(y, x)) < HP.mpf("1e-14")

    def test_G_is_difference_of_partials(self):
        x, y = HP.mpf("0.11"), HP.mpf("0.73")
        assert abs(big_G(x, y) - (dF_dx(x, y) - dF_dx(y, x))) < HP.mpf("1e-25")

    def test_dGdx_matches_finite_differences(self):
        h = HP.mpf("1e-8")
        x, y = HP.mpf("0.13"), HP.mpf("0.57")
        fd = (big_G(x + h, y) - big_G(x - h, y)) / (2 * h)
        assert abs(fd - dG_dx(x, y)) < HP.mpf("1e-14")

    def test_diag_slope_half_is_half_derivative(self):
        # f'(x)/2 = dF/dx(x, x) by the symmetry of F
        h = HP.mpf("1e-8")
        x = HP.mpf("0.4")
        fd = (diag_gap(x + h) - diag_gap(x - h)) / (2 * h)
        assert abs(fd - 2 * dF_dx(x, x)) < HP.mpf("1e-13")

    def test_edge_slope_printed_value(self):
        assert agrees_with_printed(edge_slope(F(1, 5)), "0.001914")


ALZER_ALPHA = F(5, 2)
SHARED_FORMULAS = [
    new_bound,
    ivady_lower_bound,
    ivady_upper_bound,
    lambda x, y: alzer_lower_bound(x, y, ALZER_ALPHA),
    lambda x, y: log_correction(x, y, lambda arg: arg),  # the log's argument
    dFdx_rational,
    G_rational,
    dGdx_rational,
]
FORMULA_POINTS = [
    (F(1, 3), F(5, 7)), (F(1, 10), F(9, 10)), (F(2, 5), F(1, 8)), (F(1), F(1)),
]


class TestSharedFormulas:
    @pytest.mark.parametrize("formula", SHARED_FORMULAS)
    def test_same_value_on_every_number_type(self, formula):
        # one formula: the RationalFn it builds from BiPoly symbols, floats and
        # mpfs all reproduce its exact value at rational points
        rf = formula(BiPoly.x(), BiPoly.y())
        for x, y in FORMULA_POINTS:
            exact = formula(x, y)
            assert isinstance(exact, F)
            assert rf(x, y) == exact
            as_float = formula(float(x), float(y))
            assert abs(as_float - float(exact)) <= 1e-15 * abs(float(exact))
            as_mpf = formula(to_mpf(HP, x), to_mpf(HP, y))
            assert abs(as_mpf - to_mpf(HP, exact)) < HP.mpf("1e-55")

    def test_log_correction_takes_the_log_of_its_type(self):
        x, y = F(1, 3), F(5, 7)
        arg = 1 - 2 * x * y / (x + y + 1)
        as_float = log_correction(float(x), float(y), math.log)
        assert as_float == pytest.approx(math.log(arg), rel=1e-15)
        as_mpf = log_correction(to_mpf(HP, x), to_mpf(HP, y), HP.ln)
        assert abs(as_mpf - HP.ln(to_mpf(HP, arg))) < HP.mpf("1e-55")

    def test_wrappers_evaluate_the_shared_formulas(self):
        x, y = F(2, 5), F(3, 4)
        assert new_bound(x, y) == F(713, 258)
        assert abs(edge_slope(F(1, 5)) - dG_dx(F(1, 5), F(14, 25))) < HP.mpf("1e-45")
        assert abs(diag_gap(F(3, 10)) - big_F(F(3, 10), F(3, 10))) < HP.mpf("1e-45")


class TestRemarkOrdering:
    def test_equality_at_corner(self):
        rep = remark_sandwich(1, 1)
        assert rep.ok and rep.regime == "x+y>=1"
        assert "beta == stronger bound" in rep.equalities
        assert abs(rep.ivady_bound - 1) < HP.mpf("1e-45")

    def test_strict_above_line(self):
        rep = remark_sandwich(F(3, 4), F(3, 4))
        assert rep.ok and rep.equalities == ()

    def test_reversed_below_line(self):
        rep = remark_sandwich(F(1, 4), F(1, 4))
        assert rep.ok and rep.regime == "x+y<=1"
        assert rep.new_bound > rep.ivady_bound

    def test_bounds_coincide_on_the_line(self):
        rep = remark_sandwich(F(1, 4), F(3, 4))
        assert rep.ok and "bounds coincide" in rep.equalities


class TestBounds:
    def test_ivady_equalities_at_corner(self):
        assert ivady_upper_bound(F(1), F(1)) == 1
        assert ivady_lower_bound(F(1), F(1)) == 1

    def test_new_bound_at_corner(self):
        assert new_bound(F(1), F(1)) == F(2, 3)

    def test_q1_positive_past_its_root(self):
        assert CAT.q[1](F(1, 4)) > 0


PINNED_STEPS = [
    ("diagonal.slope-rational-identity", "exact-identity", ()),
    ("diagonal.slope-lower-identity", "exact-identity",
     ("numerator_constant", "numerator_leading")),
    ("diagonal.slope-numerator-positive", "exact-polynomial",
     ("degree", "coefficient_signs")),
    ("diagonal.gap-positive-spots", "high-precision",
     ("1/10", "1/2", "1", "13/10", "f(1/2)==log(pi/3)")),
    ("strip.gradient-identities", "exact-identity", ()),
    ("strip.dFdy-reduction-identity", "exact-identity", ()),
    ("strip.q-root-ordering", "sign-engine", ("enclosures", "width")),
    ("strip.pn-sign-vectors", "sign-engine",
     ("q1..q5_patterns", "sign_vectors", "patterns")),
    ("strip.antidiagonal-identity", "exact-identity", ("leading_constant",)),
    ("strip.antidiagonal-positive", "exact-polynomial",
     ("inner_min_bound", "edge_lower_bound")),
    ("strip.denominator-positivity", "exact-polynomial", ("corner_min",)),
    ("strip.reduce-to-diagonal", "high-precision", ("samples", "depends_on")),
    ("trapezoid.A.mixed-partial", "exact-identity", ("corner_min",)),
    ("trapezoid.A.edge-slope-identity", "exact-identity", ()),
    ("trapezoid.A.g-lower", "sign-engine", ("identity", "p0_at_3_20", "tail")),
    ("trapezoid.A.g-decreasing", "sign-engine",
     ("derivative_identity", "identity", "p1_at_1_5")),
    ("trapezoid.A.g-at-right-edge", "high-precision",
     ("g(1/5)", "printed", "interval_cover")),
    ("trapezoid.A.left-edge-concavity", "sign-engine",
     ("second_derivative_identity", "identity", "p2_at_1")),
    ("trapezoid.A.left-edge-endpoints", "high-precision", ("G(0,0)", "G(0,1)")),
    ("trapezoid.A.conclusion", "high-precision", ("samples",)),
    ("trapezoid.B.slope-positive", "sign-engine",
     ("substitution_identity", "identity", "bracket_pattern", "bracket_at_1",
      "depends_on")),
    ("trapezoid.B.concavity", "sign-engine",
     ("second_derivative_identity", "identity", "p3_at_1")),
    ("trapezoid.B.corner-values", "high-precision",
     ("G(0,9/25)", "G(1/5,9/25)", "printed")),
    ("trapezoid.B.conclusion", "high-precision", ("samples",)),
    ("trapezoid.C.slope-positive", "sign-engine",
     ("substitution_identity", "identity", "p4_at_9_25", "depends_on")),
    ("trapezoid.C.conclusion", "high-precision", ("samples",)),
    ("trapezoid.boundary.antidiagonal", "high-precision",
     ("bounds_coincide_identity", "F_samples")),
    ("trapezoid.boundary.left-edge", "high-precision", ("values",)),
    ("trapezoid.boundary.diagonal", "high-precision", ("samples", "depends_on")),
    ("trapezoid.boundary.right-edge", "high-precision", ("samples", "depends_on")),
    ("trapezoid.no-interior-extremum", "high-precision", ("depends_on",)),
]
PINNED_CLAIMS_SHA256 = "cf011152039c0d736b42a74cad734e5ec1f0f693be801a0a151e2b73fc75e880"


class TestReplay:
    def test_diagonal_phase(self):
        steps = replay_diagonal()
        assert all(s.status == "verified" for s in steps)

    def test_strip_phase(self):
        steps = replay_strip()
        assert all(s.status == "verified" for s in steps)
        by_id = {s.id: s for s in steps}
        assert "strip.dFdy-reduction-identity" in by_id
        assert by_id["strip.pn-sign-vectors"].evidence["patterns"] == "{'PN': 16}"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda q: (q[0], q[1], q[3], q[2], q[4], q[5]),   # q2, q3 swapped
            lambda q: (q[0], -q[1]) + tuple(q[2:]),           # q1 negated
        ],
        ids=["swap-q2-q3", "negate-q1"],
    )
    def test_exact_strip_step_rejects_mutated_catalogue(self, monkeypatch, mutate):
        mutated = dataclasses.replace(CAT, q=mutate(CAT.q))
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)
        by_id = {s.id: s for s in replay_strip(30)}
        assert by_id["strip.pn-sign-vectors"].status == "failed"

    def test_trapezoid_phase(self):
        steps = replay_trapezoid()
        assert all(s.status == "verified" for s in steps)

    def test_full_replay_counts(self):
        report = replay_all()
        assert report.all_verified
        assert len(report.steps) >= 15
        assert report.counts["failed"] == 0
        assert report.counts["inconclusive"] == 0
        methods = {s.method for s in report.steps}
        assert methods == {
            "exact-identity",
            "exact-polynomial",
            "high-precision",
            "sign-engine",
        }

    def test_step_table_is_pinned(self):
        # ids, order, methods and evidence keys of every step, and the claims
        steps = replay_all(30).steps
        assert [(s.id, s.method, tuple(s.evidence)) for s in steps] == PINNED_STEPS
        claims = "\n".join(s.claim for s in steps).encode()
        assert hashlib.sha256(claims).hexdigest() == PINNED_CLAIMS_SHA256

    @staticmethod
    def _replay_with_p0(monkeypatch, p0):
        mutated = dataclasses.replace(CAT, p=(p0,) + tuple(CAT.p[1:]))
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)
        return {s.id: s for s in replay_all(30).steps}

    def test_pn_certificate_rejects_p0_negative_at_its_point(self, monkeypatch):
        # still PN, so the criterion applies, but p0(3/20) is about -3.37e6
        p0 = CAT.p[0] - 10**9 * Poly.x() ** 3
        steps = self._replay_with_p0(monkeypatch, p0)
        bad = {"trapezoid.A.g-lower", "trapezoid.no-interior-extremum"}
        assert {k: s.status for k, s in steps.items() if k in bad} == dict.fromkeys(
            bad, "failed"
        )
        assert len(steps) == 31
        assert all(s.status == "verified" for k, s in steps.items() if k not in bad)

    def test_check_that_raises_is_inconclusive(self, monkeypatch):
        # -p0 is NP: the PN criterion does not apply, and the replay goes on
        steps = self._replay_with_p0(monkeypatch, -CAT.p[0])
        bad = {"trapezoid.A.g-lower", "trapezoid.no-interior-extremum"}
        assert {k: s.status for k, s in steps.items() if k in bad} == dict.fromkeys(
            bad, "inconclusive"
        )
        assert steps["trapezoid.A.g-lower"].evidence == {
            "error": "criterion inapplicable: expected PN pattern, got NP"
        }
        assert len(steps) == 31
        assert all(s.status == "verified" for k, s in steps.items() if k not in bad)

    def test_replay_at_reduced_precision(self):
        report = replay_all(dps=30)
        assert report.all_verified

    def test_json_shape(self):
        obj = replay_all().to_json_obj()
        assert set(obj) == {"precision_digits", "steps", "summary"}
        for step in obj["steps"]:
            assert set(step) == {"id", "claim", "method", "status", "evidence"}
        assert obj["summary"]["all_verified"] is True


class TestSweep:
    def test_small_grid(self):
        result = sweep_theorem(4)
        assert result.min_margin_new > 0
        assert result.argmin_new == (0.25, 0.25)
        assert result.classical_edges_exact
        assert result.hp_agrees

    def test_classical_minima_are_interior_and_positive(self):
        # both classical bounds equal B on x = 1 and y = 1, where the double
        # margins are rounding noise of either sign; the minima skip them
        result = sweep_theorem(150)
        assert result.min_margin_ivady > 0 and result.min_margin_alzer > 0
        for x, y in (result.argmin_ivady, result.argmin_alzer):
            assert x < 1 and y < 1

    def test_rows_stream(self):
        # one call per grid line x = i/n, holding its n CRLF-terminated rows
        # in y order (the file bytes are pinned in test_cli)
        n = 3
        lines = []
        sweep_theorem(n, row_sink=lines.append)
        assert len(lines) == n
        for i, line in enumerate(lines, start=1):
            rows = line.split("\r\n")
            assert len(rows) == n + 1 and rows[-1] == ""
            cells = [tuple(map(float, row.split(",")[:2])) for row in rows[:-1]]
            assert cells == [(i / n, j / n) for j in range(1, n + 1)]
        last_row = lines[-1].split("\r\n")[-2]
        x, y, b, new, iv, az, m_new, m_iv = map(float, last_row.split(","))
        assert (x, y) == (1.0, 1.0)
        assert abs(b - 1.0) < 1e-12
        assert abs(m_new - 1 / 3) < 1e-12
        assert abs(m_iv) < 1e-12

    def test_sink_does_not_change_the_result(self):
        assert sweep_theorem(6, row_sink=len) == sweep_theorem(6)

    def test_classical_edges_check_catches_a_wrong_formula(self, monkeypatch):
        # (x + y)/(xy) is 1 + 1/y at x = 1, not B(1, y) = 1/y
        monkeypatch.setattr(proof, "ivady_lower_bound", lambda x, y: (x + y) / (x * y))
        assert not proof.classical_edges_exact()

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid_n"):
            sweep_theorem(1)

    def test_margin_decreases_toward_left_edge(self):
        # along fixed y, the margin shrinks as x -> 0 on the fine grid
        values = [float(theorem_margin(F(k, 1000), F(7, 10))) for k in (1, 5, 50, 500)]
        assert values == sorted(values)
