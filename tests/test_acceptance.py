"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import random
import time
from fractions import Fraction as F

import mpmath

from betabound import cli, signs
from betabound.catalogue import load_catalogue
from betabound.constants import (
    agrees_with_printed,
    compute_constants,
)
from betabound.proof import (
    EDGE_SLOPE_QUOTIENT,
    big_F,
    big_G,
    dFdx_rational,
    ivady_lower_bound,
    ivady_upper_bound,
    replay_all,
    sweep_theorem,
)
from betabound.psibounds import closed_form_mismatches, error_budget, sandwich_margins
from betabound.specials import beta, context, psi, psi1, stirling_enclosure

HP = context(60)
mpmath.mp.dps = 60
CAT = load_catalogue()


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[{status}] acceptance {self.criterion}: "
            f"{elapsed:.2f}s (budget {self.seconds:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_criterion_1_exact_printed_values():
    with Budget("1 (exact printed values)", 1.0):
        assert CAT.p[0](F(3, 20)) == F(75107551, 32000)
        assert CAT.p[1](F(1, 5)) == F(64124455182553, 15625)
        assert CAT.p[2](F(1)) == 4298768
        assert CAT.p[3](F(1)) == 68461255039
        assert CAT.p[4](F(9, 25)) == F(21101408, 1953125)
        assert CAT.q[0](F(1, 2)) == F(-81, 8)
        assert CAT.q[1](F(1, 2)) == F(771, 8)
        assert CAT.q[2](F(1, 2)) == F(1029, 8)
        assert CAT.q[3](F(1, 2)) == F(549, 8)
        assert CAT.q[4](F(1, 2)) == F(33, 2)
        assert CAT.q[5](F(1, 2)) == F(3, 2)


def test_criterion_2_root_enclosures():
    with Budget("2 (root enclosures)", 1.0):
        width = F(1, 10**6)
        prefixes = ("0.03733", "0.2114", "0.3085", "0.3822", "0.4439")
        enclosures = [signs.isolate_crossing(p, 0, F(1, 2), width) for p in CAT.q[1:]]
        for enc, prefix in zip(enclosures, prefixes):
            assert enc.hi - enc.lo <= width
            check = signs.check_printed_digits(enc, prefix)
            assert check.certified, f"{prefix} not certified by {enc}"
        assert signs.verify_root_ordering(enclosures)


def test_criterion_3_constants_printed_digits():
    with Budget("3 (named constants)", 10.0):
        consts = compute_constants()
        assert agrees_with_printed(consts.alpha, "2.57973")
        assert agrees_with_printed(consts.a1, "0.79003")
        assert agrees_with_printed(consts.a2, "0.47053")
        assert agrees_with_printed(consts.a3, "0.43218")
        assert agrees_with_printed(consts.alzer_max, "0.08731")


def test_criterion_4_transcendental_proof_constants():
    with Budget("4 (proof constants)", 5.0):
        # g(1/5) = psi'(6/5) - EDGE_SLOPE_QUOTIENT(1/5), enclosed as the replay does
        g = stirling_enclosure(F(6, 5), 1) - EDGE_SLOPE_QUOTIENT(F(1, 5))
        assert all(agrees_with_printed(end, "0.001914") for end in g.ends)
        assert agrees_with_printed(big_G(0, F(9, 25)), "0.0554")
        assert agrees_with_printed(big_G(F(1, 5), F(9, 25)), "0.04015")


def test_criterion_5_exact_identity_suite():
    with Budget("5 (exact identities)", 30.0):
        assert closed_form_mismatches() == []
        report = replay_all()
        exact_steps = [
            s
            for s in report.steps
            if s.method in ("exact-identity", "exact-polynomial", "sign-engine")
        ]
        assert exact_steps and all(s.status == "verified" for s in exact_steps)


def test_criterion_6_sandwich_property():
    with Budget("6 (sandwich bounds)", 10.0):
        trigamma_two = psi1(2)
        lo = HP.mpf(5031) / 7802
        hi = HP.mpf(2169) / 3362
        assert lo < trigamma_two < hi
        lo_ln, hi_ln = HP.ln(HP.mpf("1e-4")), HP.ln(HP.mpf(100))
        threshold = 10 * error_budget(50)
        for k in range(1000):
            x = HP.exp(lo_ln + (hi_ln - lo_ln) * k / 999)
            margins = sandwich_margins(x, 50).values()
            assert all(m > threshold for m in margins), x


def test_criterion_7_theorem_desk_audit():
    with Budget("7 (grid audit)", 60.0):
        result = sweep_theorem(1000)
        assert result.min_margin_new > 0
        assert result.hp_agrees
        # the log-scale margin F vanishes only on the x = 0 edge; near it
        # the margin is tiny but still positive
        for y in ("0.3", "0.7", "1"):
            f_val = big_F("1e-6", y)
            assert 0 < f_val < HP.mpf("1e-4")
        # classical two-sided bound attains equality at the (1, 1) corner
        assert abs(beta(1, 1) - 1) < HP.mpf("1e-45")
        assert ivady_upper_bound(F(1), F(1)) == 1
        assert ivady_lower_bound(F(1), F(1)) == 1


def test_criterion_8_property_suites():
    with Budget("8 (property suites)", 60.0):
        rng = random.Random(12345)
        # psi recurrence at 1e-25
        for _ in range(10**4):
            x = HP.mpf(rng.uniform(0.1, 5.0))
            assert abs(psi(x + 1) - psi(x) - 1 / x) < HP.mpf("1e-25")
        # beta symmetry and recurrence at 1e-25
        for _ in range(200):
            x = HP.mpf(rng.uniform(0.05, 1.0))
            y = HP.mpf(rng.uniform(0.05, 1.0))
            b = beta(x, y)
            assert abs(b - beta(y, x)) < HP.mpf("1e-25") * b
            assert abs(beta(x + 1, y) - b * x / (x + y)) < HP.mpf("1e-25") * b
        # F symmetry / G antisymmetry
        for _ in range(50):
            x = HP.mpf(rng.uniform(0.01, 1.0))
            y = HP.mpf(rng.uniform(0.01, 1.0))
            assert abs(big_F(x, y) - big_F(y, x)) < HP.mpf("1e-25")
            assert abs(big_G(x, y) + big_G(y, x)) < HP.mpf("1e-25")
        # displayed partial derivative against finite differences of F
        h = HP.mpf("1e-8")
        for _ in range(100):
            x = HP.mpf(rng.uniform(0.05, 0.95))
            y = HP.mpf(rng.uniform(0.05, 0.95))
            fd = (big_F(x + h, y) - big_F(x - h, y)) / (2 * h)
            dF_dx = psi(x + 1) - psi(x + y + 1) + dFdx_rational(x, y)
            assert abs(fd - dF_dx) < HP.mpf("1e-14")
        # one-sign-change criterion: the certificate point implies exact
        # positivity at 100 random interior points per polynomial
        certified = [
            (CAT.p[0], F(3, 20)),
            (CAT.p[1], F(1, 5)),
            (CAT.p[2], F(1)),
            (CAT.p[3], F(1)),
            (CAT.p[4], F(9, 25)),
        ]
        for poly, point in certified:
            assert signs.positive_below(poly, point)
            for _ in range(100):
                sub = F(rng.randrange(1, 10**6), 10**6) * point
                assert poly(sub) > 0


def test_criterion_9_replay_command_exit_codes(tmp_path):
    with Budget("9 (replay command)", 30.0):
        out_default = tmp_path / "replay_default.json"
        code = cli.main(
            ["replay", "--out", str(out_default)],
            environ={},
            stdout=io.StringIO(),
        )
        assert code == 0
        report = json.loads(out_default.read_text())
        assert report["summary"]["failed"] == 0
        assert report["summary"]["all_verified"] is True

        out_30 = tmp_path / "replay_30.json"
        code = cli.main(
            ["replay", "--precision", "30", "--out", str(out_30)],
            environ={},
            stdout=io.StringIO(),
        )
        assert code == 0
        assert json.loads(out_30.read_text())["summary"]["all_verified"] is True
