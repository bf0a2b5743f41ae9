"""CLI: exit codes, report determinism, CSV contract, env overrides."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import betabound
from betabound import constants, proof, specials
from betabound.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from betabound.polys import Poly
from betabound.proof import (
    CSV_HEADER,
    alzer_lower_bound,
    ivady_lower_bound,
    new_bound,
)
from betabound.specials import context, locate_delta_max


def run(argv, env=None):
    out = io.StringIO()
    code = main(argv, environ=env or {}, stdout=out)
    return code, out.getvalue()


# the options each subcommand takes; every other flag is a configuration error
OPTIONS_TAKEN = {
    "replay": {"--precision", "--out", "--format"},
    "roots": {"--width", "--format"},
    "constants": {"--precision", "--format"},
    "bounds": {"--precision", "--format", "--x"},
    "sweep": {"--grid", "--precision", "--out", "--format"},
}
VALID_VALUE = {"--precision": "50", "--grid": "5", "--width": "1e-6",
               "--out": "unused.out", "--format": "text", "--x": "1/2"}
# each flag a subcommand does not take, with a value valid where it is taken
UNREAD_FLAG_ARGVS = [
    [command, flag, VALID_VALUE[flag], *(["--x", "1"] if command == "bounds" else [])]
    for command, taken in OPTIONS_TAKEN.items()
    for flag in sorted(set(VALID_VALUE) - taken)
]


class TestConfig:
    def test_defaults(self):
        parser = build_parser({})
        sweep = parser.parse_args(["sweep"])
        assert (sweep.precision, sweep.grid, sweep.format) == (50, 1000, "text")
        assert parser.parse_args(["roots"]).width == Fraction(1, 10**6)

    @pytest.mark.parametrize("command, flag, value", [
        ("constants", "--precision", "10"),
        ("sweep", "--grid", "1"),
        ("roots", "--width", "0"),
        ("roots", "--format", "yaml"),
    ], ids=["precision", "grid", "width", "format"])
    def test_bad_value_same_message_from_flag_and_env(self, command, flag, value, capsys):
        assert run([command, flag, value]) == (EXIT_CONFIG, "")
        from_flag = capsys.readouterr().err
        env = {"BETABOUND_" + flag[2:].upper(): value}
        assert run([command], env=env) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith(f"configuration error: argument {flag}: ")

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["bounds"], ["roots", "--bogus"], ["sweep", "--grid"],
        ["sweep", "--grid", "abc"], ["roots", "--width", "1/0"], *UNREAD_FLAG_ARGVS,
    ])
    def test_bad_invocation_returns_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, env", [
        (["constants"], {"BETABOUND_GRID": "1"}),
        (["roots"], {"BETABOUND_PRECISION": "10"}),
        (["sweep", "--grid", "5"], {"BETABOUND_WIDTH": "0"}),
        (["replay", "--precision", "30"], {"BETABOUND_WIDTH": "0.1"}),
    ])
    def test_unread_variable_ignored(self, command, env, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(command, env=env)[0] == EXIT_OK

    @pytest.mark.parametrize("command", sorted(OPTIONS_TAKEN))
    def test_help_lists_only_the_options_taken(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"], environ={}, stdout=io.StringIO())
        assert exc.value.code == 0
        listed = set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}
        assert listed == OPTIONS_TAKEN[command]

    def test_bad_width(self):
        assert run(["roots", "--width", "0"])[0] == EXIT_CONFIG
        # replay encloses the roots at the default width and takes no --width
        assert run(["replay", "--width", "0.1"])[0] == EXIT_CONFIG

    def test_grid_one_exits_2(self):
        code, _ = run(["sweep", "--grid", "1"])
        assert code == EXIT_CONFIG


# sha256 of the replay report at each precision
REPORT_SHA256 = {
    "50": "f8b928348c2685302c4633c1af41b3d348feedd70a48acce2ff7905e2c0a67b9",
    "30": "0223719302c9fbfe63b038816159fd92b0be72978f1f0357bdb0a81ee9c52819",
}
# replays at each precision in turn in one process, writing DIR/<k>.json; the
# last line is the kernel cache misses after each replay
REPLAY_SEQUENCE = """
import sys
from betabound import cli, specials
out_dir, *precisions = sys.argv[1:]
misses = []
for k, precision in enumerate(precisions):
    cli.main(["replay", "--precision", precision, "--out", f"{out_dir}/{k}.json"])
    misses.append(specials._stirling_raw.cache_info().misses)
print(*misses)
"""


class TestReplayCommand:
    def test_exit_zero_and_report(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, text = run(["replay", "--out", str(out_path)])
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["summary"]["all_verified"] is True
        assert report["summary"]["verified"] >= 15
        assert report["summary"]["failed"] == 0

    def test_reduced_precision_still_passes(self, tmp_path):
        out_path = tmp_path / "report30.json"
        code, _ = run(["replay", "--precision", "30", "--out", str(out_path)])
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["summary"]["all_verified"]

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["replay", "--out", str(a)])
        run(["replay", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("order", [("50", "30", "50"), ("30", "50", "30")])
    def test_report_bytes_with_cold_and_warm_kernel_cache(self, tmp_path, order):
        # a fresh interpreter starts with empty kernel caches: its first replay
        # runs cold, the second at another precision shares no cache key with
        # it, and the third repeats the first on warm caches
        src = str(Path(betabound.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-c", REPLAY_SEQUENCE, str(tmp_path), *order],
            env=env, capture_output=True, text=True, check=True,
        )
        for k, precision in enumerate(order):
            report = (tmp_path / f"{k}.json").read_bytes()
            assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[precision]
        misses = done.stdout.splitlines()[-1].split()
        assert misses[2] == misses[1]  # the warm replay computed nothing new

    def test_kernel_caches_are_bounded(self):
        assert specials._stirling_raw.cache_info().maxsize == specials.KERNEL_CACHE_SIZE

    def test_failed_step_exits_1(self, tmp_path, monkeypatch, capsys):
        # G_rational(0, 0) = 1/10^6 instead of 0: the exact left-edge step fails
        G = proof.G_rational
        mutant = lambda x, y: G(x, y) + Fraction(1, 10**6)
        monkeypatch.setattr(proof, "G_rational", mutant)
        out_path = tmp_path / "mutant.json"
        code, _ = run(["replay", "--precision", "30", "--out", str(out_path)])
        assert code == EXIT_VERIFY_FAILED
        steps = {s["id"]: s for s in json.loads(out_path.read_text())["steps"]}
        assert len(steps) == 31
        assert steps["trapezoid.A.left-edge-endpoints"]["status"] == "failed"
        assert "trapezoid.A.left-edge-endpoints" in capsys.readouterr().err

    @staticmethod
    def _use_malformed_q3(monkeypatch):
        # q3 with all coefficients nonnegative has no root to isolate
        cat = proof.load_catalogue()
        q3 = Poly(abs(c) for c in cat.q[3].coeffs)
        mutated = cat._replace(q=cat.q[:3] + (q3,) + cat.q[4:])
        monkeypatch.setattr(proof, "load_catalogue", lambda: mutated)

    def test_malformed_catalogue_writes_report_and_exits_1(self, tmp_path, monkeypatch):
        self._use_malformed_q3(monkeypatch)
        out_path = tmp_path / "malformed.json"
        code, _ = run(["replay", "--precision", "30", "--out", str(out_path)])
        assert code == EXIT_VERIFY_FAILED
        steps = {s["id"]: s for s in json.loads(out_path.read_text())["steps"]}
        assert len(steps) == 31
        assert steps["strip.q-root-ordering"]["status"] == "inconclusive"

    def test_roots_on_malformed_catalogue_exits_1(self, monkeypatch, capsys):
        # roots says why on stderr and exits 1, as replay does
        self._use_malformed_q3(monkeypatch)
        code, text = run(["roots"])
        assert code == EXIT_VERIFY_FAILED
        assert text == ""
        assert capsys.readouterr().err == (
            "root isolation failed: criterion inapplicable: "
            "expected PN or NP pattern, got AllNonneg\n"
        )

    def test_json_format_prints_report(self, tmp_path):
        out_path = tmp_path / "r.json"
        code, text = run(["replay", "--out", str(out_path), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(text)["summary"]["all_verified"] is True


class TestRootsCommand:
    def test_default_width_certifies_digits(self):
        code, text = run(["roots"])
        assert code == EXIT_OK
        for prefix in ("0.03733", "0.2114", "0.3085", "0.3822", "0.4439"):
            assert prefix in text
        assert "ordering: verified" in text

    def test_wide_width_warns_but_passes(self):
        code, text = run(["roots", "--width", "1/4"])
        assert code == EXIT_OK
        assert "ordering unverified at this width" in text

    def test_fine_width_verifies_ordering(self):
        code, text = run(["roots", "--width", "1e-10"])
        assert code == EXIT_OK
        assert "ordering: verified" in text

    def test_json_format(self):
        code, text = run(["roots", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert len(payload["roots"]) == 5
        assert all(r["digits_certified"] for r in payload["roots"])


@pytest.fixture(scope="module")
def reference_maximizer():
    # searched to 1e-82, far below the 1e-22 .. 1e-57 of the runs it checks
    return locate_delta_max(150).x


class TestConstantsCommand:
    def test_prints_reference_digits(self):
        code, text = run(["constants"])
        assert code == EXIT_OK
        for ref in ("2.57973", "0.79003", "0.47053", "0.43218", "0.08731"):
            assert ref in text
        assert "matches=True" in text
        assert "matches=False" not in text

    @pytest.mark.parametrize("precision", ["30", "50", "100"])
    def test_printed_maximizer_digits_are_correct(self, precision, reference_maximizer):
        code, text = run(["constants", "--precision", precision])
        assert code == EXIT_OK
        printed = text.split("delta maximizer location: ")[1].strip()
        ctx = context(25)
        assert printed == ctx.nstr(ctx.mpf(reference_maximizer), 20)

    def test_json_format(self):
        code, text = run(["constants", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(text)["constants"]
        assert {r["name"] for r in rows} >= {"alpha", "a1", "a2", "a3", "alzer_max"}
        assert all(r["matches"] for r in rows)


class TestBoundsCommand:
    def test_chains_ordered(self):
        code, text = run(["bounds", "--x", "1"])
        assert code == EXIT_OK
        assert "strict ordering: True" in text

    def test_rational_point(self):
        code, text = run(["bounds", "--x", "1/2"])
        assert code == EXIT_OK

    def test_bad_point(self):
        code, _ = run(["bounds", "--x", "-1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_point(self, value, capsys):
        code, text = run(["bounds", "--x", value])
        assert code == EXIT_CONFIG
        assert text == ""
        assert "--x must be a positive finite number" in capsys.readouterr().err


# sha256 of `sweep --grid 150`'s CSV, and of the eight-column CSV (x, y,
# beta, new_bound, ivady_lower, alzer_lower, margin_new, margin_ivady) that
# `sweep` wrote before the bound columns were dropped
SWEEP150_SHA256 = "e550ed7a219882d756bc48c3db1d37b947482cf3575723e7bca66a1ad307b391"
EIGHT_COLUMN_SWEEP150_SHA256 = (
    "924aa8c5d47f69fe00741d45650918306bd4b93a84910febf941f73bd030c698"
)


class TestSweepCommand:
    def test_small_sweep_csv(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, text = run(["sweep", "--grid", "20", "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 20 * 20 + 1
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        assert abs(float(last[2]) - 1.0) < 1e-12          # beta(1,1)
        assert abs(float(last[3]) - 1 / 3) < 1e-12        # margin_new
        assert "alpha = 2.5797362" in text

    def test_csv_bytes_match_reference(self, tmp_path):
        # csv.writer over repr of each cell, recomputed in the sweep's order
        n = 7
        out_path = tmp_path / "sweep7.csv"
        code, _ = run(["sweep", "--grid", str(n), "--out", str(out_path)])
        assert code == EXIT_OK
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(CSV_HEADER.split(","))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                x, y = i / n, j / n
                b = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
                writer.writerow([repr(v) for v in (x, y, b, b - new_bound(x, y))])
        assert out_path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_dropped_columns_rebuild_from_the_formulas(self, tmp_path):
        # the four bound columns of the earlier eight-column file are the
        # shared formulas of x, y, beta and alpha: rebuilt from this file they
        # give that file's bytes, so writing only data loses nothing
        out_path = tmp_path / "sweep150.csv"
        code, _ = run(["sweep", "--grid", "150", "--out", str(out_path)])
        assert code == EXIT_OK
        data = out_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == SWEEP150_SHA256
        alpha = float(constants.alpha(50))
        rebuilt = ["x,y,beta,new_bound,ivady_lower,alzer_lower,margin_new,margin_ivady"]
        for line in data.decode("utf-8").split("\r\n")[1:-1]:
            x_text, y_text, b_text, m_new_text = line.split(",")
            x, y, b = float(x_text), float(y_text), float(b_text)
            new = new_bound(x, y)
            assert repr(b - new) == m_new_text
            iv = ivady_lower_bound(x, y)
            az = alzer_lower_bound(x, y, alpha)
            rebuilt.append(
                f"{x_text},{y_text},{b_text},{new!r},{iv!r},{az!r},{m_new_text},{b - iv!r}"
            )
        rebuilt_bytes = ("\r\n".join(rebuilt) + "\r\n").encode("utf-8")
        assert hashlib.sha256(rebuilt_bytes).hexdigest() == EIGHT_COLUMN_SWEEP150_SHA256

    def test_recheck_disagreement_has_its_own_message(self, tmp_path, monkeypatch, capsys):
        # every grid margin is positive; only the high-precision re-check fails
        monkeypatch.setattr(proof, "theorem_margin", lambda x, y, dps: Fraction(1))
        code, text = run(["sweep", "--grid", "5", "--out", str(tmp_path / "s.csv"),
                          "--format", "json"])
        assert code == EXIT_VERIFY_FAILED
        summary = json.loads(text)
        assert summary["min_margin_new"] > 0 and summary["hp_agrees"] is False
        err = capsys.readouterr().err
        assert "high-precision re-check of the worst cell disagrees" in err
        assert "nonpositive margin" not in err

    def test_summary_has_no_negative_classical_margin(self, tmp_path):
        out_path = tmp_path / "sweep20.csv"
        code, text = run(["sweep", "--grid", "20", "--out", str(out_path),
                          "--format", "json"])
        assert code == EXIT_OK
        summary = json.loads(text)
        assert summary["min_margin_ivady"] > 0
        assert summary["min_margin_alzer"] > 0
        assert summary["classical_edges_exact"] is True

    def test_hundred_grid_all_margins_positive(self, tmp_path):
        out_path = tmp_path / "sweep100.csv"
        code, _ = run(["sweep", "--grid", "100", "--out", str(out_path)])
        assert code == EXIT_OK
        with open(out_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert ",".join(header) == CSV_HEADER
            rows = list(reader)
        assert len(rows) == 100 * 100
        assert all(float(row[3]) > 0 for row in rows)  # margin_new column

    def test_env_overrides(self, tmp_path):
        out_path = tmp_path / "env.csv"
        code, _ = run(
            ["sweep"],
            env={"BETABOUND_GRID": "5", "BETABOUND_OUT": str(out_path)},
        )
        assert code == EXIT_OK
        assert len(out_path.read_text().strip().splitlines()) == 26

    def test_flag_beats_env(self, tmp_path):
        out_path = tmp_path / "flag.csv"
        code, _ = run(
            ["sweep", "--grid", "3", "--out", str(out_path)],
            env={"BETABOUND_GRID": "7"},
        )
        assert code == EXIT_OK
        assert len(out_path.read_text().strip().splitlines()) == 10

    def test_io_failure_exit_3(self):
        code, _ = run(["sweep", "--grid", "3", "--out", "/nonexistent/x.csv"])
        assert code == 3


def test_unknown_format_rejected():
    for fmt in ("yaml", "csv"):
        code, _ = run(["replay", "--format", fmt])
        assert code == EXIT_CONFIG


def test_env_format_validated():
    for fmt in ("yaml", "csv"):
        code, _ = run(["roots"], env={"BETABOUND_FORMAT": fmt})
        assert code == EXIT_CONFIG
