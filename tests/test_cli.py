"""CLI: exit codes, report determinism, CSV contract, env overrides."""

import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import betabound
from betabound import cli, constants, proof
from betabound.cli import (
    COMMANDS,
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
from betabound.specials import Interval, context, locate_delta_max, to_mpf


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

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], *[[command, "--help"] for command in COMMANDS],
        [], ["nope"], ["--precision", "30"], ["roots", "--bogus"],
        ["sweep", "--grid", "abc"], ["bounds"],
    ])
    def test_one_subparser_prints_what_all_six_print(self, argv, monkeypatch, capsys):
        # main builds only argv[0]'s subparser when it names a command; the
        # help texts, messages and exit codes are those of the full parser
        def outcome():
            try:
                code = main(argv, environ={}, stdout=io.StringIO())
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        monkeypatch.setenv("COLUMNS", "80")
        lazy = outcome()
        monkeypatch.setattr(cli, "build_parser", lambda environ, command=None:
                            build_parser(environ))
        assert lazy == outcome()
        assert lazy[0] == (0 if "--help" in argv or "-h" in argv else EXIT_CONFIG)

    def test_error_messages(self, capsys):
        assert run(["nope"]) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == (
            "configuration error: argument command: invalid choice: 'nope' "
            "(choose from 'replay', 'roots', 'constants', 'bounds', 'sweep')\n")
        assert run(["roots", "--bogus"]) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == (
            "configuration error: unrecognized arguments: --bogus\n")

    def test_parser_of_one_command_knows_no_other(self):
        with pytest.raises(cli.ConfigError, match="invalid choice: 'replay'"):
            build_parser({}, "roots").parse_args(["replay"])

    def test_bad_width(self):
        assert run(["roots", "--width", "0"])[0] == EXIT_CONFIG
        # replay encloses the roots at the default width and takes no --width
        assert run(["replay", "--width", "0.1"])[0] == EXIT_CONFIG

    def test_grid_one_exits_2(self):
        code, _ = run(["sweep", "--grid", "1"])
        assert code == EXIT_CONFIG


# sha256 of the replay report at each precision
REPORT_SHA256 = {
    "50": "5e6a5989773e1f27d5ff64a379ae3da71d31bbda3981a55573b4443bc868850d",
    "30": "34da7b5f66cdf51b4fb5b506a5ae6fe95e3297a3585e9f30367891ff6adfbbee",
    "100": "f258f4261446340a24d83c037425d1517a461a66d31f849934ac2a166ba452aa",
}
# replays at each precision in turn in one process, writing DIR/<k>.json; the
# last line is the number of mpmath contexts made so far
REPLAY_SEQUENCE = """
import sys
from betabound import cli, specials
out_dir, *precisions = sys.argv[1:]
for k, precision in enumerate(precisions):
    cli.main(["replay", "--precision", precision, "--out", f"{out_dir}/{k}.json"])
print(specials.context.cache_info().currsize)
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

    @pytest.mark.parametrize("order", [("50", "30", "50"), ("30", "50", "30"),
                                       ("100", "30", "100")])
    def test_report_bytes_with_cold_and_warm_kernel_cache(self, tmp_path, order):
        # a fresh interpreter starts with empty caches: its first replay runs
        # cold, the second at another precision shares no cache key with it,
        # and the third repeats the first on warm caches.  The replay's values
        # are integer enclosures: it makes no mpmath context
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
        assert done.stdout.splitlines()[-1] == "0"

    def test_failed_step_exits_1(self, tmp_path, monkeypatch, capsys):
        # G_rational(0, 0) = 1/10^6 instead of 0: the exact left-edge step fails
        G = proof.G_rational
        mutant = lambda x, y: G(x, y) + Fraction(1, 10**6)
        monkeypatch.setattr(proof, "G_rational", mutant)
        out_path = tmp_path / "mutant.json"
        code, _ = run(["replay", "--precision", "30", "--out", str(out_path)])
        assert code == EXIT_VERIFY_FAILED
        steps = {s["id"]: s for s in json.loads(out_path.read_text())["steps"]}
        assert len(steps) == 30
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
        assert len(steps) == 30
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
# the formulas rebuild from it.  The file `sweep` wrote before the bound
# columns were dropped hashes to 924aa8c5...: its alzer_lower came from the
# grouping (alpha (1 - x)) (1 - y) and differs in the last bits on 2,971
# of the 22,500 cells
SWEEP150_SHA256 = "e550ed7a219882d756bc48c3db1d37b947482cf3575723e7bca66a1ad307b391"
EIGHT_COLUMN_SWEEP150_SHA256 = (
    "9bec61b91932cdc786b637c4672f1897d3569da9711b3ec1d778d716234b4eba"
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
        # give that file's bytes, but for alzer_lower's regrouping, so writing
        # only data loses nothing
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

    def test_alpha_field(self, tmp_path):
        code, text = run(["sweep", "--grid", "5", "--out", str(tmp_path / "s.csv"),
                          "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(text)["alpha"] == "2.5797362673929056243"

    def test_recheck_disagreement_has_its_own_message(self, tmp_path, monkeypatch, capsys):
        # every grid margin is positive; only the high-precision re-check fails
        monkeypatch.setattr(proof, "_enclosed_margin",
                            lambda x, y, dps: Interval(1, 1))
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


# sha256 of the stdout of commands that print numbers through cli._decimal,
# as mpmath's nstr printed them before the CLI printed on integers
PRINTED_SHA256 = {
    ("roots",): "b79fcd02189e646d9fe7bd4291244d60979dfd2a8ba24a0dfdeb9a937868c689",
    ("roots", "--width", "1/1000"):
        "6c87506ddb3dad5e6da433eb490c5918bf976bcbe4c367c8ca93fe7e667e6c35",
    ("constants", "--precision", "30"):
        "67eba0e81beb7ca0c9e247d33cad5024bd8075e3ee6730bce5e61c636a8d9246",
    ("constants", "--precision", "50"):
        "67eba0e81beb7ca0c9e247d33cad5024bd8075e3ee6730bce5e61c636a8d9246",
    ("constants", "--precision", "100"):
        "67eba0e81beb7ca0c9e247d33cad5024bd8075e3ee6730bce5e61c636a8d9246",
    ("constants", "--precision", "200"):
        "67eba0e81beb7ca0c9e247d33cad5024bd8075e3ee6730bce5e61c636a8d9246",
    ("bounds", "--x", "1/3"):
        "3e35587c7387ca5ee895d46cee28b94aaefceb9dd77eb58bd8684878bfe08c1c",
    # the chains print 30 digits at any precision
    ("bounds", "--x", "1/3", "--precision", "200"):
        "3e35587c7387ca5ee895d46cee28b94aaefceb9dd77eb58bd8684878bfe08c1c",
    ("bounds", "--x", "1e-30"):
        "1b6a6d52c1ad0cf5d662640051f4c8cda99e508d3a8fc4b274cd1cad3ca8168f",
}


@pytest.mark.parametrize("argv", sorted(PRINTED_SHA256))
def test_printed_output_is_pinned(argv):
    text = run(list(argv))[1]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PRINTED_SHA256[argv]


def test_decimal_matches_mpmath_nstr():
    # the former _decimal: mpmath's nstr of the value as an mpf at 25 digits,
    # which holds a float or a dyadic Fraction below 2^80 exactly and rounds
    # an mpf of 30, 50 or 100 digits to 86 bits; at 20 digits nstr rounds
    # that mpf half up on its exact value, as _decimal rounds the value itself
    rng = random.Random(20)
    values = []
    for _ in range(1700):
        values.append(rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-40, 40))
        values.append(rng.choice((1, -1)) * Fraction(rng.randrange(1, 2**80),
                                                     2 ** rng.randrange(0, 200)))
        ctx = context(rng.choice((30, 50, 100)))
        values.append(ctx.mpf(rng.random()) * ctx.mpf(10) ** rng.randint(-40, 40) / 3)
    values += [0.0, 0.5, 1e-6, 1e-5, 1e20, 1e21, 2.0**-30, 9.999999999999999e22]
    nstr20 = context(25)
    for value in values:
        assert cli._decimal(value) == nstr20.nstr(to_mpf(nstr20, value), 20), value
