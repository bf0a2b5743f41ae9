"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import betabound  # noqa: E402
import betabound.quadrature  # noqa: E402


def _beyond(n: int, p: int) -> int:
    """Samples strictly after the nearest-rank p-th percentile of n samples."""
    values = list(range(n))
    return n - 1 - run.nearest_rank(values, p)


@pytest.mark.parametrize("n, expected", [(11, 9), (20, 50), (45, 77), (100, 90),
                                         (250, 96), (1000, 99), (10, 100), (1, 100)])
def test_tail_percentile_examples(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 1500):
        p = run.tail_percentile(n)
        assert _beyond(n, p) >= run.TAIL_BEYOND, n
        assert p == 100 or _beyond(n, p + 1) < run.TAIL_BEYOND, n


def _cli_worker(trace: bool, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.WORKER), "cli", str(int(trace)), "replay",
         "--precision", "30", "--out", str(out)],
        capture_output=True, text=True, env=run.child_env(), cwd=ROOT,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_replay_writes_identical_report(tmp_path):
    plain = _cli_worker(False, tmp_path / "plain.json")
    traced = _cli_worker(True, tmp_path / "traced.json")
    assert plain["rc"] == traced["rc"] == 0
    assert plain["trace"] is None and traced["trace"]["spans"]["cli.main"][0] == 1
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    assert plain["stdout"].replace("plain.json", "traced.json") == traced["stdout"]


@pytest.mark.parametrize("workload", ["points", "oracle"])
def test_traced_ops_return_identical_values(workload):
    op = worker.OPS[workload][0]
    items = [(0.37, 0.81, 30), (0.05, 0.6, 50)]
    plain = [repr(op(betabound, x, y, d)) for x, y, d in items]
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        traced = [repr(op(betabound, x, y, d)) for x, y, d in items]
    finally:
        restore()
    assert traced == plain
    assert rec.summary()["spans"]
    # restoring leaves no wrapper behind
    assert betabound.specials.psi is betabound.proof.psi
    assert not hasattr(betabound.specials.psi, "__wrapped__")


def test_perturbed_oracle_value_counts_as_failed(monkeypatch):
    op, check, _ = worker.OPS["oracle"]
    items = [(0.37, 0.81, 30), (0.6, 0.2, 50)]
    _, _, oks, _, _ = worker._timed_loop(betabound, op, check, items, 60)
    assert oks == [True, True]

    original = betabound.quadrature.beta_integral

    def perturbed(x, y, dps=50):
        value = original(x, y, dps)
        return value * (1 + value.context.mpf(10) ** (-20))

    monkeypatch.setattr(betabound.quadrature, "beta_integral", perturbed)
    _, _, oks, _, _ = worker._timed_loop(betabound, op, check, items, 60)
    assert oks == [False, False]
    samples = run.Samples()
    samples.oks += oks
    assert samples.failed == 2


def test_span_self_times_account_for_the_root():
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        root = rec.open(spans.ROOT_SPAN)
        worker.points_op(betabound, 0.3, 0.7, 30)
        rec.close(root)
    finally:
        restore()
    summary = rec.summary()
    total_self = sum(v[1] for v in summary["spans"].values())
    assert total_self == pytest.approx(summary["spans"][spans.ROOT_SPAN][2], rel=1e-9)
    # full_sandwich re-solves a3: every lxx_general inside solve_a3 is a gap evaluation
    inside, calls = summary["nested"]["constants.solve_a3.gap_evals"]
    assert calls == 1 and inside > 40


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
