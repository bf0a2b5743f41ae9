#!/usr/bin/env python3
"""The betabound benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload

Each workload is a closed loop with one client and one process at a time.
Its inputs come from ``--seed``; every op's output is checked, and a
mismatch, exception or non-zero exit counts as a failed op.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run in which ``spans.py`` wraps the public functions of every layer.  The
lines before it state each metric with its unit and sample count, the
environment and the input properties.  ``NOTES.md`` gives the reason for
each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RUN_DIR = ROOT / ".bench_run"

SWEEP_GRID = 150
SWEEP_SAMPLE_ROWS = 16
LOOP_WORKERS = 7
NEAR_AXIS = 1 / 250
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150
ITEMS_PER_SECOND = 1000

# name -> (kind, precisions, lower end of each coordinate's range)
WORKLOADS = {
    "replay": ("cli", (30, 50), None),
    "sweep": ("cli", (50,), None),
    "points": ("points", (30, 50, 100), 0.0),
    "oracle-bulk": ("oracle", (30, 50), NEAR_AXIS),
    "oracle": ("oracle", (30, 50), 0.0),
}

# End-to-end metrics with their units.  E2E_METRICS are the result line's
# metrics and carry a bound in BENCHMARK.json.  PRINTED_METRICS are printed
# only.  On the 2-CPU machine the benchmark was tuned on, the CPU speed
# flips between two levels about 40% apart every few seconds, so a run's
# median and mean move with its share of slow seconds (15-35% between runs).
# Other tasks also take the CPU from an op for tens of milliseconds, in
# bursts that stretch ten or more short `points` ops in some runs and none
# in others, which moves the wall-clock tail; CPU time per op does not see
# them.
E2E_METRICS = (
    ("setup_s", "s"),
    ("op_cpu_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)
PRINTED_METRICS = (
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("work_per_s", "1/s"),
)
IMPORT_MODULES = (
    "betabound.proof",
    "betabound.psibounds",
    "betabound.constants",
    "betabound.specials",
    "betabound.polys",
    "mpmath",
)
DIGITS_PRECISIONS = (30, 50, 100)


def layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit, in print order."""
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.calls", "1/op"), (f"{name}.self_s", "s/op")]
    out += [(f"{spans.CSV_SINK}.calls", "1/op"), (f"{spans.CSV_SINK}.self_s", "s/op"),
            (f"{spans.CSV_SINK}.bytes", "B/op")]
    out += [(metric, "1/call") for metric, _, _ in spans.NESTED_COUNTS]
    for name in spans.SPECIALS_TIMED:
        out += [(f"{name}.us_per_call.dps{d}", "us/call") for d in DIGITS_PRECISIONS]
    out += [(f"specials.digits_min.dps{d}", "digits") for d in DIGITS_PRECISIONS]
    out += [("quadrature.nodes_per_call.p50", "count"),
            ("quadrature.nodes_per_call.max", "count")]
    out += [(f"import.{m}.self_ms", "ms") for m in IMPORT_MODULES]
    out += [("trace.op_s", "s/op"), ("trace.unattributed_s", "s/op"),
            ("trace.overhead_share", "ratio")]
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    With the nearest-rank rule the p-th percentile of n samples is the
    ceil(p n / 100)-th smallest, so n - ceil(p n / 100) samples lie beyond
    it.  With n <= TAIL_BEYOND no percentile qualifies and the maximum
    (p100) is reported.
    """
    if n <= TAIL_BEYOND:
        return 100
    return 100 * (n - TAIL_BEYOND) // n


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    k = max(1, -(-p * len(ordered) // 100))
    return ordered[k - 1]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_worker(args: list[str], stdin: str | None = None):
    """(parsed result or None on failure, wall seconds from spawn to exit)."""
    t = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        input=stdin, capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    wall = perf_counter() - t
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None, wall
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def warm_bytecode() -> None:
    """Compile the package once, untimed, so every timed import reads .pyc."""
    subprocess.run(
        [sys.executable, "-c", "import betabound.cli, betabound.quadrature"],
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
    )


def import_breakdown(runs: int = 3) -> dict:
    """Median self time (ms) per module from ``python -X importtime``."""
    seen = {m: [] for m in IMPORT_MODULES}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import betabound"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            self_us, _, module = line[len("import time:"):].split("|")
            if module.strip() in seen and self_us.strip().isdigit():
                seen[module.strip()].append(int(self_us) / 1000)
    return {m: statistics.median(v) if v else 0.0 for m, v in seen.items()}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def balanced(rng: random.Random, values):
    """Endless seeded schedule using each value once per block."""
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def point_items(seed: int, precisions, lo: float, count: int) -> list:
    """Seeded (x, y, dps) items; x and y uniform on (lo, 1]."""
    rng = random.Random(seed)
    dps = balanced(rng, precisions)
    return [
        [lo + (1 - lo) * (1 - rng.random()), lo + (1 - lo) * (1 - rng.random()),
         next(dps)]
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# checks of the one-process-per-op workloads
# ---------------------------------------------------------------------------


def check_replay(res: dict, path: Path, precision: int, first: dict) -> bool:
    """Exit 0, every step verified, same bytes as the run's first report."""
    if res is None or res["rc"] != 0 or not path.is_file():
        return False
    data = path.read_bytes()
    report = json.loads(data)
    ok = (
        report["precision_digits"] == precision
        and report["summary"]["all_verified"] is True
        and all(step["status"] == "verified" for step in report["steps"])
    )
    return ok and first.setdefault(precision, data) == data


def check_sweep(res: dict, path: Path, n: int, rng: random.Random, first: dict) -> bool:
    """n^2 rows, the y = 1 edge minimum 1/(2n+1), hp agreement, sampled rows.

    The margin on the y = 1 edge is x/(x+2), so the grid minimum sits at
    (1/n, 1) and equals 1/(2n+1).  The 50-digit recomputation must match it
    to 1e-12 relative.  The double-precision minimum is a difference of two
    doubles near B(1/n, 1) = n, so it is allowed 64 ulps of n.
    """
    import mpmath

    if res is None or res["rc"] != 0 or not path.is_file():
        return False
    data = path.read_bytes()
    summary = json.loads(res["stdout"])
    lines = data.decode("utf-8").splitlines()
    rows = lines[1:]
    edge = 1 / (2 * n + 1)
    hp_error = abs(mpmath.mpf(summary["hp_min_margin"]) * (2 * n + 1) - 1)
    ok = (
        lines[0].split(",")[:3] == ["x", "y", "beta"]
        and len(rows) == n * n == summary["rows"]
        and summary["argmin_new"] == [1 / n, 1.0]
        and hp_error <= 1e-12
        and abs(summary["min_margin_new"] - edge) <= 64 * sys.float_info.epsilon * n
        and summary["hp_agrees"] is True
    )
    for k in rng.sample(range(len(rows)), min(SWEEP_SAMPLE_ROWS, len(rows))):
        x, y, b = (float(v) for v in rows[k].split(",")[:3])
        ref = float(mpmath.beta(x, y))
        ok = ok and abs(b - ref) <= 1e-12 * ref
    digest = hashlib.sha256(data).hexdigest()
    return ok and first.setdefault("csv", digest) == digest


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Samples:
    """What one mode (plain or traced) of a run measured."""

    def __init__(self):
        self.op_times: list[float] = []
        self.op_cpu: list[float] = []
        self.walls: list[float] = []
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.oks: list[bool] = []
        self.work = 0
        self.trace: dict = {}
        self.digits: list = []

    @property
    def failed(self) -> int:
        return self.oks.count(False)


def run_cli_workload(name: str, seed: int, seconds: float, trace: bool):
    """replay / sweep: one fresh interpreter per op, as users run them."""
    rng = random.Random(seed)
    _, precisions, _ = WORKLOADS[name]
    schedule = balanced(rng, precisions)
    modes = (False, True) if trace else (False,)
    samples = {mode: Samples() for mode in modes}
    first: dict = {}
    mix, csv_sizes = Counter(), []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        precision = next(schedule)
        for traced in modes:
            s = samples[traced]
            if name == "replay":
                out = RUN_DIR / "replay_report.json"
                argv = ["replay", "--precision", str(precision), "--out", str(out)]
            else:
                out = RUN_DIR / "sweep.csv"
                argv = ["sweep", "--grid", str(SWEEP_GRID), "--out", str(out),
                        "--format", "json"]
            out.unlink(missing_ok=True)
            res, wall = run_worker(["cli", str(int(traced)), *argv])
            if name == "replay":
                ok = check_replay(res, out, precision, first)
                work = 1
            else:
                ok = check_sweep(res, out, SWEEP_GRID, rng, first)
                work = SWEEP_GRID * SWEEP_GRID
                csv_sizes.append(out.stat().st_size if out.is_file() else 0)
            mix[precision] += 1
            s.oks.append(ok)
            s.walls.append(wall)
            s.work += work if ok else 0
            if res is not None:
                s.op_times.append(res["op_s"])
                s.op_cpu.append(res["op_cpu_s"])
                s.setups.append(res["setup_s"])
                s.rss.append(res["rss_mb"])
                if res["trace"]:
                    spans.merge(s.trace, res["trace"])
            else:
                s.op_times.append(wall)
                s.op_cpu.append(wall)
    props = {"precision_mix": dict(sorted(mix.items()))}
    if name == "sweep":
        props.update(grid_n=SWEEP_GRID, csv_bytes_per_op=statistics.median(csv_sizes))
    return samples, props


def run_loop_workload(name: str, seed: int, seconds: float, trace: bool):
    """points / oracle: LOOP_WORKERS fresh workers share one seeded item list."""
    kind, precisions, lo = WORKLOADS[name]
    items = point_items(seed, precisions, lo, int(seconds * ITEMS_PER_SECOND) + 100)
    modes = (False, True) if trace else (False,)
    samples = {mode: Samples() for mode in modes}
    offset = 0
    for _ in range(LOOP_WORKERS):
        res, _ = run_worker(
            ["loop", kind, repr(seconds / LOOP_WORKERS), str(int(trace))],
            stdin=json.dumps(items[offset:]),
        )
        if res is None:
            raise RuntimeError(f"{name} worker failed")
        plain = samples[False]
        plain.setups.append(res["setup_s"])
        plain.rss.append(res["rss_mb"])
        plain.op_times += res["op_times"]
        plain.op_cpu += res["op_cpu_times"]
        plain.walls += res["op_times"]
        plain.oks += res["oks"]
        plain.digits += res["digits"]
        plain.work += sum(res["oks"])
        if trace:
            t = samples[True]
            t.op_times += res["traced_op_times"]
            t.oks += res["traced_oks"]
            t.digits += res["traced_digits"]
            spans.merge(t.trace, res["trace"])
        offset += res["done"]
    done = items[:offset]
    props = {
        "precision_mix": dict(sorted(Counter(d for _, _, d in done).items())),
        "point_range": f"({lo:g}, 1]^2",
        "near_axis_share": (
            sum(min(x, y) < NEAR_AXIS for x, y, _ in done) / len(done) if done else 0.0
        ),
    }
    return samples, props


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def e2e_metrics(s: Samples) -> tuple[dict, dict]:
    n = len(s.op_times)
    p = tail_percentile(n)
    values = {
        "setup_s": statistics.median(s.setups or [0.0]),
        "op_s.p50": statistics.median(s.op_times),
        "op_s.tail": nearest_rank(s.op_times, p),
        "op_cpu_s.tail": nearest_rank(s.op_cpu, p),
        "work_per_s": s.work / sum(s.walls),
        "peak_rss_mb": statistics.median(s.rss or [0.0]),
    }
    notes = {
        "setup_s": f"median of {len(s.setups)} fresh workers",
        "op_s.p50": f"n={n}",
        "op_s.tail": f"p{p}, n={n}",
        "op_cpu_s.tail": f"p{p} of CPU time per op, n={n}",
        "work_per_s": f"{s.work} units in {sum(s.walls):.3f} s",
        "peak_rss_mb": f"median of {len(s.rss)} workers",
    }
    return values, notes


def layer_metrics(plain: Samples, traced: Samples, imports: dict) -> dict:
    ops = max(1, len(traced.op_times))
    tr = traced.trace
    span_totals = tr.get("spans", {})
    counters = tr.get("counters", {})
    values = {}
    for span in spans.SPAN_NAMES:
        calls, self_s, _ = span_totals.get(span, (0, 0.0, 0.0))
        values[f"{span}.calls"] = calls / ops
        values[f"{span}.self_s"] = self_s / ops
    calls, seconds, amount = counters.get(spans.CSV_SINK, (0, 0.0, 0))
    values[f"{spans.CSV_SINK}.calls"] = calls / ops
    values[f"{spans.CSV_SINK}.self_s"] = seconds / ops
    values[f"{spans.CSV_SINK}.bytes"] = amount / ops
    for metric, _, _ in spans.NESTED_COUNTS:
        inside, enclosing = tr.get("nested", {}).get(metric, (0, 0))
        values[metric] = inside / enclosing if enclosing else 0.0
    for span in spans.SPECIALS_TIMED:
        for d in DIGITS_PRECISIONS:
            calls, incl = tr.get("buckets", {}).get(f"{span}|{d}", (0, 0.0))
            values[f"{span}.us_per_call.dps{d}"] = 1e6 * incl / calls if calls else 0.0
    for d in DIGITS_PRECISIONS:
        seen = [v for dps, v in plain.digits + traced.digits if dps == d]
        values[f"specials.digits_min.dps{d}"] = min(seen) if seen else 0.0
    nodes = tr.get("nodes", [])
    values["quadrature.nodes_per_call.p50"] = statistics.median(nodes) if nodes else 0.0
    values["quadrature.nodes_per_call.max"] = max(nodes) if nodes else 0.0
    for m in IMPORT_MODULES:
        values[f"import.{m}.self_ms"] = imports[m]
    root = span_totals.get(spans.ROOT_SPAN, (0, 0.0, 0.0))
    values["trace.op_s"] = root[2] / ops
    values["trace.unattributed_s"] = root[1] / ops
    values["trace.overhead_share"] = (
        statistics.median(traced.op_times) / statistics.median(plain.op_times) - 1
    )
    return values


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    kind = WORKLOADS[name][0]
    runner = run_cli_workload if kind == "cli" else run_loop_workload
    samples, props = runner(name, seed, seconds, trace)
    plain = samples[False]
    attempted = sum(len(s.oks) for s in samples.values())
    failed = sum(s.failed for s in samples.values())
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(environment()))
    print("inputs " + json.dumps(props))
    print(f"  {'failed_share':<44} {failed / attempted:.6g}  ({failed}/{attempted} ops)")
    if trace:
        units = dict(layer_metric_units())
        values = layer_metrics(plain, samples[True], import_breakdown())
        for key, value in values.items():
            print(f"  {key:<44} {value:.6g} {units[key]}")
    else:
        units = dict(PRINTED_METRICS + E2E_METRICS)
        values, notes = e2e_metrics(plain)
        for key, value in values.items():
            print(f"  {key:<44} {value:.6g} {units[key]}  ({notes[key]})")
        values = {key: values[key] for key, _ in E2E_METRICS}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "betabound" / "__init__.py").is_file():
        print(f"error: no betabound sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    try:
        warm_bytecode()
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
