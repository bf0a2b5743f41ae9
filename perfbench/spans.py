"""Span recorder for the traced benchmark run.

``install`` wraps the public functions of each betabound layer from outside
the package: every module attribute and class attribute that is the original
function object is replaced, so names re-bound by ``from .x import y`` in a
consumer module (``proof.psi`` as well as ``specials.psi``) are traced too.
Each call records a span (name, start, end, parent) in memory; ``summary``
turns the spans into per-name call counts and self times at the end.

Work that happens too often for one span per event is accumulated as a
counter instead: the CSV row sink of ``sweep`` (time and bytes) and the
integrand evaluations of ``quadrature.tanh_sinh_unit`` (node counts).  A
counter's time is removed from the self time of the span it ran in.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

ROOT_SPAN = "op"

# (module, attribute path) of every traced public function
TARGETS = (
    ("polys", "Poly.__call__"),
    ("polys", "Poly.__mul__"),
    ("polys", "BiPoly.__mul__"),
    ("polys", "RationalFn.equivalent"),
    ("signs", "isolate_crossing"),
    ("signs", "classify"),
    ("specials", "log_gamma"),
    ("specials", "psi"),
    ("specials", "psi1"),
    ("specials", "psi2"),
    ("specials", "beta"),
    ("specials", "gamma"),
    ("quadrature", "beta_integral"),
    ("quadrature", "gamma_integral"),
    ("psibounds", "sandwich_margins"),
    ("psibounds", "lx_general"),
    ("psibounds", "lxx_general"),
    ("psibounds", "alzer_bracket_rf"),
    ("constants", "solve_a3"),
    ("constants", "full_sandwich"),
    ("catalogue", "load_catalogue"),
    ("proof", "replay_diagonal"),
    ("proof", "replay_strip"),
    ("proof", "replay_trapezoid"),
    ("proof", "theorem_margin"),
    ("proof", "big_F"),
    ("proof", "big_G"),
    ("proof", "sweep_theorem"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)
CSV_SINK = "cli.csv_sink"
SPECIALS_TIMED = tuple(
    name for name in SPAN_NAMES if name.startswith("specials.")
)
# (metric, counted span, enclosing span): descendants of each enclosing call
NESTED_COUNTS = (
    ("signs.evals_per_enclosure", "polys.Poly.__call__", "signs.isolate_crossing"),
    ("constants.solve_a3.gap_evals", "psibounds.lxx_general", "constants.solve_a3"),
)


class Recorder:
    """In-memory spans plus inline counters for one process."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.bucket: list[int] = []
        self.inline: list[float] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.current_bucket = 0  # the precision of the op being run
        self.counters = defaultdict(lambda: [0, 0.0, 0])  # calls, seconds, amount
        self.nodes: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.bucket.append(self.current_bucket)
        self.inline.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, name: str, seconds: float, amount: int) -> None:
        entry = self.counters[name]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += amount
        if self.stack:
            self.inline[self.stack[-1]] += seconds

    def summary(self) -> dict:
        """Per-name totals: calls, self seconds and inclusive seconds."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = defaultdict(lambda: [0, 0.0, 0.0])
        buckets = defaultdict(lambda: [0, 0.0])
        for i in range(n):
            dur = self.end[i] - self.start[i]
            entry = spans[self.name[i]]
            entry[0] += 1
            entry[1] += dur - child[i] - self.inline[i]
            entry[2] += dur
            if self.name[i] in SPECIALS_TIMED:
                b = buckets[f"{self.name[i]}|{self.bucket[i]}"]
                b[0] += 1
                b[1] += dur
        nested = {}
        for metric, counted, enclosing in NESTED_COUNTS:
            inside = 0
            for i in range(n):
                if self.name[i] != counted:
                    continue
                p = self.parent[i]
                while p >= 0 and self.name[p] != enclosing:
                    p = self.parent[p]
                inside += p >= 0
            nested[metric] = [inside, spans[enclosing][0] if enclosing in spans else 0]
        return {
            "spans": dict(spans),
            "buckets": dict(buckets),
            "counters": {k: list(v) for k, v in self.counters.items()},
            "nested": nested,
            "nodes": list(self.nodes),
        }


def merge(total: dict, part: dict) -> dict:
    """Add the summary `part` into `total` (both as returned by ``summary``)."""
    for key in ("spans", "buckets", "counters", "nested"):
        dest = total.setdefault(key, {})
        for name, values in part.get(key, {}).items():
            if name in dest:
                dest[name] = [a + b for a, b in zip(dest[name], values)]
            else:
                dest[name] = list(values)
    total.setdefault("nodes", []).extend(part.get("nodes", []))
    return total


def _span_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _sweep_wrapper(rec: Recorder, traced):
    """Counts the CSV sink's rows, time and bytes (``cli`` passes ``row_sink=``)."""

    @functools.wraps(traced)
    def wrapper(*args, **kwargs):
        sink = kwargs.get("row_sink")
        if sink is not None:
            def counted(row):
                t = perf_counter()
                written = sink(row)
                rec.count(CSV_SINK, perf_counter() - t, written or 0)
                return written

            kwargs["row_sink"] = counted
        return traced(*args, **kwargs)

    return wrapper


def _nodes_wrapper(rec: Recorder, fn):
    """Counts integrand evaluations per ``tanh_sinh_unit`` call."""

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        calls = 0

        def integrand(t, tc):
            nonlocal calls
            calls += 1
            return f(t, tc)

        try:
            return fn(integrand, *args, **kwargs)
        finally:
            rec.nodes.append(calls)

    return wrapper


def _rebind(original, replacement, owners, undo) -> None:
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                undo.append((owner, attr, value))
                setattr(owner, attr, replacement)


def install(rec: Recorder):
    """Wrap every target; return a function that restores the originals."""
    for mod, _ in TARGETS:
        importlib.import_module(f"betabound.{mod}")
    modules = [m for k, m in list(sys.modules.items())
               if k == "betabound" or k.startswith("betabound.")]
    undo: list = []
    for mod, attr in TARGETS:
        owner = sys.modules[f"betabound.{mod}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        name = f"{mod}.{attr}"
        replacement = _span_wrapper(rec, name, original)
        if name == "proof.sweep_theorem":
            replacement = _sweep_wrapper(rec, replacement)
        _rebind(original, replacement, [owner] if path else modules, undo)
    quad = sys.modules["betabound.quadrature"]
    _rebind(quad.tanh_sinh_unit, _nodes_wrapper(rec, quad.tanh_sinh_unit),
            modules, undo)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
