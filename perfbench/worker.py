"""Benchmark worker: one fresh interpreter per call, started by ``run.py``.

Two modes, each printing one JSON object as its last line of output:

``worker.py cli TRACE ARG...``
    Imports betabound, then times ``betabound.cli.main([ARG...])`` once,
    the way a user's ``betabound ARG...`` process runs it.  With TRACE=1
    the span wrappers are installed between the import and the call.

``worker.py loop WORKLOAD SECONDS TRACE < items.json``
    Imports betabound, runs one untimed warm-up op per precision, then
    runs the ops of WORKLOAD (``points`` or ``oracle``) on the given
    (x, y, dps) items in a closed loop for SECONDS, checking each op
    against mpmath.  With TRACE=1 the first half of the time runs
    untraced and the second half re-runs the same items traced; any
    traced value that differs from its untraced value is a failed op.

Neither mode imports betabound before its set-up clock starts.
"""

from __future__ import annotations

import io
import json
import math
import resource
import sys
from time import perf_counter, process_time

import spans

WARMUP_POINT = (0.5, 0.5)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# ops and their checks
# ---------------------------------------------------------------------------


def points_op(bb, x, y, dps):
    """What ``bounds --x`` and library users evaluate at a fresh point."""
    sp = bb.specials
    return {
        "log_gamma": sp.log_gamma(x, dps),
        "psi": sp.psi(x, dps),
        "psi1": sp.psi1(x, dps),
        "psi2": sp.psi2(x, dps),
        "beta": sp.beta(x, y, dps),
        "theorem_margin": bb.proof.theorem_margin(x, y, dps),
        "big_F": bb.proof.big_F(x, y, dps),
        "big_G": bb.proof.big_G(x, y, dps),
        "sandwich": bb.psibounds.sandwich_margins(x, dps),
        "chain": bb.constants.full_sandwich(x, dps),
    }


def oracle_op(bb, x, y, dps):
    """Both routes to B(x, y) and Gamma(x): quadrature and series."""
    return {
        "beta_integral": bb.quadrature.beta_integral(x, y, dps),
        "beta": bb.specials.beta(x, y, dps),
        "gamma_integral": bb.quadrature.gamma_integral(x, dps),
        "gamma": bb.specials.gamma(x, dps),
    }


def _mp(value):
    """A value from any mpmath context as an mpf of the global context."""
    import mpmath

    return mpmath.mpf(value._mpf_) if hasattr(value, "_mpf_") else mpmath.mpf(value)


def relative_error(value, reference):
    import mpmath

    return abs(_mp(value) - reference) / max(mpmath.mpf(1), abs(reference))


def correct_digits(relerr, cap: int) -> float:
    if relerr == 0:
        return float(cap)
    return min(float(cap), -math.log10(float(relerr)))


def check_points(bb, x, y, dps, values) -> tuple[bool, float]:
    """(ok, fewest correct digits of the special values) for one points op."""
    import mpmath

    budget = _mp(bb.psibounds.error_budget(dps))
    ref_dps = dps + 30
    with mpmath.workdps(ref_dps):
        xm, ym = mpmath.mpf(x), mpmath.mpf(y)
        references = {
            "log_gamma": mpmath.loggamma(xm),
            "psi": mpmath.digamma(xm),
            "psi1": mpmath.psi(1, xm),
            "psi2": mpmath.psi(2, xm),
            "beta": mpmath.beta(xm, ym),
        }
        errors = [relative_error(values[k], ref) for k, ref in references.items()]
        ok = all(e <= budget for e in errors)
        ok = ok and _mp(values["theorem_margin"]) > 0 and _mp(values["big_F"]) > 0
        ok = ok and all(_mp(m) > 0 for m in values["sandwich"].values())
        chain = [_mp(v) for _, v in values["chain"]]
        for part in (chain[:5], chain[5:]):
            ok = ok and all(a < b for a, b in zip(part, part[1:]))
        digits = min(correct_digits(e, ref_dps) for e in errors)
    return ok, digits


def check_oracle(bb, x, y, dps, values) -> tuple[bool, None]:
    """(ok, None) for one oracle op: no mpmath reference, so no digit count."""
    import mpmath

    budget = _mp(bb.psibounds.error_budget(dps))
    with mpmath.workdps(dps + 30):
        ok = (
            relative_error(values["beta_integral"], _mp(values["beta"])) <= budget
            and relative_error(values["gamma_integral"], _mp(values["gamma"])) <= budget
        )
    return ok, None


OPS = {
    "points": (points_op, check_points, (30, 50, 100)),
    "oracle": (oracle_op, check_oracle, (30, 50)),
}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _import_betabound():
    import betabound
    import betabound.cli
    import betabound.quadrature

    return betabound


def run_cli(trace: bool, argv: list[str]) -> dict:
    t0 = perf_counter()
    bb = _import_betabound()
    setup_s = perf_counter() - t0
    rec = None
    if trace:
        rec = spans.Recorder()
        spans.install(rec)
        precision = argv[argv.index("--precision") + 1] if "--precision" in argv else 50
        rec.current_bucket = int(precision)
    out = io.StringIO()
    root = rec.open(spans.ROOT_SPAN) if rec else None
    t, c = perf_counter(), process_time()
    rc = bb.cli.main(argv, stdout=out)
    op_s, op_cpu_s = perf_counter() - t, process_time() - c
    if rec:
        rec.close(root)
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "op_cpu_s": op_cpu_s,
        "rc": rc,
        "stdout": out.getvalue(),
        "rss_mb": peak_rss_mb(),
        "trace": rec.summary() if rec else None,
    }


def _timed_loop(bb, op, check, items, seconds, rec=None):
    """Run ops on items until `seconds` pass.

    Returns wall times, CPU times, ok flags, (dps, digits) pairs and values.
    """
    times, cpu, oks, digits, values = [], [], [], [], []
    deadline = perf_counter() + seconds
    for x, y, dps in items:
        if perf_counter() >= deadline:
            break
        if rec:
            rec.current_bucket = dps
            root = rec.open(spans.ROOT_SPAN)
        t, c = perf_counter(), process_time()
        try:
            result = op(bb, x, y, dps)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        times.append(perf_counter() - t)
        cpu.append(process_time() - c)
        if rec:
            rec.close(root)
        if isinstance(result, Exception):
            oks.append(False)
            values.append(repr(result))
            continue
        ok, d = check(bb, x, y, dps, result)
        oks.append(ok)
        if d is not None:
            digits.append((dps, d))
        values.append(repr(result))
    return times, cpu, oks, digits, values


def run_loop(workload: str, seconds: float, trace: bool, items: list) -> dict:
    op, check, precisions = OPS[workload]
    t0 = perf_counter()
    bb = _import_betabound()
    for dps in precisions:
        op(bb, *WARMUP_POINT, dps)
    setup_s = perf_counter() - t0

    plain_seconds = seconds / 2 if trace else seconds
    times, cpu, oks, digits, values = _timed_loop(bb, op, check, items, plain_seconds)
    result = {
        "setup_s": setup_s,
        "op_times": times,
        "op_cpu_times": cpu,
        "oks": oks,
        "digits": digits,
        "done": len(times),
    }
    if trace:
        rec = spans.Recorder()
        restore = spans.install(rec)
        try:
            t_times, _, t_oks, t_digits, t_values = _timed_loop(
                bb, op, check, items[: len(times)], seconds - plain_seconds, rec
            )
        finally:
            restore()
        same = [a == b for a, b in zip(t_values, values)]
        result.update(
            traced_op_times=t_times,
            traced_oks=[a and b for a, b in zip(t_oks, same)],
            traced_digits=t_digits,
            trace=rec.summary(),
        )
    result["rss_mb"] = peak_rss_mb()
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        payload = run_cli(argv[1] == "1", argv[2:])
    elif mode == "loop":
        items = json.load(sys.stdin)
        payload = run_loop(argv[1], float(argv[2]), argv[3] == "1", items)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
