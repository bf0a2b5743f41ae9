"""Batch command-line front end.

Subcommands
-----------
replay     rerun every proof step; write the JSON report; exit 0 iff all verified
roots      enclose the five crossing roots and check their reference digits
constants  print the named constants next to their reference digits
bounds     print both sandwich chains at a point (--x)
sweep      grid audit of the bound; write the CSV and print min margins

``OPTIONS`` declares each option once (converter and check, default, help)
and ``COMMANDS`` each subcommand (runner, help, the options it reads); any
other flag is a configuration error.  An option's ``BETABOUND_`` variable
(PRECISION, GRID, WIDTH, OUT, FORMAT) is its default, so one converter
checks flag and variable alike and a variable applies only where its option
does; explicit flags win.  Every configuration error reaches ``main`` as a
``ConfigError``.  A runner hands (payload, text) to one writer, the only
reader of ``--format``.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 I/O failure.

Reports carry no timestamps, so two runs with the same configuration
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import proof, signs
from .constants import (
    REFERENCE_DIGITS,
    agrees_with_printed,
    compute_constants,
    full_sandwich,
)
from .specials import DEFAULT_DPS, context, to_mpf

ENV_PREFIX = "BETABOUND_"
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

ROOT_REFERENCE_DIGITS = ("0.03733", "0.2114", "0.3085", "0.3822", "0.4439")


class ConfigError(ValueError):
    pass


def _decimal(value, digits: int = 20) -> str:
    ctx = context(digits + 5)
    return ctx.nstr(to_mpf(ctx, value), digits)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each hands its (payload, text) to ``emit``, returns the exit code
# ---------------------------------------------------------------------------


def cmd_replay(args, emit) -> int:
    report = proof.replay_all(dps=args.precision)
    payload = report.to_json_obj()
    out_path = args.out or "replay_report.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(_json(payload))
    lines = [f"[{step.status:>12}] {step.id}\n" for step in report.steps]
    counts = report.counts
    lines.append(
        f"steps: {len(report.steps)}  verified: {counts['verified']}  "
        f"failed: {counts['failed']}  inconclusive: {counts['inconclusive']}\n"
        f"report written to {out_path}\n"
    )
    emit(payload, "".join(lines))
    if not report.all_verified:
        print("failed steps: " + ", ".join(report.failed_ids), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_roots(args, emit) -> int:
    try:
        enclosures = proof.q_root_enclosures(args.width)
    except ValueError as exc:   # a q_k with no sign change has no root to enclose
        print(f"root isolation failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    checks = [
        signs.check_printed_digits(enc, ref)
        for enc, ref in zip(enclosures, ROOT_REFERENCE_DIGITS)
    ]
    rows = []
    for k, (enc, chk) in enumerate(zip(enclosures, checks), start=1):
        rows.append(
            {
                "root": f"x{k}",
                "lo": str(enc.lo),
                "hi": str(enc.hi),
                "decimal": _decimal((enc.lo + enc.hi) / 2),
                "reference": chk.prefix,
                "digits_certified": chk.certified,
                "digits_consistent": chk.consistent,
            }
        )
    try:
        ordering = signs.verify_root_ordering(enclosures)
        ordering_note = "verified" if ordering else "out of order"
    except ValueError:
        ordering = None
        ordering_note = "ordering unverified at this width"

    lines = [
        f"{row['root']}: {row['decimal']}  (reference {row['reference']})  "
        f"enclosure [{row['lo']}, {row['hi']}]  "
        f"certified={row['digits_certified']}\n"
        for row in rows
    ]
    lines.append(f"ordering: {ordering_note}\n")
    emit({"roots": rows, "ordering": ordering_note}, "".join(lines))

    if any(not c.consistent for c in checks):
        print("reference digits fall outside an enclosure", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if ordering is False:
        print("root enclosures are not in increasing order", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_constants(args, emit) -> int:
    consts = compute_constants(args.precision)
    values = {
        "alpha": consts.alpha,
        "beta": consts.beta_const,
        "a1": consts.a1,
        "a2": consts.a2,
        "a3": consts.a3,
        "alzer_max": consts.alzer_max,
    }
    rows = []
    for name, value in values.items():
        ref = REFERENCE_DIGITS.get(name, "")
        matches = agrees_with_printed(value, ref) if ref else True
        rows.append(
            {
                "name": name,
                "value": _decimal(value) if name != "beta" else str(value),
                "reference": ref or "1 (exact)",
                "matches": matches,
            }
        )
    lines = [
        f"{row['name']:>10} = {row['value']:<26} "
        f"reference {row['reference']}  matches={row['matches']}\n"
        for row in rows
    ]
    lines.append(f"delta maximizer location: {_decimal(consts.delta_argmax)}\n")
    emit({"constants": rows}, "".join(lines))
    return EXIT_OK if all(row["matches"] for row in rows) else EXIT_VERIFY_FAILED


def cmd_bounds(args, emit) -> int:
    chain = full_sandwich(args.x, args.precision)
    first, second = chain[:5], chain[5:]
    ordered = all(a[1] < b[1] for c in (first, second) for a, b in zip(c, c[1:]))
    payload = {
        "x": str(args.x),
        "chain": [{"label": lab, "value": _decimal(val)} for lab, val in chain],
        "ordered": ordered,
    }
    lines = [f"sandwich chains at x = {args.x}\n"]
    lines += [f"  {lab:<14} {_decimal(val)}\n" for lab, val in first]
    lines.append("\n")
    lines += [f"  {lab:<14} {_decimal(val)}\n" for lab, val in second]
    lines.append(f"strict ordering: {ordered}\n")
    emit(payload, "".join(lines))
    return EXIT_OK if ordered else EXIT_VERIFY_FAILED


def cmd_sweep(args, emit) -> int:
    out_path = args.out or "sweep.csv"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(proof.CSV_HEADER_LINE)
        result = proof.sweep_theorem(args.grid, dps=args.precision, row_sink=fh.write)
    summary = {
        "grid_n": result.grid_n,
        "rows": result.rows_written,
        "min_margin_new": result.min_margin_new,
        "argmin_new": result.argmin_new,
        "min_margin_ivady": result.min_margin_ivady,
        "min_margin_alzer": result.min_margin_alzer,
        "alpha": _decimal(result.alpha_used),
        "classical_edges_exact": result.classical_edges_exact,
        "hp_min_margin": result.hp_min_margin,
        "hp_agrees": result.hp_agrees,
        "csv": out_path,
    }
    text = (
        f"grid {result.grid_n}x{result.grid_n}: min new-bound margin "
        f"{result.min_margin_new:.6e} at {result.argmin_new}\n"
        f"min ivady margin {result.min_margin_ivady:.6e}; "
        f"min alzer margin {result.min_margin_alzer:.6e} "
        f"(interior cells; alpha = {summary['alpha']})\n"
        f"classical bounds equal beta exactly on x = 1 and y = 1: "
        f"{result.classical_edges_exact}; "
        f"high-precision check of worst cell: {result.hp_min_margin} "
        f"(agrees={result.hp_agrees})\n"
        f"csv written to {out_path}\n"
    )
    emit(summary, text)
    if result.min_margin_new <= 0:
        print("sweep found a nonpositive margin", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if not result.hp_agrees:
        print("the high-precision re-check of the worst cell disagrees "
              "with its double-precision margin", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _checked(parse, ok, message: str):
    """An argparse ``type``: parse the text, then require ``ok(value)``."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"bad option value: {exc}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    return convert


def _parse_point(text: str):
    if "/" in text:
        return Fraction(text)
    return context(60).mpf(text)


# add_argument keywords of each option; the BETABOUND_ variable of an option
# with a default replaces that default (argparse converts a str default with
# the option's type, so the variable is checked where the flag is)
OPTIONS = {
    "precision": dict(
        type=_checked(int, lambda d: d >= 30, "precision must be >= 30 digits"),
        default=DEFAULT_DPS,
        help=f"working precision in decimal digits (>= 30, default {DEFAULT_DPS})",
    ),
    "grid": dict(
        type=_checked(int, lambda n: n >= 2, "grid must be >= 2"),
        default=1000,
        help="sweep grid size per axis (>= 2, default 1000)",
    ),
    "width": dict(
        type=_checked(Fraction, lambda w: w > 0, "enclosure width must be positive"),
        default=signs.DEFAULT_WIDTH,
        help="root enclosure width, e.g. 1e-6 or 1/1000000",
    ),
    "out": dict(default=None, help="output path for report/CSV"),
    "format": dict(
        type=_checked(str, lambda fmt: fmt in ("json", "text"),
                      "format must be one of json, text"),
        default="text",
        metavar="{json,text}",
        help="stdout format (default text)",
    ),
    "x": dict(
        type=_checked(_parse_point, lambda p: p > 0 and context(60).isfinite(p),
                      "--x must be a positive finite number"),
        required=True,
        help="evaluation point (> 0), rational like 1/2 or decimal",
    ),
}

# name -> (runner, help, the options it reads)
COMMANDS = {
    "replay": (cmd_replay, "replay every proof step and write the JSON report",
               ("precision", "out", "format")),
    "roots": (cmd_roots, "enclose the five q-polynomial roots", ("width", "format")),
    "constants": (cmd_constants, "print the named constants with reference digits",
                  ("precision", "format")),
    "bounds": (cmd_bounds, "print the sandwich chains at a point",
               ("precision", "format", "x")),
    "sweep": (cmd_sweep, "grid audit of the bound; writes CSV",
              ("precision", "grid", "out", "format")),
}


class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigError`` where argparse would print usage and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(environ) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="betabound",
        description="Certify the rational lower bound for Euler's beta "
        "function on (0,1]^2 step by step.",
        epilog="An option falls back to its environment variable with the "
        "BETABOUND_ prefix (PRECISION, GRID, WIDTH, OUT, FORMAT) in the "
        "subcommands that take it; explicit flags win.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option in options:
            spec = OPTIONS[option]
            if "default" in spec:
                default = environ.get(ENV_PREFIX + option.upper(), spec["default"])
                spec = dict(spec, default=default)
            command.add_argument("--" + option, **spec)
        command.set_defaults(run=run)
    return parser


def main(argv=None, environ=None, stdout=None) -> int:
    environ = os.environ if environ is None else environ
    stdout = sys.stdout if stdout is None else stdout
    try:
        args = build_parser(environ).parse_args(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def emit(payload, text: str) -> None:
        stdout.write(_json(payload) if args.format == "json" else text)

    try:
        return args.run(args, emit)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
