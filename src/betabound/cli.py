"""Batch command-line front end.

Subcommands
-----------
replay     rerun every proof step; write the JSON report; exit 0 iff all verified
roots      enclose the five crossing roots and check their reference digits
constants  print the named constants next to their reference digits
bounds     print both sandwich chains at a point (--x)
sweep      grid audit of the bound; write the CSV and print min margins

Common flags: --precision, --grid, --width, --out, --format.  Environment
variables with the ``BETABOUND_`` prefix (PRECISION, GRID, WIDTH, OUT,
FORMAT) supply defaults; explicit flags win.  Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 I/O failure.

Reports carry no timestamps, so two runs with the same configuration
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import proof, signs
from .catalogue import load_catalogue
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


@dataclass
class RunConfig:
    precision_digits: int = DEFAULT_DPS
    grid_n: int = 1000
    enclosure_width: Fraction = signs.DEFAULT_WIDTH
    output_path: Optional[str] = None
    format: str = "text"

    def validate(self) -> None:
        if self.precision_digits < 30:
            raise ConfigError("precision must be >= 30 digits")
        if self.grid_n < 2:
            raise ConfigError("grid_n must be >= 2")
        if self.enclosure_width <= 0:
            raise ConfigError("enclosure width must be positive")
        if self.format not in ("json", "text"):
            raise ConfigError("format must be one of json, text")


def _env(environ, name: str) -> Optional[str]:
    return environ.get(ENV_PREFIX + name)


def config_from_args(args, environ) -> RunConfig:
    cfg = RunConfig()
    prec = args.precision if args.precision is not None else _env(environ, "PRECISION")
    grid = args.grid if args.grid is not None else _env(environ, "GRID")
    width = args.width if args.width is not None else _env(environ, "WIDTH")
    out = args.out if args.out is not None else _env(environ, "OUT")
    fmt = args.format if args.format is not None else _env(environ, "FORMAT")
    try:
        if prec is not None:
            cfg = replace(cfg, precision_digits=int(prec))
        if grid is not None:
            cfg = replace(cfg, grid_n=int(grid))
        if width is not None:
            cfg = replace(cfg, enclosure_width=Fraction(str(width)))
        if out is not None:
            cfg = replace(cfg, output_path=str(out))
        if fmt is not None:
            cfg = replace(cfg, format=str(fmt))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad option value: {exc}") from exc
    cfg.validate()
    return cfg


def _decimal(value, digits: int = 20) -> str:
    ctx = context(digits + 5)
    return ctx.nstr(to_mpf(ctx, value), digits)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_replay(cfg: RunConfig, stdout) -> int:
    report = proof.replay_all(
        dps=cfg.precision_digits, width=cfg.enclosure_width
    )
    payload = json.dumps(report.to_json_obj(), indent=2) + "\n"
    out_path = cfg.output_path or "replay_report.json"
    try:
        _write_text(out_path, payload)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    if cfg.format == "json":
        stdout.write(payload)
    else:
        for step in report.steps:
            stdout.write(f"[{step.status:>12}] {step.id}\n")
        counts = report.counts
        stdout.write(
            f"steps: {len(report.steps)}  verified: {counts['verified']}  "
            f"failed: {counts['failed']}  inconclusive: {counts['inconclusive']}\n"
        )
        stdout.write(f"report written to {out_path}\n")
    if not report.all_verified:
        print("failed steps: " + ", ".join(report.failed_ids), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_roots(cfg: RunConfig, stdout) -> int:
    cat = load_catalogue()
    enclosures = [
        signs.isolate_crossing(cat.q[k], 0, Fraction(1, 2), cfg.enclosure_width)
        for k in range(1, 6)
    ]
    checks = [
        signs.check_printed_digits(enc, ref)
        for enc, ref in zip(enclosures, ROOT_REFERENCE_DIGITS)
    ]
    rows = []
    for k, (enc, chk) in enumerate(zip(enclosures, checks), start=1):
        mid = (enc.lo + enc.hi) / 2
        rows.append(
            {
                "root": f"x{k}",
                "lo": str(enc.lo),
                "hi": str(enc.hi),
                "decimal": _decimal(mid),
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

    if cfg.format == "json":
        stdout.write(
            json.dumps({"roots": rows, "ordering": ordering_note}, indent=2) + "\n"
        )
    else:
        for row in rows:
            stdout.write(
                f"{row['root']}: {row['decimal']}  (reference {row['reference']})  "
                f"enclosure [{row['lo']}, {row['hi']}]  "
                f"certified={row['digits_certified']}\n"
            )
        stdout.write(f"ordering: {ordering_note}\n")

    if any(not c.consistent for c in checks):
        print("reference digits fall outside an enclosure", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if ordering is False:
        print("root enclosures are not in increasing order", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_constants(cfg: RunConfig, stdout) -> int:
    consts = compute_constants(cfg.precision_digits)
    values = {
        "alpha": consts.alpha,
        "beta": consts.beta_const,
        "a1": consts.a1,
        "a2": consts.a2,
        "a3": consts.a3,
        "alzer_max": consts.alzer_max,
    }
    ok = True
    rows = []
    for name, value in values.items():
        ref = REFERENCE_DIGITS.get(name, "")
        matches = agrees_with_printed(value, ref) if ref else True
        ok = ok and matches
        rows.append(
            {
                "name": name,
                "value": _decimal(value) if name != "beta" else str(value),
                "reference": ref or "1 (exact)",
                "matches": matches,
            }
        )
    if cfg.format == "json":
        stdout.write(json.dumps({"constants": rows}, indent=2) + "\n")
    else:
        for row in rows:
            stdout.write(
                f"{row['name']:>10} = {row['value']:<26} "
                f"reference {row['reference']}  matches={row['matches']}\n"
            )
        stdout.write(f"delta maximizer location: {_decimal(consts.delta_argmax)}\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _parse_point(text: str):
    if "/" in text:
        return Fraction(text)
    return context(60).mpf(text)


def cmd_bounds(cfg: RunConfig, x_text: str, stdout) -> int:
    try:
        point = _parse_point(x_text)
        if not (point > 0 and context(60).isfinite(point)):
            raise ConfigError("--x must be a positive finite number")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    chain = full_sandwich(point, cfg.precision_digits)
    first, second = chain[:5], chain[5:]
    ordered = all(a[1] < b[1] for a, b in zip(first, first[1:])) and all(
        a[1] < b[1] for a, b in zip(second, second[1:])
    )
    if cfg.format == "json":
        payload = {
            "x": str(point),
            "chain": [{"label": lab, "value": _decimal(val)} for lab, val in chain],
            "ordered": ordered,
        }
        stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        stdout.write(f"sandwich chains at x = {point}\n")
        for lab, val in first:
            stdout.write(f"  {lab:<14} {_decimal(val)}\n")
        stdout.write("\n")
        for lab, val in second:
            stdout.write(f"  {lab:<14} {_decimal(val)}\n")
        stdout.write(f"strict ordering: {ordered}\n")
    return EXIT_OK if ordered else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig, stdout) -> int:
    out_path = cfg.output_path or "sweep.csv"
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(proof.CSV_HEADER_LINE)
            result = proof.sweep_theorem(
                cfg.grid_n, dps=cfg.precision_digits, row_sink=fh.write
            )
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
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
    if cfg.format == "json":
        stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        stdout.write(
            f"grid {result.grid_n}x{result.grid_n}: min new-bound margin "
            f"{result.min_margin_new:.6e} at {result.argmin_new}\n"
        )
        stdout.write(
            f"min ivady margin {result.min_margin_ivady:.6e}; "
            f"min alzer margin {result.min_margin_alzer:.6e} "
            f"(interior cells; alpha = {summary['alpha']})\n"
        )
        stdout.write(
            f"classical bounds equal beta exactly on x = 1 and y = 1: "
            f"{result.classical_edges_exact}; "
            f"high-precision check of worst cell: {result.hp_min_margin} "
            f"(agrees={result.hp_agrees})\n"
        )
        stdout.write(f"csv written to {out_path}\n")
    if result.min_margin_new <= 0 or not result.hp_agrees:
        print("sweep found a nonpositive margin", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None,
                        help="working precision in decimal digits "
                        f"(>= 30, default {DEFAULT_DPS})")
    common.add_argument("--grid", type=int, default=None,
                        help="sweep grid size per axis (default 1000)")
    common.add_argument("--width", default=None,
                        help="root enclosure width, e.g. 1e-6 or 1/1000000")
    common.add_argument("--out", default=None, help="output path for report/CSV")
    common.add_argument("--format", default=None, choices=("json", "text"),
                        help="stdout format (default text)")

    parser = argparse.ArgumentParser(
        prog="betabound",
        description="Certify the rational lower bound for Euler's beta "
        "function on (0,1]^2 step by step.",
        epilog="Each flag falls back to an environment variable with the "
        "BETABOUND_ prefix (PRECISION, GRID, WIDTH, OUT, FORMAT); "
        "explicit flags win.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("replay", parents=[common],
                   help="replay every proof step and write the JSON report")
    sub.add_parser("roots", parents=[common],
                   help="enclose the five q-polynomial roots")
    sub.add_parser("constants", parents=[common],
                   help="print the named constants with reference digits")
    bounds = sub.add_parser("bounds", parents=[common],
                            help="print the sandwich chains at a point")
    bounds.add_argument("--x", required=True, help="evaluation point (> 0)")
    sub.add_parser("sweep", parents=[common],
                   help="grid audit of the bound; writes CSV")
    return parser


def main(argv=None, environ=None, stdout=None) -> int:
    import os

    environ = os.environ if environ is None else environ
    stdout = sys.stdout if stdout is None else stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args, environ)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "replay":
        return cmd_replay(cfg, stdout)
    if args.command == "roots":
        return cmd_roots(cfg, stdout)
    if args.command == "constants":
        return cmd_constants(cfg, stdout)
    if args.command == "bounds":
        return cmd_bounds(cfg, args.x, stdout)
    if args.command == "sweep":
        return cmd_sweep(cfg, stdout)
    parser.error(f"unknown command {args.command}")
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
