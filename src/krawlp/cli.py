"""Batch command-line interface.

Every run prints one machine-readable JSON record to stdout, encoded by
``errors.canonical_json``, and writes any requested artifact file through
``_write``, which also names it in the record's ``output``; wall-clock
timings go to stderr so the primary outputs stay byte-identical across
runs.  ``build-lp`` and ``solve`` build their program and the record
fields that name it in one helper.  Numeric output defaults to exact
fraction strings; ``--decimal`` opts into rounded display.

Exit codes: 0 success, 1 verification violation, 2 invalid parameters
(an ``OSError`` counts as one: every file path comes from the command
line or ``$KRAWLP_CACHE_DIR``), 3 capacity budget exceeded, 4 internal
failure (a self-check, the pivot cap or the floating-point solver failed;
stdout then holds one record with the error's class name and message).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .configs import check_config_args, config_to_json, enumerate_configs
from .errors import (
    CapacityError,
    InvalidInputError,
    IterationLimitError,
    ParameterError,
    SelfCheckError,
    SolverNumericsError,
    canonical_json,
)
from .krawtchouk import cached_table, check_table_args, load_table, save_table, table_to_csv
from .lp import build_delsarte, build_hierarchy_lp, export_lp
from .oracle import build_fourier_lp, max_code, max_linear_code
from .simplex import format_value, root_value, solve_exact, solve_float
from .suites import SUITES, check_suite_args, hierarchy_value, run_suite

CACHE_ENV = "KRAWLP_CACHE_DIR"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARAMS = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _emit(record: dict) -> None:
    print(canonical_json({"version": __version__, **record}))


def _timing(label: str, seconds: float) -> None:
    print(f"[timing] {label}: {seconds:.3f}s", file=sys.stderr)


def _write(record: dict, path: str, data: bytes) -> None:
    """Write the artifact ``data`` to ``path`` and name it in the record."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(data)
    record["output"] = path


def _cache_dir(args) -> str | None:
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get(CACHE_ENV)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_configs(args) -> int:
    count = check_config_args(args.n, args.l)
    record = {"command": "configs", "n": args.n, "l": args.l, "count": count}
    if args.out:
        lines = [config_to_json(g, args.n) for g in enumerate_configs(args.n, args.l)]
        _write(record, args.out, ("\n".join(lines) + "\n").encode("ascii"))
    elif not args.count:
        configs = enumerate_configs(args.n, args.l)
        record["configs"] = [json.loads(config_to_json(g, args.n)) for g in configs]
    _emit(record)
    return EXIT_OK


def cmd_krawtchouk(args) -> int:
    cache = _cache_dir(args)
    table = load_table(args.n, args.l, cache) if cache else None
    if table is None:
        table = cached_table(args.n, args.l)
        if cache:
            save_table(table, cache)
    record = {"command": "krawtchouk", "n": args.n, "l": args.l, "size": table.size}
    if args.out:
        _write(record, args.out, table_to_csv(table).encode("ascii"))
    else:
        record["values"] = [list(row) for row in table.values]
    _emit(record)
    return EXIT_OK


def _build_program(args):
    """The program the arguments name, and the record fields that name it."""
    if args.family == "delsarte":
        lp = build_delsarte(args.n, args.d)
    elif args.family == "fourier":
        lp = build_fourier_lp(args.n, args.d, args.l, args.linear)
    else:
        lp = build_hierarchy_lp(args.n, args.d, args.l, args.linear)
    record = {"command": args.command, "family": args.family, "n": args.n, "d": args.d}
    return lp, {**record, "l": lp.ell, "linear": lp.linear}


def cmd_build_lp(args) -> int:
    lp, record = _build_program(args)
    data = export_lp(lp, args.format)
    record.update(variables=lp.num_vars, rows=len(lp.rows), format=args.format)
    if args.out:
        _write(record, args.out, data)
    else:
        sys.stdout.write(data.decode("ascii"))
    _emit(record)
    return EXIT_OK


def cmd_solve(args) -> int:
    lp, record = _build_program(args)
    result = solve_float(lp) if args.float else solve_exact(lp)
    record.update(
        status=result.status,
        exact=result.exact,
        pivots=result.pivots,
        value=format_value(result.value, args.decimal),
    )
    if result.status == "optimal":
        record["root"] = root_value(result.value, lp.ell)
        if args.out:
            _write(record, args.out, (result.to_json() + "\n").encode("ascii"))
    _emit(record)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.linear:
        size, witness = max_linear_code(args.n, args.d)
    else:
        size, witness = max_code(args.n, args.d)
    record = {
        "command": "oracle",
        "n": args.n,
        "d": args.d,
        "linear": args.linear,
        "size": size,
        "witness": json.loads(witness.to_json()),
    }
    if args.out:
        _write(record, args.out, (witness.to_json() + "\n").encode("ascii"))
    _emit(record)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.suite or list(SUITES)
    check_suite_args(names, args.n, args.l)
    failed = False
    for name in names:
        result = run_suite(name, n_cap=args.n, l_cap=args.l)
        _emit(
            {
                "command": "verify",
                "suite": name,
                "params": result.params,
                "checked": result.checked,
                "violations": result.violations,
                "passed": result.passed,
            }
        )
        _timing(f"verify:{name}", result.elapsed)
        if not result.passed:
            failed = True
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_table(args) -> int:
    check_table_args(args.n, args.l)  # the largest table the sweep builds
    lines = ["n,d,l,flag,value,root"]
    for n in range(1, args.n + 1):
        for d in range(1, n + 1):
            for ell in range(1, args.l + 1):
                for linear in (False, True):
                    value = hierarchy_value(n, d, ell, linear)
                    flag = "linear" if linear else "general"
                    lines.append(
                        f"{n},{d},{ell},{flag},{value},{root_value(value, ell)!r}"
                    )
    csv = "\n".join(lines) + "\n"
    record = {
        "command": "table",
        "n_max": args.n,
        "l_max": args.l,
        "rows": len(lines) - 1,
    }
    if args.out:
        _write(record, args.out, csv.encode("ascii"))
    else:
        sys.stdout.write(csv)
    _emit(record)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_flag_pair(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--linear", dest="linear", action="store_true")
    group.add_argument("--general", dest="linear", action="store_false")
    sub.set_defaults(linear=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krawlp",
        description="Exact Krawtchouk LP hierarchy bounds for binary codes.",
    )
    parser.add_argument("--version", action="version", version=f"krawlp {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("configs", help="enumerate or count configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.add_argument("--out", help="write one JSON config per line to this path")
    p.set_defaults(fn=cmd_configs)

    p = subs.add_parser("krawtchouk", help="build a value table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", help="write the table as CSV to this path")
    p.add_argument("--cache-dir", help=f"table cache directory (or ${CACHE_ENV})")
    p.set_defaults(fn=cmd_krawtchouk)

    for name, help_text in (
        ("build-lp", "write a program in lp-text or json form"),
        ("solve", "solve a program and report value and root"),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--l", type=int, default=1)
        p.add_argument(
            "--family",
            choices=("krawtchouk", "delsarte", "fourier"),
            default="krawtchouk",
        )
        _add_flag_pair(p)
        p.add_argument("--out")
        if name == "build-lp":
            p.add_argument("--format", choices=("lp-text", "json"), default="lp-text")
            p.set_defaults(fn=cmd_build_lp)
        else:
            p.add_argument("--float", action="store_true", help="fast inexact screen")
            p.add_argument("--decimal", action="store_true", help="decimal output")
            p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("oracle", help="exact maximum code sizes with witnesses")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--linear", action="store_true")
    p.add_argument("--out", help="write the witness code as JSON")
    p.set_defaults(fn=cmd_oracle)

    p = subs.add_parser("verify", help="run verification suites")
    p.add_argument("--n", type=int, help="cap the blocklength grid")
    p.add_argument("--l", type=int, help="cap the level grid")
    p.add_argument(
        "--suite",
        action="append",
        help=f"suite name (repeatable); default all: {', '.join(SUITES)}",
    )
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("table", help="sweep a grid of exact values into CSV")
    p.add_argument("--n", type=int, required=True, help="max blocklength")
    p.add_argument("--l", type=int, default=2, help="max level")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except (ParameterError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (SelfCheckError, IterationLimitError, SolverNumericsError) as exc:
        _emit({"command": args.command, "error": type(exc).__name__, "message": str(exc)})
        return EXIT_INTERNAL
    _timing(args.command, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
