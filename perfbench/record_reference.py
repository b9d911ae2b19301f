"""Record the reference values the benchmark checks against.

Run from the root of a krawlp checkout, at a commit whose outputs are
trusted:

    python3 perfbench/record_reference.py

It solves every program of the four LP suites (the ones solve-grid
leaves out too), builds the table-build tables, runs the six LP-free
suites and the oracles, and writes ``perfbench/reference.json``.  Before
writing, it cross-checks the optima against each other and against the
brute-force oracles: soundness (value >= A^l), collapse (the general
level-2 value is the Delsarte value squared), subadditivity, level 1
against Delsarte, and word-tuple against configuration optima.  Any
failed cross-check aborts without writing.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from krawlp import cli, krawtchouk, lp, oracle, simplex  # noqa: E402
from metrics import SUITE_NAMES  # noqa: E402
from workloads import ORACLE_ARGVS, TABLES, lp_suite_programs, program_key  # noqa: E402


def solve_all() -> dict[str, Fraction]:
    optima = {}
    for family, n, d, ell, linear in lp_suite_programs():
        if family == "delsarte":
            program = lp.build_delsarte(n, d)
        elif family == "hierarchy":
            program = lp.build_hierarchy_lp(n, d, ell, linear)
        else:
            program = oracle.build_fourier_lp(n, d, ell, linear)
        result = simplex.solve_exact(program)
        if result.status != "optimal":
            raise SystemExit(f"{family} {n} {d} {ell} {linear}: {result.status}")
        optima[program_key(family, n, d, ell, linear)] = result.value
        print(f"{program_key(family, n, d, ell, linear)} = {result.value}", file=sys.stderr)
    return optima


def cross_check(optima: dict[str, Fraction]) -> list[str]:
    bad = []
    for n in range(1, 6):
        for d in range(1, n + 1):
            a_gen = oracle.max_code(n, d)[0]
            a_lin = oracle.max_linear_code(n, d)[0]
            delsarte = optima[f"delsarte/{n}/{d}"]
            if delsarte < a_gen:
                bad.append(f"delsarte ({n},{d}) {delsarte} < A = {a_gen}")
            for ell in (1, 2):
                for flag, a in (("general", a_gen), ("linear", a_lin)):
                    v = optima[f"hierarchy/{n}/{d}/{ell}/{flag}"]
                    if v < Fraction(a) ** ell:
                        bad.append(f"soundness ({n},{d},{ell},{flag}): {v} < {a}^{ell}")
                if optima[f"hierarchy/{n}/{d}/1/{flag}"] != delsarte:
                    bad.append(f"level 1 ({n},{d},{flag}) differs from Delsarte")
            if optima[f"hierarchy/{n}/{d}/2/general"] != delsarte**2:
                bad.append(f"collapse ({n},{d}) fails")
            lin1 = optima[f"hierarchy/{n}/{d}/1/linear"]
            if optima[f"hierarchy/{n}/{d}/2/linear"] > lin1**2:
                bad.append(f"subadditivity ({n},{d}) fails")
    for key, value in optima.items():
        if key.startswith("fourier/"):
            if optima["hierarchy/" + key.split("/", 1)[1]] != value:
                bad.append(f"{key} differs from the configuration optimum")
    return bad


def record_tables() -> dict:
    tables = {}
    for n, ell in TABLES:
        table = krawtchouk.build_table(n, ell)
        entry = {"size": table.size}
        for report in (
            krawtchouk.verify_orthogonality(table),
            krawtchouk.verify_reflection(table),
        ):
            if not report.passed:
                raise SystemExit(f"table {n}/{ell}: {report.name} fails")
            entry[report.name + "_checked"] = report.checked
        csv = krawtchouk.table_to_csv(table)
        entry["csv_sha256"] = hashlib.sha256(csv.encode("ascii")).hexdigest()
        tables[f"{n}/{ell}"] = entry
    return tables


def run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def main() -> int:
    optima = solve_all()
    bad = cross_check(optima)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    suites = {}
    for name in SUITE_NAMES:
        record = run_cli(("verify", "--suite", name))
        if not record["passed"]:
            raise SystemExit(f"suite {name} fails")
        suites[name] = {"checked": record["checked"], "params": record["params"]}
    sizes = {}
    for argv in ORACLE_ARGVS:
        record = run_cli(argv)
        flag = "linear" if "--linear" in argv else "general"
        sizes[f"{argv[2]}/{argv[4]}/{flag}"] = record["size"]
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    reference = {
        "recorded_at": {"git_sha": sha or None, "python": platform.python_version()},
        "optima": {key: str(value) for key, value in sorted(optima.items())},
        "tables": record_tables(),
        "suites": suites,
        "oracle": sizes,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
