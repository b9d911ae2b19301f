"""The benchmark's workloads: inputs from the seed, one cold pass, checks.

A workload is a fixed list of items.  One pass runs every item once, in
an order drawn from the seed.  Every item starts with every in-process
cache of krawlp empty, so it pays what one fresh ``krawlp`` invocation
pays and its cost does not depend on the order.  Each item is one
operation: it makes its calls into the library through the recorder and
checks every result, against ``reference.json`` where the value is data
and against the mathematics where it follows from the inputs.  ``run_item`` returns the item's check failures; an empty list
means the operation succeeded.

Counts (pivots, cells, configurations, program sizes, suite checks) are
added to a per-pass dict; every pass must produce the same counts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

from krawlp import cli, configs, krawtchouk, lp, oracle, simplex, suites
from krawlp.oracle import CodeSet
from metrics import SUITE_NAMES

# Exact solves that one cold pass of solve-grid leaves out.  The first
# eight belong to the four LP suites but each took over 1.5 s at the
# commit the reference was recorded on (Python 3.11.7, 2 cores); together
# they take 35 s, so three cold passes would not fit one run.  Their
# optima are still in reference.json.  The rest lie beyond the suites'
# grids and do not finish in reasonable time with the current solver.
# A solver change that makes them fit adds them as a new workload.
EXCLUDED_PROGRAMS = (
    ("hierarchy/5/1/2/general", "6.1 s exact solve, 210 pivots"),
    ("hierarchy/5/1/2/linear", "5.7 s exact solve, 210 pivots"),
    ("hierarchy/5/2/2/general", "6.4 s exact solve, 316 pivots"),
    ("hierarchy/5/2/2/linear", "4.5 s exact solve, 275 pivots"),
    ("hierarchy/5/3/2/general", "5.0 s exact solve, 438 pivots"),
    ("hierarchy/5/3/2/linear", "3.0 s exact solve, 456 pivots"),
    ("fourier/3/1/2/general", "2.2 s exact solve, 133 pivots"),
    ("fourier/3/1/2/linear", "2.2 s exact solve, 133 pivots"),
    ("hierarchy/6/3/2/general", "did not finish within 300 s"),
    ("hierarchy/7/2/2/linear", "205 s, 2567 pivots (Bland's rule after 2000)"),
    ("hierarchy/7/3/2/general", "135 s, 2312 pivots (Bland's rule after 2000)"),
    ("cli solve --n 9 --d 3 --l 2", "printed nothing for over 6 minutes"),
)
EXCLUDED_TABLES = (
    ("table 5/3", "7.4 s cold build_table alone, about a pass's whole budget"),
    ("orthogonality 5/3", "estimated at over 30 s"),
)
EXCLUDED_IDENTITY = (
    ("random codes beyond 44 per pass", "200 codes take about 8 s, too long for three passes"),
)

TABLES = ((8, 2), (10, 2), (4, 3))
ORACLE_ARGVS = (
    ("oracle", "--n", "7", "--d", "3"),
    ("oracle", "--n", "7", "--d", "3", "--linear"),
)
CODE_BLOCKLENGTHS = (4, 5, 6, 7)
CODE_SIZES = tuple(range(2, 13))
FLOAT_TOLERANCE = 1e-6


def program_key(family: str, n: int, d: int, ell: int, linear: bool | None) -> str:
    if family == "delsarte":
        return f"delsarte/{n}/{d}"
    return f"{family}/{n}/{d}/{ell}/{'linear' if linear else 'general'}"


def lp_suite_programs() -> list[tuple]:
    """Every distinct program that soundness, collapse, subadditivity and
    fourier-equivalence solve at their default grids."""
    progs = [("delsarte", n, d, 1, None) for n in range(1, 6) for d in range(1, n + 1)]
    progs += [
        ("hierarchy", n, d, ell, linear)
        for ell in (1, 2)
        for n in range(1, 6)
        for d in range(1, n + 1)
        for linear in (False, True)
    ]
    progs += [
        ("fourier", n, d, ell, linear)
        for ell in (1, 2)
        for n in range(1, 4)
        for d in range(1, n + 1)
        for linear in (False, True)
    ]
    return progs


def clear_caches() -> None:
    """Empty every lru_cache in krawlp, as a fresh process would find them."""
    for module in (configs, krawtchouk, lp, oracle, simplex, suites, cli):
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def coeff_bits(program) -> int:
    """Largest bit length of any numerator or denominator in a program."""
    acc = 0
    for c in program.objective:
        acc |= abs(c.numerator) | c.denominator
    for row in program.rows:
        acc |= abs(row.rhs.numerator) | row.rhs.denominator
        for c in row.coeffs:
            acc |= abs(c.numerator) | c.denominator
    return acc.bit_length()


class Workload:
    """Base: subclasses define ``items`` and ``run_item``."""

    name = ""
    counts_depend_on_seed = False

    def __init__(self, rng, reference: dict, scratch: Path) -> None:
        self.scratch = scratch
        self.seen: set = set()  # (layer, n, l) already built in this item

    def items(self) -> list:
        raise NotImplementedError

    def run_item(self, item, rec, counts: Counter) -> list[str]:
        raise NotImplementedError

    def start_item(self) -> None:
        """Start an item as a fresh ``krawlp`` process would: caches empty,
        and a garbage collector that sees no objects older than the item.
        Each item then costs the same whatever ran before it."""
        self.seen.clear()
        clear_caches()
        gc.collect()
        gc.freeze()

    def pass_context(self, rec, traced: bool):
        return contextlib.nullcontext()

    def after_passes(self, rec) -> tuple[int, int, dict[str, float]]:
        """Traced-run-only measurements outside the passes.

        Returns (attempted, failed, metrics).
        """
        return 0, 0, {}

    # Shared staged calls.  Each layer's work is done inside its own
    # call: the cached functions called here first are then served from
    # the cache when the next layer asks for them.

    def enumerate(self, rec, counts, n, ell):
        cfgs = rec.call("configs.enumerate", configs.enumerate_configs, n, ell)
        if ("configs", n, ell) not in self.seen:
            self.seen.add(("configs", n, ell))
            counts["configs.count"] += len(cfgs)
        return cfgs

    def table(self, rec, counts, n, ell):
        table = rec.call("krawtchouk.build", krawtchouk.cached_table, n, ell)
        if ("table", n, ell) not in self.seen:
            self.seen.add(("table", n, ell))
            counts["krawtchouk.cells"] += table.size * table.size
        return table

    def hierarchy(self, rec, counts, n, d, ell, linear):
        """Configurations, forbidden set, table and program, with checks."""
        errors = []
        cfgs = self.enumerate(rec, counts, n, ell)
        if len(cfgs) != configs.config_count(n, ell):
            errors.append(f"enumerate_configs({n},{ell}) gave {len(cfgs)} configurations")
        forb = rec.call("configs.forbidden", configs.forbidden_configs, n, d, ell, linear)
        self.table(rec, counts, n, ell)
        program = rec.call("lp.build", lp.build_hierarchy_lp, n, d, ell, linear)
        want = tuple(i for i, c in enumerate(cfgs) if c not in forb)
        if program.var_indices != want:
            errors.append(f"program ({n},{d},{ell},{linear}) keeps the wrong variables")
        if len(program.rows) != len(cfgs) + 1:
            errors.append(f"program ({n},{d},{ell},{linear}) has {len(program.rows)} rows")
        return program, errors

    @staticmethod
    def count_program(counts, program) -> None:
        counts["lp.vars"] += program.num_vars
        counts["lp.rows"] += len(program.rows)
        counts["lp.coeff_bits_max"] = max(counts["lp.coeff_bits_max"], coeff_bits(program))


class SolveGrid(Workload):
    """Every LP-suite program small enough for a cold pass: build, solve."""

    name = "solve-grid"

    def __init__(self, rng, reference, scratch) -> None:
        super().__init__(rng, reference, scratch)
        self.optima = reference["optima"]
        self.programs: dict[str, object] = {}  # last built program per key

    def items(self) -> list:
        excluded = {key for key, _ in EXCLUDED_PROGRAMS}
        return [p for p in lp_suite_programs() if program_key(*p) not in excluded]

    def run_item(self, item, rec, counts) -> list[str]:
        family, n, d, ell, linear = item
        key = program_key(*item)
        errors = []
        if family == "hierarchy":
            program, errors = self.hierarchy(rec, counts, n, d, ell, linear)
        elif family == "delsarte":
            program = rec.call("lp.build", lp.build_delsarte, n, d)
        else:
            program = rec.call(
                "oracle.fourier_build", oracle.build_fourier_lp, n, d, ell, linear
            )
        self.programs[key] = program
        self.count_program(counts, program)
        result = rec.call("simplex.solve." + family, simplex.solve_exact, program)
        counts["simplex.pivots"] += result.pivots
        counts["simplex.pivots." + family] += result.pivots
        want = self.optima.get(key)
        if want is None:
            errors.append(f"{key}: no reference optimum")
        elif result.status != "optimal" or result.value != Fraction(want):
            errors.append(f"{key}: {result.status} {result.value}, reference {want}")
        return errors

    def after_passes(self, rec):
        # HiGHS on the same programs: the floor for a float-guided exact solve.
        import scipy.optimize  # noqa: F401  (import cost stays out of the timing)

        attempted = failed = 0
        total = 0.0
        for key, program in sorted(self.programs.items()):
            rec.item = key
            before = rec.busy
            result = rec.call("simplex.float", simplex.solve_float, program)
            total += rec.busy - before
            attempted += 1
            exact = float(Fraction(self.optima[key]))
            if result.status != "optimal" or abs(result.value - exact) > FLOAT_TOLERANCE * max(
                1.0, abs(exact)
            ):
                failed += 1
        return attempted, failed, {"simplex.float_s": total}


class TableBuild(Workload):
    """Cold Krawtchouk tables: build, identity sweeps, CSV, cache round trip."""

    name = "table-build"
    EXPLICIT_REPEATS = 3

    def __init__(self, rng, reference, scratch) -> None:
        super().__init__(rng, reference, scratch)
        self.tables = reference["tables"]

    def items(self) -> list:
        return list(TABLES)

    def run_item(self, item, rec, counts) -> list[str]:
        n, ell = item
        want = self.tables[f"{n}/{ell}"]
        errors = []
        self.enumerate(rec, counts, n, ell)
        table = rec.call("krawtchouk.build", krawtchouk.build_table, n, ell)
        counts["krawtchouk.cells"] += table.size * table.size
        for check in (krawtchouk.verify_orthogonality, krawtchouk.verify_reflection):
            report = rec.call("krawtchouk.verify", check, table)
            if not report.passed or report.checked != want[report.name + "_checked"]:
                errors.append(
                    f"{n}/{ell} {report.name}: {report.checked} checked, "
                    f"{len(report.violations)} violations"
                )
        csv = rec.call("krawtchouk.csv", krawtchouk.table_to_csv, table)
        digest = hashlib.sha256(csv.encode("ascii")).hexdigest()
        if digest != want["csv_sha256"]:
            errors.append(f"{n}/{ell}: CSV digest {digest} differs from the reference")
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            path = rec.call("krawtchouk.save", krawtchouk.save_table, table, cache_dir)
            counts["krawtchouk.cache_bytes"] += Path(path).stat().st_size
            loaded = rec.call("krawtchouk.load", krawtchouk.load_table, n, ell, cache_dir)
        finally:
            shutil.rmtree(cache_dir)
        if loaded != table:
            errors.append(f"{n}/{ell}: the loaded table differs from the built one")
        return errors

    def after_passes(self, rec):
        # eval_explicit over the full (4,2) table beside build_table on it,
        # the comparison krawtchouk.measure_eval_paths makes from inside.
        n, ell = 4, 2
        explicit, recursion = [], []
        failed = 0
        rec.item = "explicit-4/2"
        for _ in range(self.EXPLICIT_REPEATS):
            clear_caches()
            cfgs = configs.enumerate_configs(n, ell)
            cells = len(cfgs) ** 2
            before = rec.busy
            table = rec.call("krawtchouk.build", krawtchouk.build_table, n, ell)
            recursion.append(rec.busy - before)
            before = rec.busy
            values = rec.call(
                "krawtchouk.explicit",
                lambda: [[krawtchouk.eval_explicit(h, g, n) for g in cfgs] for h in cfgs],
            )
            explicit.append(rec.busy - before)
            if tuple(map(tuple, values)) != table.values:
                failed += 1
        return self.EXPLICIT_REPEATS, failed, {
            "krawtchouk.explicit_cells_per_s": cells / statistics.median(explicit),
            "krawtchouk.recursion_cells_per_s": cells / statistics.median(recursion),
        }


class IdentitySweep(Workload):
    """CLI verify of the six suites without an LP, the oracles, random codes."""

    name = "identity-sweep"
    counts_depend_on_seed = True

    def __init__(self, rng, reference, scratch) -> None:
        super().__init__(rng, reference, scratch)
        self.suites = reference["suites"]
        self.oracle_sizes = reference["oracle"]
        # One batch of codes per blocklength, one code of each size: the
        # seed draws the words, so every seed asks for the same amount of work.
        self.batches = []
        for n in CODE_BLOCKLENGTHS:
            codes = tuple(
                tuple(sorted(rng.sample(range(1 << n), k))) for k in CODE_SIZES
            )
            self.batches.append(("codes", n, codes))

    def items(self) -> list:
        cli_items = [("cli", ("verify", "--suite", name)) for name in SUITE_NAMES]
        cli_items += [("cli", argv) for argv in ORACLE_ARGVS]
        return cli_items + self.batches

    @contextlib.contextmanager
    def pass_context(self, rec, traced):
        # Traced passes wrap the suite and oracle functions cli.main calls,
        # so that their time is split from the CLI's own.
        if not traced:
            yield
            return
        saved = (cli.run_suite, cli.max_code, cli.max_linear_code)
        cli.run_suite = rec.traced(lambda name, **_: "suites." + name, saved[0])
        cli.max_code = rec.traced(lambda *_: "oracle.max_code", saved[1])
        cli.max_linear_code = rec.traced(lambda *_: "oracle.max_linear_code", saved[2])
        try:
            yield
        finally:
            cli.run_suite, cli.max_code, cli.max_linear_code = saved

    def run_item(self, item, rec, counts) -> list[str]:
        if item[0] == "cli":
            return self.run_cli(item[1], rec, counts)
        _, n, codes = item
        return [e for words in codes for e in self.run_code(n, words, rec, counts)]

    def run_cli(self, argv, rec, counts) -> list[str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rec.call("cli.main", cli.main, list(argv))
        label = " ".join(argv)
        lines = out.getvalue().splitlines()
        if code != 0 or len(lines) != 1:
            return [f"{label}: exit {code}, {len(lines)} stdout lines"]
        record = json.loads(lines[0])
        if argv[0] == "verify":
            name = argv[2]
            want = self.suites[name]
            counts[f"suites.{name}.checked"] += record["checked"]
            if (
                record.get("suite") != name
                or record.get("passed") is not True
                or record.get("violations") != []
                or record.get("checked") != want["checked"]
                or record.get("params") != want["params"]
            ):
                return [f"{label}: record {lines[0][:200]} differs from the reference"]
            return []
        n, d, linear = int(argv[2]), int(argv[4]), "--linear" in argv
        want = self.oracle_sizes[f"{n}/{d}/{'linear' if linear else 'general'}"]
        witness = record.get("witness", {})
        words = [int(w, 16) for w in witness.get("words", [])]
        if (
            record.get("size") != want
            or len(words) != want
            or witness.get("n") != n
            or (linear and witness.get("linear") is not True)
            or min_distance(words) < d
        ):
            return [f"{label}: record {lines[0][:200]} fails the oracle check"]
        return []

    def run_code(self, n, words, rec, counts) -> list[str]:
        k = len(words)
        d = min_distance(words)
        program, errors = self.hierarchy(rec, counts, n, d, 2, False)
        self.count_program(counts, program)
        prof = rec.call("lp.profile", lp.profile_of_code, words, n, 2)
        if prof.size != k or prof.objective_value() != k * k:
            errors.append(f"code {words} at n={n}: profile mass {prof.objective_value()}")
        verdict = rec.call("lp.feasibility", lp.check_feasibility, program, prof)
        if not verdict.feasible or verdict.objective != k * k:
            errors.append(f"code {words} at n={n}, d={d}: {verdict.status} {verdict.detail}")
        report = rec.call(
            "oracle.macwilliams",
            lambda: oracle.verify_macwilliams(CodeSet(frozenset(words), n), 2),
        )
        if not report.passed:
            errors.append(f"code {words} at n={n}: {report.violations[:2]}")
        return errors


def min_distance(words) -> int:
    return min(
        ((a ^ b).bit_count() for i, a in enumerate(words) for b in words[i + 1 :]),
        default=0,
    )


WORKLOADS = {w.name: w for w in (SolveGrid, TableBuild, IdentitySweep)}
