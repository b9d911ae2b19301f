"""krawlp benchmark: one run of one workload.

Run from the root of a krawlp checkout:

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 30 --trace 0

The run times interpreter start plus ``import krawlp`` several times
(``setup_s``), imports krawlp from ``src/``, then runs cold passes of the
workload in a closed loop, one item at a time in this one process, until
``--seconds`` would be exceeded (at least three passes).  ``wall_s`` is
the time spent inside calls into krawlp in one pass (per-item medians
over passes), and ``setup_s`` the median start-up time; both are scaled
to a reference machine speed measured by a probe (see metrics.py), and
the raw figures are in the context line.

With ``--trace 1`` traced and untraced passes alternate (U T T U ...),
and the run reports per-layer self times from the traced passes, the
exact counts, and the tracing overhead.  The last stdout line is the
result record; the line before it carries the run's context (machine,
CPU count, Python, git SHA, seed, left-out programs).  A JSON file with
the context, per-pass figures and, when traced, every span is written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# The run is single-threaded; keep numerical libraries to one thread too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from metrics import at_reference_speed, per_layer, speed_probe, unit_of, wall_time

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 15
MIN_PASSES = 3
MIN_PASSES_TRACED = 4
MAX_PASSES = 1000
WORKLOAD_NAMES = ("solve-grid", "table-build", "identity-sweep")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(root: Path) -> tuple[float, float]:
    """Median time of a fresh interpreter running ``import krawlp``, at the
    probe's reference speed and as measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    raw, probes = [], [speed_probe()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import krawlp"],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import krawlp failed: {proc.stderr.decode()[-500:]}")
        probes.append(speed_probe())
    return statistics.median(at_reference_speed(raw, probes)), statistics.median(raw)


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_digest(root: Path, directory: Path) -> str:
    """sha256 over the files of a directory, which identifies code without git."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(passes, stored: Path) -> list[str]:
    """Counts must be identical in every pass and in every run of this code."""
    problems = []
    first = passes[0]["counts"]
    for p in passes[1:]:
        if p["counts"] != first:
            diff = sorted(k for k in set(first) | set(p["counts"]) if first.get(k) != p["counts"].get(k))
            problems.append(f"pass {p['index']} counts differ from pass 0 in {diff}")
    if stored.is_file():
        before = json.loads(stored.read_text())
        if before != first:
            diff = sorted(k for k in set(first) | set(before) if first.get(k) != before.get(k))
            problems.append(f"counts differ from an earlier run of the same code in {diff}")
    else:
        stored.write_text(json.dumps(first, sort_keys=True))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "krawlp" / "__init__.py").is_file():
        return fail("run from the root of a krawlp checkout: src/krawlp is missing")
    reference = json.loads((HERE / "reference.json").read_text())

    setup_s, setup_raw_s = measure_setup(root)

    sys.path.insert(0, str(root / "src"))
    import krawlp

    if Path(krawlp.__file__).resolve().parent != (root / "src" / "krawlp").resolve():
        return fail(f"imported krawlp from {krawlp.__file__}, not from src/")
    import workloads
    from spans import Recorder, self_times

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](rng, reference, scratch)
    rec = Recorder()
    passes: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    min_passes = MIN_PASSES_TRACED if args.trace else MIN_PASSES
    # One order per run, drawn from the seed.
    order = workload.items()
    rng.shuffle(order)
    try:
        start = time.perf_counter()
        for index in range(MAX_PASSES):
            traced = bool(args.trace) and index % 4 in (1, 2)
            counts: Counter = Counter()
            item_times, probes = [], []
            first_span = len(rec.spans)
            rec.start_pass(index, traced)
            t0 = time.perf_counter()
            with workload.pass_context(rec, traced):
                for item in order:
                    rec.item = repr(item)
                    attempted += 1
                    workload.start_item()
                    probes.append(speed_probe())
                    busy = rec.busy
                    try:
                        item_errors = workload.run_item(item, rec, counts)
                    except Exception as exc:  # a library error fails the operation
                        item_errors = [f"{item!r}: {type(exc).__name__}: {exc}"]
                    item_times.append(rec.busy - busy)
                    if item_errors:
                        failed += 1
                        errors.extend(item_errors)
            elapsed = time.perf_counter() - t0
            probes.append(speed_probe())
            totals, longest = self_times(rec.spans, index) if traced else ({}, {})
            passes.append(
                {
                    "index": index,
                    "traced": traced,
                    "busy": rec.busy,
                    "elapsed": elapsed,
                    "items": at_reference_speed(item_times, probes),
                    "items_raw": item_times,
                    "probes": probes,
                    "counts": dict(sorted(counts.items())),
                    "self": totals,
                    "longest": longest,
                    "spans": len(rec.spans) - first_span,
                }
            )
            done = index + 1
            since = time.perf_counter() - start
            typical = statistics.median(p["elapsed"] for p in passes)
            if done >= min_passes and since + typical > args.seconds:
                break
        extra = {}
        if args.trace:
            rec.start_pass(-1, True)
            extra_attempted, extra_failed, extra = workload.after_passes(rec)
            attempted += extra_attempted
            failed += extra_failed
            if extra_failed:
                errors.append(f"{extra_failed} traced-run-only operations failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    digest = tree_digest(root, root / "src" / "krawlp")
    bench_digest = tree_digest(root, HERE)
    seed_part = f"-seed{args.seed}" if workload.counts_depend_on_seed else ""
    stored = out_dir / f"counts-{args.workload}{seed_part}-{digest[:12]}-{bench_digest[:12]}.json"
    nondeterminism = check_counts(passes, stored)
    for problem in errors[:20] + nondeterminism:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in per_layer(passes, extra).items()
        }
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_time(passes), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "source_sha256": digest,
        "benchmark_sha256": bench_digest,
        "passes": len(passes),
        "wall_raw_s": wall_time(passes, "items_raw"),
        "setup_raw_s": setup_raw_s,
        "probe_median_s": statistics.median(c for p in passes for c in p["probes"]),
        "items_per_pass": len(workload.items()),
        "nondeterminism": nondeterminism,
        "left_out": [
            {"what": what, "why": why}
            for what, why in workloads.EXCLUDED_PROGRAMS
            + workloads.EXCLUDED_TABLES
            + workloads.EXCLUDED_IDENTITY
        ],
    }
    record = {
        "correct": failed == 0 and not nondeterminism,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {"context": context, "result": record, "passes": passes}
    if args.trace:
        report["span_fields"] = ["name", "start", "end", "parent", "item", "pass"]
        report["spans"] = rec.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report))
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
