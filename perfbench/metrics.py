"""Names, units and aggregation of the benchmark's metrics.

End to end, ``wall_s`` sums each item's median time inside krawlp over
the untraced passes, at the probe's reference speed (below).  Per layer,
each time is a layer's raw self time summed over one traced pass, as the
median over traced passes; each count is the exact per-pass total, the
same in every pass.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# On a shared machine the speed of one core drifts by up to 2x over
# seconds to minutes.  A fixed probe, timed between operations, measures
# the speed they ran at; the end-to-end times are reported at the speed
# where the probe takes PROBE_REF_S:  time * PROBE_REF_S / probe time,
# with the probe time a median of the probes nearest the operation,
# since one probe is short enough to land in a single slice of a
# time-shared core.  The drift does not slow all code alike, so the
# probe mixes the three kinds of work krawlp does: small Fractions (the
# simplex), big-integer products (table sweeps) and tuple-keyed dicts
# (configurations, oracles).  Over 100 s of drift, 5-s medians of an
# exact solve and of an orthogonality sweep spread by 35% and 32%
# (quartile distance over median) as measured, and by 8% and 11% scaled.
PROBE_REF_S = 0.006
PROBE_WINDOW = 3  # probes on each side of an operation


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    x = 3**300
    total = 0
    for i in range(1, 2000):
        total += x * i * (x - i)
    table = {}
    for i in range(6000):
        table[(i, i & 7)] = i
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Scale each of ``times`` to the reference speed.  ``probes[i]`` was
    taken just before operation i, ``probes[-1]`` after the last one."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out

SUITE_NAMES = (
    "census",
    "roundtrip",
    "triple-agreement",
    "orthogonality-reflection",
    "macwilliams",
    "level1",
)

# Counts that must repeat exactly between passes and between runs.
COUNT_METRICS = {
    "simplex.pivots": "count",
    "simplex.pivots.hierarchy": "count",
    "simplex.pivots.fourier": "count",
    "simplex.pivots.delsarte": "count",
    "lp.vars": "count",
    "lp.rows": "count",
    "lp.coeff_bits_max": "bits",
    "krawtchouk.cells": "count",
    "krawtchouk.cache_bytes": "bytes",
    "configs.count": "count",
    **{f"suites.{name}.checked": "count" for name in SUITE_NAMES},
}
# Per-layer self times: metric name -> span names it sums.
TIME_METRICS = {
    "simplex.solve_s": (
        "simplex.solve.hierarchy",
        "simplex.solve.fourier",
        "simplex.solve.delsarte",
    ),
    "simplex.solve_s.hierarchy": ("simplex.solve.hierarchy",),
    "simplex.solve_s.fourier": ("simplex.solve.fourier",),
    "simplex.solve_s.delsarte": ("simplex.solve.delsarte",),
    "lp.build_s": ("lp.build",),
    "lp.profile_s": ("lp.profile",),
    "lp.feasibility_s": ("lp.feasibility",),
    "krawtchouk.build_s": ("krawtchouk.build",),
    "krawtchouk.verify_s": ("krawtchouk.verify",),
    "krawtchouk.csv_s": ("krawtchouk.csv",),
    "krawtchouk.save_s": ("krawtchouk.save",),
    "krawtchouk.load_s": ("krawtchouk.load",),
    "configs.enumerate_s": ("configs.enumerate",),
    "configs.forbidden_s": ("configs.forbidden",),
    "oracle.max_code_s": ("oracle.max_code",),
    "oracle.max_linear_code_s": ("oracle.max_linear_code",),
    "oracle.macwilliams_s": ("oracle.macwilliams",),
    "oracle.fourier_build_s": ("oracle.fourier_build",),
    "cli.overhead_s": ("cli.main",),
    **{f"suites.{name}_s": (f"suites.{name}",) for name in SUITE_NAMES},
}
# Measured outside the passes, traced runs only.
EXTRA_METRICS = {
    "simplex.float_s": "s",
    "krawtchouk.explicit_cells_per_s": "1/s",
    "krawtchouk.recursion_cells_per_s": "1/s",
}


def per_layer(passes: list[dict], extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of a traced run; ``extra`` holds the ones
    measured outside the passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    med = statistics.median
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = med([sum(p["self"].get(n, 0.0) for n in names) for p in traced])
    out["simplex.solve_s.max"] = med(
        [max([p["longest"].get(n, 0.0) for n in TIME_METRICS["simplex.solve_s"]]) for p in traced]
    )
    counts = traced[0]["counts"]
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    solve = out["simplex.solve_s"]
    out["simplex.pivots_per_s"] = counts.get("simplex.pivots", 0) / solve if solve else 0.0
    build = out["krawtchouk.build_s"]
    out["krawtchouk.cells_per_s"] = counts.get("krawtchouk.cells", 0) / build if build else 0.0
    for metric in EXTRA_METRICS:
        out[metric] = extra.get(metric, 0.0)
    out["trace.wall_s"] = med([p["busy"] for p in traced])
    out["trace.overhead_s"] = med([p["elapsed"] for p in traced]) - med(
        [p["elapsed"] for p in untraced]
    )
    out["trace.spans"] = traced[0]["spans"]
    return out


def wall_time(passes: list[dict], key: str = "items") -> float:
    """Sum over items of each item's median time inside krawlp across the
    untraced passes.  A per-item median drops a slow spell that hit one
    item in one pass, which a median of pass totals would keep.  ``key``
    picks the times at reference speed ("items") or as measured
    ("items_raw")."""
    runs = [p[key] for p in passes if not p["traced"]]
    return sum(statistics.median(times) for times in zip(*runs))


def unit_of(metric: str) -> str:
    if metric in COUNT_METRICS:
        return COUNT_METRICS[metric]
    if metric in EXTRA_METRICS:
        return EXTRA_METRICS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric == "trace.spans":
        return "count"
    return "s"
