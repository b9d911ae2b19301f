"""Acceptance criteria.

Each test runs one verification suite at its full committed grid and
prints a pass/fail line with the elapsed time against the stated budget.
The same suites back the ``krawlp verify`` command, so everything here is
reachable from the CLI as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krawlp
from krawlp.suites import SUITES, run_suite

# criterion number, suite name, checks the full grid makes, wall-clock
# budget in seconds; a pinned count catches a grid that silently shrank
CRITERIA = [
    (1, "census", 30, 5.0),
    (2, "roundtrip", 44822, 5.0),
    (3, "triple-agreement", 1795, 60.0),
    (4, "orthogonality-reflection", 5112, 60.0),
    (5, "macwilliams", 154922, 600.0),
    (6, "soundness", 62, 600.0),
    (7, "collapse", 15, 600.0),
    (8, "subadditivity", 15, 600.0),
    (9, "fourier-equivalence", 24, 600.0),
    (10, "level1", 88, 5.0),
]


def _report(number: int, result, budget: float) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[acceptance] criterion {number} ({result.name}): {status} "
        f"checked={result.checked} elapsed={result.elapsed:.2f}s budget={budget:.0f}s"
    )
    for violation in result.violations[:10]:
        print(f"[acceptance]   violation: {violation}")


@pytest.mark.parametrize("number,suite,checked,budget", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, suite, checked, budget):
    result = run_suite(suite)
    _report(number, result, budget)
    assert result.passed, result.violations[:10]
    assert result.checked == checked
    assert result.elapsed < budget


def test_all_criteria_reachable_from_verify_cli():
    assert [c[1] for c in CRITERIA] == list(SUITES)


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    # the child imports the same krawlp as this process, installed or not
    pkg_root = str(Path(krawlp.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=590,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_verify_cli_composite_run():
    # the documented composite run: every suite at the n=4, l=2 caps
    proc = _run_child(["-m", "krawlp.cli", "verify", "--n", "4", "--l", "2"])
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count('"passed":true') == len(SUITES)


# Prints the hits of every lru_cache a krawlp module defines, after the
# composite run in the same process.
CACHE_TRAFFIC = """
import contextlib, importlib, io, json, pkgutil
import krawlp, krawlp.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = krawlp.cli.main(["verify", "--n", "4", "--l", "2"])
hits = {}
for info in pkgutil.iter_modules(krawlp.__path__):
    module = importlib.import_module("krawlp." + info.name)
    for name, value in vars(module).items():
        if hasattr(value, "cache_info") and value.__module__ == module.__name__:
            hits[module.__name__ + "." + name] = value.cache_info().hits
print(json.dumps({"code": code, "hits": hits}))
"""


def test_every_memo_is_hit_in_the_composite_run():
    # A memo that no run asks twice only holds its results alive: each
    # lru_cache in krawlp must serve at least one repeated call.
    proc = _run_child(["-c", CACHE_TRAFFIC])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout)
    assert record["code"] == 0
    assert record["hits"], "no lru_cache found"
    assert all(record["hits"].values()), record["hits"]
