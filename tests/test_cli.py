"""Command-line surface: records, artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import krawlp
from krawlp import cli
from krawlp.suites import SuiteResult


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line.startswith("{")]
    return code, records, out


def test_configs_count(capsys):
    code, records, _ = _run(capsys, ["configs", "--n", "4", "--l", "2", "--count"])
    assert code == 0
    assert records[0]["count"] == 35
    assert records[0]["version"]


def test_configs_artifact(tmp_path, capsys):
    out = tmp_path / "configs.jsonl"
    code, records, _ = _run(
        capsys, ["configs", "--n", "2", "--l", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    first = json.loads(lines[0])
    assert first["sd"] == [0, 0, 0, 0]


def test_krawtchouk_csv_and_cache(tmp_path, capsys):
    out = tmp_path / "table.csv"
    argv = [
        "krawtchouk",
        "--n",
        "2",
        "--l",
        "1",
        "--out",
        str(out),
        "--cache-dir",
        str(tmp_path),
    ]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    first = out.read_bytes()
    assert first.startswith(b"h/g,0,1,2\n0,1,1,1\n")
    # second run hits the cache and must produce identical bytes
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert out.read_bytes() == first
    assert list(tmp_path.glob("ktable-*.json.gz"))


def test_build_lp_writes_deterministic_artifact(tmp_path, capsys):
    out = tmp_path / "prog.lp"
    argv = [
        "build-lp", "--n", "3", "--d", "2", "--l", "2",
        "--linear", "--format", "lp-text", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_solve_reports_value_and_root(capsys):
    code, records, _ = _run(
        capsys, ["solve", "--n", "4", "--d", "3", "--l", "2", "--general"]
    )
    assert code == 0
    rec = records[0]
    assert rec["status"] == "optimal"
    assert rec["value"] == "64/9"
    assert abs(rec["root"] - 8 / 3) < 1e-12


def test_solve_decimal_and_float(capsys):
    code, records, _ = _run(
        capsys, ["solve", "--n", "3", "--d", "2", "--decimal"]
    )
    assert code == 0 and records[0]["value"] == 4.0
    code, records, _ = _run(capsys, ["solve", "--n", "3", "--d", "2", "--float"])
    assert code == 0 and records[0]["exact"] is False


def test_solve_collapse_example(capsys):
    # level-2 general value equals the level-1 value squared
    code, rec2, _ = _run(
        capsys, ["solve", "--n", "5", "--d", "3", "--l", "2", "--general"]
    )
    assert code == 0
    code, rec1, _ = _run(capsys, ["solve", "--n", "5", "--d", "3", "--l", "1"])
    assert code == 0
    from fractions import Fraction

    assert Fraction(rec2[0]["value"]) == Fraction(rec1[0]["value"]) ** 2


def test_oracle_record(capsys):
    code, records, _ = _run(capsys, ["oracle", "--n", "5", "--d", "3"])
    assert code == 0
    assert records[0]["size"] == 4
    code, records, _ = _run(capsys, ["oracle", "--n", "7", "--d", "3", "--linear"])
    assert code == 0
    assert records[0]["size"] == 16


def test_verify_small_caps(capsys):
    code, records, _ = _run(
        capsys,
        ["verify", "--n", "2", "--l", "2", "--suite", "census", "--suite", "collapse"],
    )
    assert code == 0
    assert [r["suite"] for r in records] == ["census", "collapse"]
    assert all(r["passed"] for r in records)


def test_verify_reports_violations_with_exit_one(monkeypatch, capsys):
    def failing(n_cap=None, l_cap=None):
        return SuiteResult("stub", {}, checked=1, violations=["synthetic violation"])

    monkeypatch.setitem(cli.SUITES, "stub", failing)
    code, records, _ = _run(capsys, ["verify", "--suite", "stub"])
    assert code == 1
    assert records[0]["violations"] == ["synthetic violation"]


def test_verify_unknown_suite_is_parameter_error(capsys):
    code, _, out = _run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert "unknown suite" in out.err


def test_parameter_and_capacity_exit_codes(capsys):
    code, _, _ = _run(capsys, ["solve", "--n", "3", "--d", "9"])
    assert code == 2
    code, _, out = _run(capsys, ["oracle", "--n", "9", "--d", "3"])
    assert code == 3
    assert "budget" in out.err


def test_table_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, records, _ = _run(
        capsys, ["table", "--n", "3", "--l", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d,l,flag,value,root"
    assert records[0]["rows"] == len(lines) - 1
    assert any(line.startswith("3,2,2,linear,16,") for line in lines)


def test_timings_go_to_stderr_not_stdout(capsys):
    code, records, out = _run(capsys, ["configs", "--n", "3", "--l", "1", "--count"])
    assert code == 0
    assert out.err.count("[timing] configs: ") == 1
    assert "[timing]" not in out.out
    # verify times each suite and then the whole command
    code, _, out = _run(capsys, ["verify", "--suite", "census", "--n", "2", "--l", "1"])
    assert code == 0
    lines = [line.split(": ")[0] for line in out.err.splitlines()]
    assert lines == ["[timing] verify:census", "[timing] verify"]


def test_installed_entry_point():
    # The child imports the same krawlp as this process, installed or not.
    pkg_root = str(Path(krawlp.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "krawlp.cli", "configs", "--n", "4", "--l", "2", "--count"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[-1])["count"] == 35


def test_stdout_record_is_deterministic(capsys):
    argv = ["solve", "--n", "3", "--d", "3"]
    _, _, out1 = _run(capsys, argv)
    _, _, out2 = _run(capsys, argv)
    assert out1.out == out2.out
