"""Command-line surface: records, artifacts, exit codes, determinism."""

import gzip
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import krawlp
from krawlp import cli, configs, krawtchouk, simplex
from krawlp.errors import IterationLimitError, SelfCheckError, SolverNumericsError
from krawlp.lp import build_hierarchy_lp
from krawlp.oracle import build_fourier_lp
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


def test_configs_count_does_not_enumerate(monkeypatch, capsys):
    def no_enumeration(n, ell):
        raise AssertionError("configurations enumerated for --count")

    monkeypatch.setattr(cli, "iter_configs", no_enumeration)
    code, records, _ = _run(capsys, ["configs", "--n", "9", "--l", "4", "--count"])
    assert code == 0
    assert records[0]["count"] == 1_307_504
    # the range and budget checks still come first
    assert _run(capsys, ["configs", "--n", "3", "--l", "7", "--count"])[0] == 3
    assert _run(capsys, ["configs", "--n", "0", "--l", "1", "--count"])[0] == 2


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


def test_configurationcsv_and_cache(tmp_path, capsys):
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


@pytest.mark.parametrize("kind", ["all-7s", "wrong-n", "diagonal", "truncated", "bad-deflate"])
def test_configurationrebuilds_a_wrong_cache(tmp_path, capsys, kind):
    want = krawtchouk.build_table(2, 1)
    path = krawtchouk.table_cache_path(tmp_path, 2, 1)
    if kind == "truncated":
        krawtchouk.save_table(want, tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
    elif kind == "bad-deflate":
        # the gzip header kept, the deflate body garbled (zlib.error on read)
        krawtchouk.save_table(want, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:10] + bytes(b ^ 1 for b in data[10:]))
    else:
        if kind == "all-7s":
            n, values = 2, [[7] * 3] * 3
        elif kind == "diagonal":
            n, values = 2, [list(r) for r in want.values]
            values[1][1] += 1
        else:  # a true table of (3, 1) under the (2, 1) file name
            n, values = 3, krawtchouk.build_table(3, 1).values
        payload = {"format": 1, "n": n, "l": 1, "values": [list(r) for r in values]}
        with gzip.open(path, "wb") as gz:
            gz.write(json.dumps(payload).encode("ascii"))
    argv = ["krawtchouk", "--n", "2", "--l", "1", "--cache-dir", str(tmp_path)]
    code, records, _ = _run(capsys, argv)
    assert code == 0
    assert records[-1]["values"] == [list(r) for r in want.values]
    # the bad file was overwritten with the rebuilt table
    assert krawtchouk.load_table(2, 1, tmp_path) == want


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


def test_solve_fourier_family_matches_the_configuration_lp(capsys):
    argv = ["solve", "--n", "2", "--d", "2", "--l", "1"]
    code, fourier, _ = _run(capsys, [*argv, "--family", "fourier"])
    assert code == 0 and fourier[0]["family"] == "fourier"
    code, configuration, _ = _run(capsys, argv)
    assert code == 0 and configuration[0]["family"] == "krawtchouk"
    assert fourier[0]["status"] == "optimal"
    assert fourier[0]["value"] == configuration[0]["value"]


def test_build_lp_fourier_family_reports_its_program(capsys):
    code, records, _ = _run(
        capsys, ["build-lp", "--family", "fourier", "--n", "2", "--d", "2", "--l", "1"]
    )
    program = build_fourier_lp(2, 2, 1, False)
    assert code == 0
    assert records[-1]["family"] == "fourier"
    assert (records[-1]["variables"], records[-1]["rows"]) == (
        program.num_vars,
        len(program.rows),
    )


def test_solve_out_writes_the_result_json(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code, records, _ = _run(
        capsys, ["solve", "--n", "3", "--d", "2", "--l", "2", "--out", str(out)]
    )
    assert code == 0 and records[0]["output"] == str(out)
    result = simplex.solve_exact(build_hierarchy_lp(3, 2, 2, False))
    assert out.read_text() == result.to_json() + "\n"


def test_oracle_out_writes_the_witness(tmp_path, capsys):
    out = tmp_path / "witness.json"
    code, records, _ = _run(capsys, ["oracle", "--n", "4", "--d", "2", "--out", str(out)])
    assert code == 0 and records[0]["output"] == str(out)
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == records[0]["witness"]


def test_table_to_stdout_is_the_out_file_then_one_record(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, printed = _run(capsys, ["table", "--n", "2", "--l", "1"])
    assert code == 0
    *csv, record = printed.out.splitlines(keepends=True)
    code, records, _ = _run(capsys, ["table", "--n", "2", "--l", "1", "--out", str(out)])
    assert code == 0
    assert "".join(csv) == out.read_text()
    assert json.loads(record) == {k: v for k, v in records[0].items() if k != "output"}


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


def test_oracle_witness_words_are_pinned(capsys):
    # The search's first descent, scanning words in index order, yields this
    # code (the lexicode, a Hamming code) and no later branch beats it;
    # another code of size 16 fails here.
    code, records, _ = _run(capsys, ["oracle", "--n", "7", "--d", "3"])
    assert code == 0
    assert records[0]["witness"]["words"] == [
        "00", "07", "19", "1e", "2a", "2d", "33", "34",
        "4b", "4c", "52", "55", "61", "66", "78", "7f",
    ]


@pytest.mark.parametrize(
    "command, target, error",
    [
        (["oracle", "--n", "4", "--d", "3"], "max_code", SelfCheckError),
        (["solve", "--n", "3", "--d", "2"], "solve_exact", IterationLimitError),
        (["solve", "--n", "3", "--d", "2", "--float"], "solve_float", SolverNumericsError),
    ],
)
def test_internal_failures_exit_four(monkeypatch, capsys, command, target, error):
    def failing(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, target, failing)
    code = cli.main(command)
    out = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    lines = out.out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["command"] == command[0]
    assert record["error"] == error.__name__
    assert record["message"] == "synthetic failure"
    assert "Traceback" not in out.out + out.err


def test_solve_past_the_real_pivot_cap_exits_four(monkeypatch, capsys):
    # (4,1,2,linear) needs 46 pivots, one more than the cap allows.
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 45)
    code, records, out = _run(capsys, ["solve", "--n", "4", "--d", "1", "--l", "2", "--linear"])
    assert code == cli.EXIT_INTERNAL == 4
    assert len(out.out.splitlines()) == 1
    assert records[0]["error"] == "IterationLimitError"
    assert records[0]["message"] == "pivot cap 45 exceeded"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "0"],
        ["verify", "--l", "0"],
        ["table", "--n", "2", "--l", "0"],
    ],
)
def test_empty_grids_are_parameter_errors(capsys, argv):
    # A zero cap would check nothing and still pass; it is refused instead.
    code, records, out = _run(capsys, argv)
    assert code == 2
    assert records == [] and out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--cache-dir", "--out"])
def test_path_errors_exit_two(tmp_path, capsys, flag):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    path = blocker if flag == "--cache-dir" else blocker / "table.csv"
    code, _, out = _run(capsys, ["krawtchouk", "--n", "2", "--l", "1", flag, str(path)])
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and "Traceback" not in out.err
    assert len(out.err.splitlines()) == 1


def test_parameter_and_capacity_exit_codes(capsys):
    code, _, _ = _run(capsys, ["solve", "--n", "3", "--d", "9"])
    assert code == 2
    code, _, out = _run(capsys, ["oracle", "--n", "9", "--d", "3"])
    assert code == 3
    assert "budget" in out.err


DELSARTE = ["--family", "delsarte", "--n", "3", "--d", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", *DELSARTE, "--l", "3", "--linear"],
        ["solve", *DELSARTE, "--linear"],
        ["build-lp", *DELSARTE, "--l", "0"],
        ["build-lp", *DELSARTE, "--l", "2"],
    ],
)
def test_delsarte_refuses_a_level_or_flag_it_cannot_use(capsys, argv):
    code, records, out = _run(capsys, argv)
    assert code == 2
    assert records == [] and out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1


@pytest.mark.parametrize("extra", [[], ["--l", "1"], ["--general"]])
def test_delsarte_takes_level_one_and_the_default_flag(capsys, extra):
    # --general is the parser's default, so it cannot be told from no flag.
    code, records, _ = _run(capsys, ["solve", *DELSARTE, *extra])
    assert code == 0
    assert (records[0]["l"], records[0]["linear"], records[0]["value"]) == (1, None, "4")


def test_table_refuses_an_over_budget_grid_before_solving(monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("a program solved before the budget check")

    monkeypatch.setattr(cli, "hierarchy_value", no_solve)
    code, records, out = _run(capsys, ["table", "--n", "7", "--l", "3"])
    assert code == 3
    assert records == [] and out.out == ""
    assert out.err.startswith("capacity: ")


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


# The whole stdout of one run each, byte for byte: the record contract.
# ``solve`` is left out, since its pivot counts follow the pivot rule.
PINNED_STDOUT = [
    (
        ["configs", "--n", "2", "--l", "1"],
        '{"command":"configs","configs":[{"l":1,"n":2,"sd":[0,0],"venn":[2,0]},'
        '{"l":1,"n":2,"sd":[0,1],"venn":[1,1]},{"l":1,"n":2,"sd":[0,2],"venn":[0,2]}],'
        '"count":3,"l":1,"n":2,"version":"0.1.0"}\n',
    ),
    (
        ["oracle", "--n", "5", "--d", "3", "--linear"],
        '{"command":"oracle","d":3,"linear":true,"n":5,"size":4,"version":"0.1.0",'
        '"witness":{"linear":true,"n":5,"words":["00","0e","15","1b"]}}\n',
    ),
    (
        ["build-lp", "--n", "2", "--d", "2", "--format", "json"],
        '{"d":2,"kind":"krawtchouk","l":1,"linear":false,"n":2,"objective":["1","1"],'
        '"rows":[{"coeffs":["1","0"],"name":"NORM","relation":"=","rhs":"1"},'
        '{"coeffs":["1","1"],"name":"MW_0","relation":">=","rhs":"0"},'
        '{"coeffs":["2","-2"],"name":"MW_1","relation":">=","rhs":"0"},'
        '{"coeffs":["1","1"],"name":"MW_2","relation":">=","rhs":"0"}],'
        '"schema":1,"var_indices":[0,2]}\n'
        '{"command":"build-lp","d":2,"family":"krawtchouk","format":"json","l":1,'
        '"linear":false,"n":2,"rows":4,"variables":2,"version":"0.1.0"}\n',
    ),
    (
        ["build-lp", "--n", "2", "--d", "2", "--linear"],
        "\\ krawtchouk n=2 d=2 l=1 flag=linear\n"
        "\\ exact-decimals=yes\n"
        "Maximize\n"
        " obj: + 1 a_0 + 1 a_2\n"
        "Subject To\n"
        " NORM: + 1 a_0 = 1\n"
        " MW_0: + 1 a_0 + 1 a_2 >= 0\n"
        " MW_1: + 2 a_0 - 2 a_2 >= 0\n"
        " MW_2: + 1 a_0 + 1 a_2 >= 0\n"
        "Bounds\n"
        " 0 <= a_0\n"
        " 0 <= a_2\n"
        "End\n"
        '{"command":"build-lp","d":2,"family":"krawtchouk","format":"lp-text","l":1,'
        '"linear":true,"n":2,"rows":4,"variables":2,"version":"0.1.0"}\n',
    ),
    (
        ["verify", "--suite", "level1", "--n", "2"],
        '{"checked":10,"command":"verify","params":{"n_max":2},"passed":true,'
        '"suite":"level1","version":"0.1.0","violations":[]}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, stdout",
    PINNED_STDOUT,
    ids=["configs", "oracle", "build-lp", "build-lp-text", "verify"],
)
def test_stdout_bytes_are_pinned(capsys, argv, stdout):
    code, _, out = _run(capsys, argv)
    assert code == 0
    assert out.out == stdout


def test_configs_walk_keeps_no_level(tmp_path, capsys):
    # --out and the stdout record both walk iter_configs, so the cached level
    # stays empty; the artifact is one canonical JSON line per configuration.
    configs.enumerate_configs.cache_clear()
    out = tmp_path / "configs.jsonl"
    code, records, _ = _run(capsys, ["configs", "--n", "3", "--l", "2", "--out", str(out)])
    assert code == 0 and records[0]["output"] == str(out)
    code, records, _ = _run(capsys, ["configs", "--n", "3", "--l", "2"])
    assert code == 0 and records[0]["count"] == 20
    assert configs.enumerate_configs.cache_info().currsize == 0
    lines = [configs.config_to_json(g, 3) for g in configs.enumerate_configs(3, 2)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    assert records[0]["configs"] == [json.loads(line) for line in lines]


def _readme_examples():
    # Every `krawlp ...` line of README.md's sh blocks, its trailing
    # comment stripped.  The bare `krawlp verify` is left out: it runs
    # every suite at its full grid, which test_acceptance.py already does.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("krawlp "):
            argv = shlex.split(line, comments=True)[1:]
            if argv != ["verify"]:
                examples.append(argv)
    return examples


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples_run(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, records, out = _run(capsys, argv)
    assert code == 0
    assert records and len(records) == len(out.out.splitlines())
    assert {r["command"] for r in records} == {argv[0]}
