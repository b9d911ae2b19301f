"""LP assembly, code profiles, feasibility checking, exports."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from krawlp.configs import (
    SDConfig,
    config_count,
    config_index,
    enumerate_configs,
    forbidden_configs,
    tuple_census,
)
from krawlp.errors import InvalidInputError
from krawlp.lp import (
    CodeProfile,
    LinearProgram,
    LPRow,
    build_delsarte,
    build_hierarchy_lp,
    check_dual,
    check_feasibility,
    check_point,
    export_lp,
    lp_from_json,
    lp_to_json,
    profile_of_code,
)
from krawlp.oracle import build_fourier_lp, iter_linear_codes, max_code, max_linear_code
from krawlp.simplex import solve_exact


def _masses(prof):
    # Profile mass per configuration index, as exact rationals.
    return {i: Fraction(c, prof.denom) for i, c in prof.counts.items()}


# ---------------------------------------------------------------------------
# build_delsarte
# ---------------------------------------------------------------------------


def test_delsarte_1_1_structure():
    lp = build_delsarte(1, 1)
    assert lp.num_vars == 2
    assert [r.name for r in lp.rows] == ["NORM", "MW_0", "MW_1"]
    assert lp.rows[0].relation == "=" and lp.rows[0].rhs == 1
    assert all(r.relation == ">=" for r in lp.rows[1:])


def test_delsarte_eliminates_forbidden_weights():
    # forbidden weights are 1..d-1
    assert build_delsarte(2, 2).var_indices == (0, 2)
    assert build_delsarte(2, 3).var_indices == (0,)
    assert build_delsarte(5, 3).var_indices == (0, 3, 4, 5)


def test_delsarte_parameter_range():
    with pytest.raises(InvalidInputError):
        build_delsarte(3, 0)
    with pytest.raises(InvalidInputError):
        build_delsarte(3, 5)
    build_delsarte(3, 4)  # d = n + 1 is allowed


def test_delsarte_values():
    assert solve_exact(build_delsarte(1, 1)).value == 2
    for n in range(1, 9):
        assert solve_exact(build_delsarte(n, 1)).value == 2**n


def test_delsarte_full_space_profile_is_optimal_point():
    # a_i = C(n, i) is feasible with objective 2^n
    for n in (3, 5, 8):
        lp = build_delsarte(n, 1)
        prof = profile_of_code(range(1 << n), n, 1)
        configs = enumerate_configs(n, 1)
        assert {configs[i].entries[1]: v for i, v in _masses(prof).items()} == {
            w: Fraction(comb(n, w)) for w in range(n + 1)
        }
        verdict = check_feasibility(lp, prof)
        assert verdict.feasible and verdict.objective == 2**n


# ---------------------------------------------------------------------------
# build_hierarchy_lp
# ---------------------------------------------------------------------------


def test_level1_coincides_with_delsarte():
    for n in (1, 4, 8):
        for d in range(1, n + 2):
            base = build_delsarte(n, d)
            for linear in (False, True):
                lifted = build_hierarchy_lp(n, d, 1, linear)
                assert lifted.var_indices == base.var_indices
                assert lifted.objective == base.objective
                assert lifted.rows == base.rows


def test_linear_flag_eliminates_strictly_more():
    gen = build_hierarchy_lp(4, 3, 2, linear=False)
    lin = build_hierarchy_lp(4, 3, 2, linear=True)
    assert lin.num_vars < gen.num_vars


def test_rows_cover_all_configs_even_eliminated():
    lp = build_hierarchy_lp(4, 3, 2, linear=True)
    # one normalization row plus one transform row per configuration
    assert len(lp.rows) == 1 + len(enumerate_configs(4, 2))


def test_fully_constrained_program_value_one():
    # d = n + 1 with the linear flag leaves only the trivial variable
    lp = build_hierarchy_lp(3, 4, 2, linear=True)
    assert lp.num_vars == 1
    assert solve_exact(lp).value == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_delsarte(5, 3),
        lambda: build_hierarchy_lp(4, 2, 2, linear=False),
        lambda: build_hierarchy_lp(3, 4, 2, linear=True),
        lambda: build_fourier_lp(2, 2, 2, linear=False),
    ],
    ids=["delsarte", "krawtchouk", "krawtchouk-one-var", "fourier"],
)
def test_builders_emit_plain_ints(build):
    # Every family's data is integral, and the builders keep it as plain ints.
    lp = build()
    assert all(type(c) is int for c in lp.objective)
    for row in lp.rows:
        assert type(row.coeffs) is tuple
        assert all(type(c) is int for c in row.coeffs)
        assert type(row.rhs) is int


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_examples():
    prof = profile_of_code([0b00, 0b11], 2, 1)
    configs = enumerate_configs(2, 1)
    assert {configs[i].entries: v for i, v in _masses(prof).items()} == {
        (0, 0): Fraction(1),
        (0, 2): Fraction(1),
    }
    assert profile_of_code([0b00, 0b11], 2, 2).objective_value() == 4
    prof = profile_of_code([0], 3, 2)
    configs = enumerate_configs(3, 2)
    assert {configs[i].entries: v for i, v in _masses(prof).items()} == {
        (0, 0, 0, 0): Fraction(1)
    }


def test_profile_objective_is_size_power():
    for words, n in ([0, 3, 5, 6], 3), ([1, 4, 7], 3):
        for ell in (1, 2):
            prof = profile_of_code(words, n, ell)
            assert prof.objective_value() == Fraction(len(set(words))) ** ell
            assert prof.counts[0] == prof.denom


def test_profile_denominator_follows_linearity():
    # [1, 2, 3] misses zero, [0, 3, 5] is not XOR-closed.
    cases = ([0, 3, 5, 6], 3, True), ([0, 3, 5], 3, False), ([1, 2, 3], 2, False)
    for words, n, linear in cases:
        for ell in (1, 2):
            prof = profile_of_code(words, n, ell)
            assert prof.denom == (1 if linear else len(words) ** ell), (words, ell)


def _pair_masses(words, n, ell):
    # The pair-difference formula any code's profile follows: the difference
    # tuples of all pairs of l-tuples, by config index, over |C|^l.
    diff = Counter(x ^ y for x in words for y in words)
    index = config_index(n, ell)
    census = tuple_census([list(diff.items())] * ell)
    return {index[key]: Fraction(m, len(words) ** ell) for key, m in census.items()}


def test_profile_general_equals_span_for_linear_codes():
    # A linear code's profile counts codeword tuples; the pair formula
    # gives it the same masses.
    for n in range(1, 6):
        for code in iter_linear_codes(n):
            words = sorted(code.words)
            for ell in (1, 2):
                prof = profile_of_code(words, n, ell)
                assert _masses(prof) == _pair_masses(words, n, ell), (n, ell, words)


@pytest.mark.parametrize(
    "key", [-1, config_count(2, 2), SDConfig((0, 0, 0, 0))], ids=["negative", "count", "sdconfig"]
)
def test_profile_rejects_non_index_keys(key):
    with pytest.raises(InvalidInputError):
        CodeProfile(2, 2, 1, {0: 1, key: 1}, 1)


@pytest.mark.parametrize("n,ell,denom", [(0, 1, 1), (2, -1, 1), (2, 2, 0)])
def test_profile_rejects_bad_shape(n, ell, denom):
    with pytest.raises(InvalidInputError):
        CodeProfile(n, ell, 1, {0: 1}, denom)


def test_profile_keys_are_config_indices():
    prof = profile_of_code([0b000, 0b011, 0b101], 3, 2)
    assert prof.counts[0] == prof.denom == 9
    assert all(type(i) is int and 0 <= i < config_count(3, 2) for i in prof.counts)
    assert list(prof.counts) == sorted(
        prof.counts, key=lambda i: enumerate_configs(3, 2)[i].entries
    )


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def test_feasibility_repetition_code():
    prof = profile_of_code([0b000, 0b111], 3, 1)
    verdict = check_feasibility(build_delsarte(3, 3), prof)
    assert verdict.feasible and verdict.objective == 2


def test_feasibility_distance_violation():
    prof = profile_of_code(range(8), 3, 1)
    verdict = check_feasibility(build_delsarte(3, 2), prof)
    assert not verdict.feasible and verdict.status == "distance-violation"


def test_feasibility_names_the_lowest_eliminated_configuration():
    # Configurations 1 and 2 both carry mass and (3, 3, 1) keeps neither;
    # the verdict names configuration 1 however the counts were inserted.
    lp = build_hierarchy_lp(3, 3, 1, False)
    assert 1 not in lp.var_indices and 2 not in lp.var_indices
    details = {
        check_feasibility(lp, CodeProfile(3, 1, 2, counts, 1)).detail
        for counts in ({0: 1, 1: 1, 2: 1}, {0: 1, 2: 1, 1: 1})
    }
    assert details == {
        f"eliminated configuration {enumerate_configs(3, 1)[1].entries} has mass 1"
    }


def test_feasibility_unit_profile_on_hierarchy():
    prof = profile_of_code([0], 4, 2)
    for d in (1, 3, 5):
        for linear in (False, True):
            lp = build_hierarchy_lp(4, d, 2, linear)
            verdict = check_feasibility(lp, prof)
            assert verdict.feasible and verdict.objective == 1


def _one_row_program(relation, rhs):
    # Variables are the two (n=1, l=1) configurations; the row is 20 x0 + 20 x1.
    row = LPRow("R", (20, 20), relation, rhs)
    return LinearProgram("krawtchouk", 1, 1, 1, False, (0, 1), (1, 1), (row,))


@pytest.mark.parametrize(
    "relation,rhs,near",
    [
        ("=", 42, True),
        ("=", 39, True),
        ("=", 43, False),
        ("=", 37, False),
        (">=", 41, True),
        (">=", 43, False),
        ("<=", 39, True),
        ("<=", 37, False),
        ("=", 40, True),
        (">=", 40, True),
        ("<=", 40, True),
    ],
)
def test_feasibility_tolerance(relation, rhs, near):
    # The profile of {0, 1} at n=1 puts mass 1 on both variables: lhs = 40.
    # The check is exact: a row that misses by at most 2 (near, 1/20 of
    # the lhs) fails just as a farther miss does, and only rhs = 40 holds.
    assert (abs(rhs - 40) <= 2) == near
    prof = profile_of_code([0, 1], 1, 1)
    verdict = check_feasibility(_one_row_program(relation, rhs), prof)
    assert verdict.feasible == (rhs == 40)
    assert verdict.status == ("feasible" if rhs == 40 else "row-violation")
    assert verdict.objective == 2


def test_feasibility_bound_violation():
    # A hand-built profile with a negative count: mass -3/4 on a_1.
    prof = CodeProfile(1, 1, 1, {0: 2, 1: -3}, 4)
    lp = _one_row_program(">=", 0)
    verdict = check_feasibility(lp, prof)
    assert (verdict.feasible, verdict.status, verdict.detail, verdict.objective) == (
        False,
        "bound-violation",
        "variable a_1 = -3/4 < 0",
        None,
    )


def _one_row_max(relation):
    # max x0 + x1 s.t. A: x0 + x1 (relation) 1
    row = LPRow("A", (1, 1), relation, 1)
    return LinearProgram("delsarte", 1, 1, 1, None, (0, 1), (1, 1), (row,))


def _verdict(v):
    return v.feasible, v.status, v.detail, v.objective


def test_check_dual_on_one_row():
    lp = _one_row_max("<=")
    assert _verdict(check_dual(lp, [(0, 1)], 1)) == (True, "feasible", None, 1)
    assert _verdict(check_dual(lp, [(0, -1)], 1)) == (
        False,
        "bound-violation",
        "row A: dual -1 has the wrong sign for <=",
        None,
    )
    assert _verdict(check_dual(lp, [(0, 1)], 2)) == (
        False,
        "row-violation",
        "variable a_0: dual sum 1/2 < objective coefficient 1",
        Fraction(1, 2),
    )


def test_check_dual_signs_by_relation():
    assert check_dual(_one_row_max(">="), [(0, 1)], 1).status == "bound-violation"
    assert check_dual(_one_row_max(">="), [(0, -1)], 1).status == "row-violation"
    assert check_dual(_one_row_max("="), [(0, 1)], 1).feasible
    assert check_dual(_one_row_max("="), [(0, -1)], 1).status == "row-violation"


@pytest.mark.parametrize(
    "objective,feasible", [((0, -1), True), ((0, 1), False), ((-2, -1), True)]
)
def test_check_dual_without_rows(objective, feasible):
    # y is empty, so every column sums to 0 and must cover c_j.
    lp = LinearProgram("delsarte", 1, 1, 1, None, (0, 1), objective, ())
    verdict = check_dual(lp, [], 1)
    assert (verdict.feasible, verdict.objective) == (feasible, 0)


@pytest.mark.parametrize("check", [check_point, check_dual])
@pytest.mark.parametrize(
    "support,denom",
    [
        ([(0, 1)], -1),
        ([(0, 1)], 0),
        ([(0, 1)], 1.0),
        ([(0, 1)], True),
        ([(0, 1), (9, 1)], 1),
        ([(9, 1)], 1),
        ([(-1, 1)], 1),
        ([(1, 1), (0, 1)], 1),
        ([(0, 1), (0, 1)], 1),
        ([(0.0, 1)], 1),
        ([(0, 1.0)], 1),
        ([(0, True)], 1),
        ([(0,)], 1),
    ],
)
def test_certificate_checks_refuse_what_they_cannot_certify(check, support, denom):
    # build_delsarte(2, 1) has 3 variables and 4 rows, so 9 is past both.
    with pytest.raises(InvalidInputError):
        check(build_delsarte(2, 1), support, denom)


def test_feasibility_index_mismatch_errors():
    prof = profile_of_code([0], 3, 1)
    with pytest.raises(InvalidInputError):
        check_feasibility(build_delsarte(4, 1), prof)


def test_oracle_witness_profiles_are_feasible():
    for n in range(1, 6):
        for d in range(1, n + 1):
            _, witness_gen = max_code(n, d)
            _, witness_lin = max_linear_code(n, d)
            for ell in (1, 2):
                prof = profile_of_code(sorted(witness_gen.words), n, ell)
                lp = build_hierarchy_lp(n, d, ell, linear=False)
                assert check_feasibility(lp, prof).feasible, (n, d, ell)
                prof_lin = profile_of_code(sorted(witness_lin.words), n, ell)
                lp_lin = build_hierarchy_lp(n, d, ell, linear=True)
                assert check_feasibility(lp_lin, prof_lin).feasible, (n, d, ell)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_lp_text_structure():
    text = export_lp(build_delsarte(1, 1), "lp-text").decode()
    assert text.count("MW_") == 2
    assert "NORM: + 1 a_0 = 1" in text
    assert "exact-decimals=yes" in text
    assert text.endswith("End\n")


def test_lp_text_prints_every_int_in_full():
    # An all-zero row names its first variable, and an int of any size
    # prints exactly, with no float in between.
    huge = 10**400
    lp = build_delsarte(2, 2)
    rows = (LPRow("MW_0", (huge, 0), ">=", 0), LPRow("MW_1", (0, 0), ">=", -huge))
    lines = export_lp(replace(lp, rows=rows), "lp-text").decode().splitlines()
    assert f" MW_0: + {huge} a_0 >= 0" in lines
    assert f" MW_1: + 0 a_0 >= -{huge}" in lines
    assert "\\ exact-decimals=yes" in lines


def test_exports_are_deterministic():
    lp = build_hierarchy_lp(3, 2, 2, linear=True)
    assert export_lp(lp, "lp-text") == export_lp(lp, "lp-text")
    assert export_lp(lp, "json") == export_lp(lp, "json")
    with pytest.raises(InvalidInputError):
        export_lp(lp, "mps")


def test_json_roundtrip_identity():
    for lp in (build_delsarte(4, 2), build_hierarchy_lp(3, 2, 2, linear=False)):
        text = lp_to_json(lp)
        again = lp_from_json(text)
        assert again == lp
        assert lp_to_json(again) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_delsarte(4, 2),
        lambda: build_hierarchy_lp(3, 2, 2, linear=False),
        lambda: build_fourier_lp(2, 2, 2, linear=True),
    ],
    ids=["delsarte", "krawtchouk", "fourier"],
)
def test_json_roundtrip_keeps_ints(build):
    lp = build()
    again = lp_from_json(lp_to_json(lp))
    assert again == lp
    numbers = [*again.objective, *(r.rhs for r in again.rows)]
    numbers += [c for r in again.rows for c in r.coeffs]
    assert {type(x) for x in numbers} == {int}


def test_lp_json_reads_int_numbers():
    # lp_to_json writes strings; a plain JSON int is read as the same number.
    data = json.loads(lp_to_json(build_delsarte(2, 2)))
    data["objective"] = [int(c) for c in data["objective"]]
    for row in data["rows"]:
        row["coeffs"] = [int(c) for c in row["coeffs"]]
        row["rhs"] = int(row["rhs"])
    assert lp_from_json(json.dumps(data)) == build_delsarte(2, 2)


def _malformed_lp_json(edit):
    data = json.loads(lp_to_json(build_delsarte(1, 1)))
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        _malformed_lp_json(lambda data: data["rows"][0].pop("coeffs")),
        _malformed_lp_json(lambda data: data["objective"].__setitem__(0, "1/0")),
        _malformed_lp_json(lambda data: data.__setitem__("kind", "bogus")),
        _malformed_lp_json(lambda data: data.__setitem__("schema", 2)),
        _malformed_lp_json(lambda data: data.__setitem__("schema", True)),
        _malformed_lp_json(lambda data: data.__setitem__("schema", 1.0)),
        _malformed_lp_json(lambda data: data.__setitem__("var_indices", [1, 1])),
        _malformed_lp_json(lambda data: data.__setitem__("var_indices", ["x", -5])),
        _malformed_lp_json(lambda data: data.__setitem__("var_indices", [0, -5])),
        _malformed_lp_json(lambda data: data.__setitem__("var_indices", [0, 1.0])),
        _malformed_lp_json(lambda data: data.__setitem__("var_indices", [0, True])),
        _malformed_lp_json(
            lambda data: data.update(
                var_indices=[], objective=[], rows=[{**r, "coeffs": []} for r in data["rows"]]
            )
        ),
        _malformed_lp_json(lambda data: data.__setitem__("d", "q")),
        _malformed_lp_json(lambda data: data.__setitem__("n", 1.0)),
        _malformed_lp_json(lambda data: data.__setitem__("l", True)),
        _malformed_lp_json(lambda data: data.__setitem__("linear", "yes")),
        _malformed_lp_json(lambda data: data.__setitem__("linear", 1)),
        _malformed_lp_json(lambda data: data.__setitem__("n", 0)),
        _malformed_lp_json(lambda data: data.__setitem__("l", 0)),
        _malformed_lp_json(lambda data: data.__setitem__("d", 0)),
        _malformed_lp_json(lambda data: data.__setitem__("d", 3)),
        _malformed_lp_json(lambda data: data.__setitem__("l", 3)),
        _malformed_lp_json(lambda data: data.__setitem__("linear", True)),
        _malformed_lp_json(lambda data: data.__setitem__("kind", "krawtchouk")),
        _malformed_lp_json(lambda data: data.__setitem__("objective", "11")),
        _malformed_lp_json(lambda data: data["rows"][1].__setitem__("coeffs", "10")),
        _malformed_lp_json(lambda data: data.__setitem__("rows", {})),
        _malformed_lp_json(lambda data: data.__setitem__("var_indices", "01")),
        _malformed_lp_json(lambda data: data["rows"][1]["coeffs"].__setitem__(0, 0.1)),
        _malformed_lp_json(lambda data: data["rows"][1]["coeffs"].__setitem__(0, True)),
        _malformed_lp_json(lambda data: data["rows"][0].__setitem__("rhs", 1.0)),
        _malformed_lp_json(lambda data: data["objective"].__setitem__(0, 1.5)),
        _malformed_lp_json(lambda data: data["objective"].__setitem__(0, False)),
        "{",
    ],
    ids=[
        "list",
        "no-coeffs",
        "zero-denominator",
        "bogus-kind",
        "schema",
        "schema-true",
        "schema-float",
        "repeated-index",
        "string-index",
        "negative-index",
        "float-index",
        "bool-index",
        "no-variables",
        "string-d",
        "float-n",
        "bool-l",
        "linear-string",
        "linear-int",
        "n-zero",
        "l-zero",
        "d-zero",
        "d-above-n-plus-1",
        "delsarte-l3",
        "delsarte-linear-true",
        "hierarchy-linear-null",
        "objective-string",
        "coeffs-string",
        "rows-object",
        "var-indices-string",
        "float-coeff",
        "bool-coeff",
        "float-rhs",
        "float-objective",
        "bool-objective",
        "not-json",
    ],
)
def test_lp_json_rejects_malformed(text):
    with pytest.raises(InvalidInputError):
        lp_from_json(text)


def test_hierarchy_variables_complement_forbidden_configs():
    for ell, top in ((1, 6), (2, 6), (3, 3)):
        for n in range(1, top + 1):
            configs = enumerate_configs(n, ell)
            for d in range(1, n + 2):
                for linear in (False, True):
                    forb = forbidden_configs(n, d, ell, linear)
                    want = tuple(i for i, g in enumerate(configs) if g not in forb)
                    lp = build_hierarchy_lp(n, d, ell, linear)
                    assert lp.var_indices == want, (n, d, ell, linear)


def test_var_configs_for_eliminated_program():
    lp = build_hierarchy_lp(2, 2, 2, linear=False)
    kept = [enumerate_configs(2, 2)[i] for i in lp.var_indices]
    assert all(not any(1 <= g.entries[1 << j] < 2 for j in range(2)) for g in kept)
    assert kept[0] == SDConfig((0, 0, 0, 0))
