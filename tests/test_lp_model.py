"""LP assembly, code profiles, feasibility checking, exports."""

from fractions import Fraction
from math import comb

import pytest

from krawlp.configs import SDConfig, enumerate_configs
from krawlp.errors import InvalidInputError, NotLinearError, ParameterError
from krawlp.lp import (
    CodeProfile,
    LinearProgram,
    LPRow,
    build_delsarte,
    build_hierarchy_lp,
    check_feasibility,
    export_lp,
    integer_form,
    lp_from_json,
    lp_to_json,
    profile_of_code,
)
from krawlp.oracle import build_fourier_lp, iter_linear_codes, max_code, max_linear_code
from krawlp.simplex import solve_exact


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
    with pytest.raises(ParameterError):
        build_delsarte(3, 0)
    with pytest.raises(ParameterError):
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
        assert {g.entries[1]: v for g, v in prof.entries.items()} == {
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
    # Every family's data is integral; the builders keep it as plain ints
    # and leave any scaling to lp.integer_form.
    lp = build()
    assert all(type(c) is int for c in lp.objective)
    for row in lp.rows:
        assert type(row.coeffs) is tuple
        assert all(type(c) is int for c in row.coeffs)
        assert type(row.rhs) is int


def test_integer_form():
    assert integer_form([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    assert integer_form((4, -1)) == ([4, -1], 1)
    assert integer_form(()) == ([], 1)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_examples():
    prof = profile_of_code([0b00, 0b11], 2, 1)
    assert {g.entries: v for g, v in prof.entries.items()} == {
        (0, 0): Fraction(1),
        (0, 2): Fraction(1),
    }
    assert profile_of_code([0b00, 0b11], 2, 2).objective_value() == 4
    prof = profile_of_code([0], 3, 2)
    assert {g.entries: v for g, v in prof.entries.items()} == {
        (0, 0, 0, 0): Fraction(1)
    }


def test_profile_objective_is_size_power():
    for words, n in ([0, 3, 5, 6], 3), ([1, 4, 7], 3):
        for ell in (1, 2):
            prof = profile_of_code(words, n, ell)
            assert prof.objective_value() == Fraction(len(set(words))) ** ell
            assert prof.value_at(enumerate_configs(n, ell)[0]) == 1


def test_profile_linear_requires_closure():
    with pytest.raises(NotLinearError):
        profile_of_code([0, 1, 2], 2, 1, linear=True)
    with pytest.raises(NotLinearError):
        profile_of_code([1, 2, 3], 2, 1, linear=True)  # misses zero


def test_profile_general_equals_span_for_linear_codes():
    for n in range(1, 6):
        for code in iter_linear_codes(n):
            words = sorted(code.words)
            for ell in (1, 2):
                general = profile_of_code(words, n, ell, linear=False)
                span = profile_of_code(words, n, ell, linear=True)
                assert general.entries == span.entries, (n, ell, words)


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


def test_feasibility_unit_profile_on_hierarchy():
    prof = profile_of_code([0], 4, 2)
    for d in (1, 3, 5):
        for linear in (False, True):
            lp = build_hierarchy_lp(4, d, 2, linear)
            verdict = check_feasibility(lp, prof)
            assert verdict.feasible and verdict.objective == 1


def _one_row_program(relation, rhs):
    # Variables are the two (n=1, l=1) configurations.
    one = Fraction(1)
    row = LPRow("R", (one, one), relation, Fraction(rhs))
    return LinearProgram("krawtchouk", 1, 1, 1, False, (0, 1), (one, one), (row,))


@pytest.mark.parametrize(
    "relation,rhs,inside",
    [
        ("=", Fraction(21, 10), True),
        ("=", Fraction(39, 20), True),
        ("=", Fraction(43, 20), False),
        ("=", Fraction(37, 20), False),
        (">=", Fraction(41, 20), True),
        (">=", Fraction(43, 20), False),
        ("<=", Fraction(39, 20), True),
        ("<=", Fraction(37, 20), False),
    ],
)
def test_feasibility_tolerance(relation, rhs, inside):
    # The profile of {0, 1} at n=1 puts mass 1 on both variables: lhs = 2.
    prof = profile_of_code([0, 1], 1, 1)
    lp = _one_row_program(relation, rhs)
    assert not check_feasibility(lp, prof).feasible
    verdict = check_feasibility(lp, prof, Fraction(1, 10))
    assert verdict.feasible == inside
    assert verdict.status == ("feasible" if inside else "row-violation")
    assert verdict.objective == 2


def test_feasibility_negative_tolerance_rejected():
    prof = profile_of_code([0, 1], 1, 1)
    with pytest.raises(ParameterError):
        check_feasibility(_one_row_program("=", 2), prof, Fraction(-1, 10))


def test_feasibility_bound_violation():
    # A hand-built profile with a negative count: mass -3/4 on a_1.
    trivial, weight1 = enumerate_configs(1, 1)
    prof = CodeProfile(1, 1, 1, {trivial: 2, weight1: -3}, 4)
    lp = _one_row_program(">=", 0)
    verdict = check_feasibility(lp, prof)
    assert (verdict.feasible, verdict.status, verdict.detail, verdict.objective) == (
        False,
        "bound-violation",
        "variable a_1 = -3/4 < 0",
        None,
    )
    assert check_feasibility(lp, prof, Fraction(3, 4) - Fraction(1, 100)).status == (
        "bound-violation"
    )
    for tolerance in (Fraction(3, 4), Fraction(1)):
        verdict = check_feasibility(lp, prof, tolerance)
        # lhs = 2/4 - 3/4 = -1/4 is within the tolerance of rhs 0.
        assert verdict.feasible and verdict.status == "feasible"
        assert verdict.objective == Fraction(-1, 4)


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
                prof_lin = profile_of_code(
                    sorted(witness_lin.words), n, ell, linear=True
                )
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


def test_exports_are_deterministic():
    lp = build_hierarchy_lp(3, 2, 2, linear=True)
    assert export_lp(lp, "lp-text") == export_lp(lp, "lp-text")
    assert export_lp(lp, "json") == export_lp(lp, "json")
    with pytest.raises(ParameterError):
        export_lp(lp, "mps")


def test_json_roundtrip_identity():
    for lp in (build_delsarte(4, 2), build_hierarchy_lp(3, 2, 2, linear=False)):
        text = lp_to_json(lp)
        again = lp_from_json(text)
        assert again == lp
        assert lp_to_json(again) == text


def test_var_configs_for_eliminated_program():
    lp = build_hierarchy_lp(2, 2, 2, linear=False)
    kept = lp.var_configs()
    assert all(not any(1 <= g.entries[1 << j] < 2 for j in range(2)) for g in kept)
    assert kept[0] == SDConfig((0, 0, 0, 0))
