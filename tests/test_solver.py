"""Exact simplex, floating screen, roots."""

import json
from fractions import Fraction

import pytest

from krawlp import simplex
from krawlp.errors import ParameterError, SelfCheckError
from krawlp.lp import LinearProgram, LPRow, build_delsarte, build_hierarchy_lp
from krawlp.simplex import root_value, solve_exact, solve_float


def _custom(var_indices, objective, rows, n=1, d=1, ell=1):
    return LinearProgram(
        kind="delsarte",
        n=n,
        d=d,
        ell=ell,
        linear=None,
        var_indices=tuple(var_indices),
        objective=tuple(Fraction(c) for c in objective),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# solve_exact
# ---------------------------------------------------------------------------


def test_exact_examples():
    assert solve_exact(build_delsarte(1, 1)).value == 2
    for n in range(1, 9):
        assert solve_exact(build_delsarte(n, 1)).value == 2**n


def test_exact_primal_satisfies_rows():
    lp = build_delsarte(5, 3)
    res = solve_exact(lp)
    assert res.status == "optimal" and res.exact
    for row in lp.rows:
        lhs = sum(c * v for c, v in zip(row.coeffs, res.primal))
        assert lhs == row.rhs if row.relation == "=" else lhs >= row.rhs
    assert sum(res.primal) == res.value


def test_exact_integer_program_reports_fractions():
    # An all-int program still yields Fraction value and primal entries,
    # which to_json prints as exact strings, not floats.
    row = LPRow("R", (1, 1), "<=", 1)
    lp = LinearProgram("delsarte", 1, 1, 1, None, (0, 1), (1, 1), (row,))
    res = solve_exact(lp)
    assert type(res.value) is Fraction and res.value == 1
    assert all(type(v) is Fraction for v in res.primal)
    data = json.loads(res.to_json())
    assert data["value"] == "1"
    assert all(isinstance(v, str) for v in data["primal"])


def test_exact_normalization_only_program():
    lp = _custom([0], [1], [LPRow("NORM", (Fraction(1),), "=", Fraction(1))])
    res = solve_exact(lp)
    assert res.status == "optimal" and res.value == 1


def test_exact_certificate_reads_the_program_rows(monkeypatch):
    # A scaling bug that turns row A (x0 + x1 <= 1) into x0 + x1 <= 2 in
    # the tableau must not pass: the primal check reads lp.rows itself.
    real = simplex.integer_form

    def loosened(values):
        ints, s = real(values)
        if len(values) == 3:  # row A with its rhs; the objective has 2 entries
            ints[-1] *= 2
        return ints, s

    monkeypatch.setattr(simplex, "integer_form", loosened)
    lp = _custom([0, 1], [1, 1], [LPRow("A", (1, 1), "<=", 1)])
    with pytest.raises(SelfCheckError, match="violates row A"):
        solve_exact(lp)


def test_exact_infeasible_detection():
    base = build_delsarte(2, 2)
    clash = LPRow("CLASH", base.rows[0].coeffs, "=", Fraction(2))
    lp = _custom(
        base.var_indices,
        base.objective,
        base.rows + (clash,),
        n=2,
        d=2,
    )
    assert solve_exact(lp).status == "infeasible"
    assert solve_float(lp).status == "infeasible"


def test_exact_unbounded_detection():
    # normalization only, with a second unconstrained variable to grow
    base = build_delsarte(3, 1)
    lp = _custom(base.var_indices, base.objective, base.rows[:1], n=3)
    assert solve_exact(lp).status == "unbounded"
    assert solve_float(lp).status == "unbounded"


def test_exact_nonintegral_value():
    assert solve_exact(build_delsarte(4, 3)).value == Fraction(8, 3)


def test_exact_result_json():
    res = solve_exact(build_delsarte(2, 2))
    data = json.loads(res.to_json())
    assert data["status"] == "optimal"
    assert data["value"] == str(res.value)
    assert data["exact"] is True


def _row(name, coeffs, rel, rhs):
    return LPRow(name, tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))


def test_exact_pivots_survive_redundant_row():
    # x0 + x1 = 1, max x0 + 2*x1: one phase-1 and one phase-2 pivot.  The
    # duplicated row is found redundant after phase 1 and dropped; its
    # phase-1 pivot must still be counted.
    row = _row("R", (1, 1), "=", 1)
    single = solve_exact(_custom([0, 1], [1, 2], [row]))
    double = solve_exact(_custom([0, 1], [1, 2], [row, row]))
    for res in (single, double):
        assert res.status == "optimal" and res.value == 2
        assert res.primal == (0, 1)
        assert res.pivots == 2


def test_exact_rational_coefficients():
    # (1/3) x0 + (2/5) x1 <= 1, x0 <= 3/2, x1 >= 1/7, max x0 + x1.
    # x0 earns 3 per unit of the first row and x1 earns 5/2, so x0 goes to
    # its bound 3/2 and x1 takes the remaining 1/2: x1 = 5/4, value 11/4.
    # Dual: y = (5/2, 1/6, 0), and 5/2 + (1/6)(3/2) = 11/4.
    rows = [
        _row("A", (Fraction(1, 3), Fraction(2, 5)), "<=", 1),
        _row("B", (1, 0), "<=", Fraction(3, 2)),
        _row("C", (0, 1), ">=", Fraction(1, 7)),
    ]
    res = solve_exact(_custom([0, 1], [1, 1], rows))
    assert res.status == "optimal"
    assert res.value == Fraction(11, 4)
    assert res.primal == (Fraction(3, 2), Fraction(5, 4))


def test_exact_rational_objective():
    # x0 + x1 <= 1, max (2/3) x0 + (3/7) x1: x0 = 1, value 2/3.
    rows = [_row("A", (1, 1), "<=", 1)]
    res = solve_exact(_custom([0, 1], [Fraction(2, 3), Fraction(3, 7)], rows))
    assert res.value == Fraction(2, 3) and res.primal == (1, 0)


def test_exact_positive_rhs_ge_needs_phase_one():
    # min x0 + x1 on x0 + 2 x1 >= 4, 3 x0 + x1 >= 3: the origin is
    # infeasible; the optimum is the crossing (2/5, 9/5), sum 11/5.
    rows = [_row("A", (1, 2), ">=", 4), _row("B", (3, 1), ">=", 3)]
    res = solve_exact(_custom([0, 1], [-1, -1], rows))
    assert res.status == "optimal"
    assert res.value == Fraction(-11, 5)
    assert res.primal == (Fraction(2, 5), Fraction(9, 5))
    assert res.pivots >= 2


def test_exact_zero_rhs_ge_starts_feasible():
    # x0 - x1 >= 0 becomes x1 - x0 <= 0 with a basic slack; max -x0 is
    # optimal at the origin without a single pivot.
    rows = [_row("A", (1, -1), ">=", 0)]
    res = solve_exact(_custom([0, 1], [-1, 0], rows))
    assert res.status == "optimal" and res.value == 0
    assert res.pivots == 0


def test_exact_negative_rhs_le():
    # -x0 - x1 <= -2 (x0 + x1 >= 2), x0 <= 3/2, min x0 + 2 x1:
    # x0 = 3/2, x1 = 1/2, value -5/2.
    rows = [_row("A", (-1, -1), "<=", -2), _row("B", (1, 0), "<=", Fraction(3, 2))]
    res = solve_exact(_custom([0, 1], [-1, -2], rows))
    assert res.status == "optimal"
    assert res.value == Fraction(-5, 2)
    assert res.primal == (Fraction(3, 2), Fraction(1, 2))


def test_exact_zero_rhs_equality():
    # x0 - x1 = 0, x0 + 2 x1 <= 3, max x0 + x1: x0 = x1 = 1.
    rows = [_row("A", (1, -1), "=", 0), _row("B", (1, 2), "<=", 3)]
    res = solve_exact(_custom([0, 1], [1, 1], rows))
    assert res.status == "optimal" and res.value == 2
    assert res.primal == (1, 1)


def test_exact_verdicts_with_zero_rhs_rows():
    # x0 >= x1 and x1 >= x0 + 1 cannot both hold.
    clash = [_row("A", (1, -1), ">=", 0), _row("B", (-1, 1), ">=", 1)]
    lp = _custom([0, 1], [1, 1], clash)
    assert solve_exact(lp).status == "infeasible"
    assert solve_float(lp).status == "infeasible"
    # x0 >= x1 alone lets x0 = x1 grow without bound.
    lp = _custom([0, 1], [1, 0], clash[:1])
    assert solve_exact(lp).status == "unbounded"
    assert solve_float(lp).status == "unbounded"


# ---------------------------------------------------------------------------
# solve_float
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,ell", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (3, 2), (4, 2)])
def test_float_agrees_with_exact(n, ell):
    for d in range(1, n + 1):
        for linear in (False, True):
            lp = build_hierarchy_lp(n, d, ell, linear)
            exact = solve_exact(lp).value
            screened = solve_float(lp).value
            assert abs(screened - float(exact)) <= 1e-6 * max(1.0, float(exact))
            assert solve_float(lp).exact is False


def test_exact_agrees_with_float_on_random_programs():
    # seeded random instances hit status paths our structured programs
    # never produce
    import random

    random.seed(11)
    for _ in range(120):
        nv = random.randint(1, 5)
        rows = []
        for i in range(random.randint(1, 5)):
            coeffs = tuple(Fraction(random.randint(-4, 4)) for _ in range(nv))
            rel = random.choice([">=", "=", "<="])
            rows.append(LPRow(f"R{i}", coeffs, rel, Fraction(random.randint(-6, 6))))
        obj = tuple(Fraction(random.randint(-3, 3)) for _ in range(nv))
        lp = _custom(range(nv), obj, rows)
        exact = solve_exact(lp)
        screened = solve_float(lp)
        if exact.status == "unbounded" and screened.status == "infeasible":
            # HiGHS presolve cannot always split unbounded-or-infeasible;
            # the exact answer is self-verified, so trust it here
            continue
        assert exact.status == screened.status
        if exact.status == "optimal":
            assert abs(float(exact.value) - screened.value) <= 1e-6 * max(
                1.0, abs(screened.value)
            )


# ---------------------------------------------------------------------------
# root_value
# ---------------------------------------------------------------------------


def test_root_values_by_hand():
    assert root_value(Fraction(64), 2) == 8.0
    assert root_value(Fraction(1), 11) == 1.0
    assert root_value(Fraction(0), 3) == 0.0
    assert root_value(Fraction(27), 3) == 3.0
    assert root_value(Fraction(2), 2) == 2**0.5


def test_root_value_tiny_and_huge():
    assert root_value(Fraction(1, 2**100), 2) == 2.0**-50
    assert root_value(Fraction(2**120), 2) == 2.0**60
    v = root_value(Fraction(10) ** 30, 3)
    assert abs(v - 1e10) <= 1e-5  # 1 ulp at 1e10 is ~2e-6


def test_root_value_domain_errors():
    with pytest.raises(ParameterError):
        root_value(Fraction(-1), 2)
    with pytest.raises(ParameterError):
        root_value(Fraction(4), 0)


def test_root_of_collapse_value():
    lvl2 = solve_exact(build_hierarchy_lp(4, 3, 2, linear=False)).value
    lvl1 = solve_exact(build_delsarte(4, 3)).value
    assert abs(root_value(lvl2, 2) - float(lvl1)) < 1e-9


# ---------------------------------------------------------------------------
# monotonicity in d
# ---------------------------------------------------------------------------


def test_delsarte_monotone_in_d():
    for n in range(1, 7):
        values = [solve_exact(build_delsarte(n, d)).value for d in range(1, n + 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))
