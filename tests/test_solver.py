"""Exact simplex, floating screen, roots."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from krawlp import simplex
from krawlp.errors import (
    InvalidInputError,
    IterationLimitError,
    SelfCheckError,
    SolverNumericsError,
)
from krawlp.lp import (
    LinearProgram,
    LPRow,
    build_delsarte,
    build_hierarchy_lp,
    check_dual,
    lp_to_json,
)
from krawlp.oracle import build_fourier_lp
from krawlp.simplex import root_value, solve_exact, solve_float


def _custom(var_indices, objective, rows, n=None, d=1, ell=1):
    # A delsarte program's indices are weights 0..n, so n defaults to the
    # largest index (at least 1).
    var_indices = tuple(var_indices)
    return LinearProgram(
        kind="delsarte",
        n=n or max(1, *var_indices),
        d=d,
        ell=ell,
        linear=None,
        var_indices=var_indices,
        objective=tuple(objective),
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
    lp = _custom([0], [1], [LPRow("NORM", (1,), "=", 1)])
    res = solve_exact(lp)
    assert res.status == "optimal" and res.value == 1


def test_exact_certificate_reads_the_program_rows(monkeypatch):
    # A bug that turns row A (x0 + x1 <= 1) into x0 + x1 <= 2 in the
    # tableau must not pass: the primal check reads lp.rows itself.
    real = simplex._Tableau.__init__

    def loosened(self, rows, basis, nonbasic):
        rows[0][-1] *= 2  # row A's rhs
        real(self, rows, basis, nonbasic)

    monkeypatch.setattr(simplex._Tableau, "__init__", loosened)
    lp = _custom([0, 1], [1, 1], [LPRow("A", (1, 1), "<=", 1)])
    with pytest.raises(SelfCheckError, match="violates row A"):
        solve_exact(lp)


def test_exact_certificate_reads_the_dual_scale(monkeypatch):
    # A scaling bug that doubles the starting phase-2 row's scale halves
    # the dual read off the tableau; the dual check must catch it.
    real = simplex._Tableau.__init__

    def doubled(self, rows, basis, nonbasic):
        real(self, rows, basis, nonbasic)
        self.dens[-1] *= 2  # the phase-2 reduced-cost row is last

    monkeypatch.setattr(simplex._Tableau, "__init__", doubled)
    lp = _custom([0, 1], [1, 1], [LPRow("A", (1, 1), "<=", 1)])
    with pytest.raises(SelfCheckError, match="dual certificate fails"):
        solve_exact(lp)


def test_exact_certificate_needs_strong_duality(monkeypatch):
    # A feasible dual whose objective misses the primal's must not pass.
    real = simplex.check_dual

    def off_by_one(*args):
        verdict = real(*args)
        return replace(verdict, objective=verdict.objective + 1)

    monkeypatch.setattr(simplex, "check_dual", off_by_one)
    with pytest.raises(SelfCheckError, match="strong duality does not close; result discarded"):
        solve_exact(build_delsarte(2, 2))


def test_exact_phase_one_is_never_unbounded(monkeypatch):
    # Phase 1 maximizes minus a sum of non-negative artificials, so a
    # phase that reports it unbounded is a solver fault, not a verdict.
    monkeypatch.setattr(simplex, "_run_phase", lambda tab, ncols: "unbounded")
    with pytest.raises(SelfCheckError, match="phase 1 cannot be unbounded"):
        solve_exact(build_delsarte(3, 2))


def test_exact_infeasible_detection():
    base = build_delsarte(2, 2)
    clash = LPRow("CLASH", base.rows[0].coeffs, "=", 2)
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


def test_result_json_without_a_point():
    res = simplex.SolveResult("infeasible", None, None, 3, True)
    assert res.to_json() == (
        '{"exact":true,"pivots":3,"primal":null,"status":"infeasible","value":null}'
    )


def _row(name, coeffs, rel, rhs):
    return LPRow(name, tuple(coeffs), rel, rhs)


def test_exact_pivots_survive_redundant_row():
    # x0 + x1 = 1, max x0 + 2*x1: one phase-1 and one phase-2 pivot.  The
    # duplicated row is redundant after phase 1 and is kept as an inert
    # row with its zero-level artificial basic; the phase-1 pivot must
    # still be counted.
    row = _row("R", (1, 1), "=", 1)
    single = solve_exact(_custom([0, 1], [1, 2], [row]))
    double = solve_exact(_custom([0, 1], [1, 2], [row, row]))
    for res in (single, double):
        assert res.status == "optimal" and res.value == 2
        assert res.primal == (0, 1)
        assert res.pivots == 2


def _with_rows(lp, *rows):
    return replace(lp, rows=lp.rows + rows)


@pytest.mark.parametrize(
    "lp,pivots",
    [
        (build_delsarte(5, 3), 3),
        (build_hierarchy_lp(4, 2, 2, False), 14),
        (build_fourier_lp(3, 2, 2, False), 17),
    ],
)
def test_exact_duplicate_norm_row_changes_nothing(lp, pivots):
    # The copy's artificial stays basic at zero level after phase 1, and
    # its row never takes part in a phase-2 pivot.
    norm = next(row for row in lp.rows if row.name == "NORM")
    plain = solve_exact(lp)
    doubled = solve_exact(_with_rows(lp, norm))
    assert plain.pivots == pivots
    for res in (plain, doubled):
        assert res.status == "optimal"
    assert (doubled.value, doubled.primal, doubled.pivots) == (
        plain.value,
        plain.primal,
        plain.pivots,
    )


def test_exact_empty_rows():
    lp = build_delsarte(5, 3)
    nv = lp.num_vars
    plain = solve_exact(lp)
    zero = (0,) * nv
    padded = solve_exact(
        _with_rows(lp, _row("Z", zero, "=", 0), _row("W", zero, ">=", -3))
    )
    assert padded == plain
    assert solve_exact(_with_rows(lp, _row("F", zero, ">=", 1))).status == "infeasible"


def test_exact_unused_variable_stays_zero():
    # x2 is in no row; with objective <= 0 it never enters the basis.
    rows = [_row("A", (1, 1, 0), "<=", 1)]
    for c in (0, -1):
        res = solve_exact(_custom([0, 1, 2], [1, 2, c], rows))
        assert res.status == "optimal" and res.value == 2
        assert res.primal == (0, 1, 0)


def test_exact_zero_level_artificial_is_driven_out():
    # max x0 on -x0 = 0: phase 1 ends with the artificial basic at zero
    # on a row with entry -1 in x0; the drive-out pivot makes x0 basic,
    # where otherwise phase 2 would call x0 unbounded.
    res = solve_exact(_custom([0], [1], [_row("A", (-1,), "=", 0)]))
    assert res.status == "optimal" and res.value == 0
    assert res.primal == (0,)


def test_exact_drive_out_after_tied_phase_one_pivot():
    # max -x0 on -x0 >= -1, -x0 = -1, 0 >= 0: x0 enters phase 1 on the
    # first row (ratio tie), leaving the equality's artificial at zero.
    rows = [
        _row("A", (-1,), ">=", -1),
        _row("B", (-1,), "=", -1),
        _row("C", (0,), ">=", 0),
    ]
    res = solve_exact(_custom([0], [-1], rows))
    assert res.status == "optimal" and res.value == -1
    assert res.primal == (1,)


@pytest.mark.parametrize("objective,value,primal", [((2, 1), 2, (0, 2)), ((1, 2), 4, (0, 2))])
def test_exact_phase_two_pivot_after_negative_drive_out(objective, value, primal):
    # On -x0 = 0, x0 + x1 <= 2 the drive-out pivots x0 in on the entry -1,
    # so the artificial leaves into x0's slot with coefficient -den; the
    # phase-2 pivot that brings x1 in then updates that slot.
    rows = [_row("A", (-1, 0), "=", 0), _row("B", (1, 1), "<=", 2)]
    res = solve_exact(_custom([0, 1], objective, rows))
    assert res.status == "optimal" and res.value == value
    assert res.primal == primal
    assert res.pivots == 2


def test_exact_largest_coefficient_ties_go_to_the_smallest_label():
    # max x0 + x1 + x2 on 2x0 + x1 <= 2, 2x0 + x1 + x2 <= 3.  The first
    # pivot puts the first row's slack in x0's slot, ahead of x1.  At the
    # third pivot their reduced costs tie; x1, the smaller label, enters
    # and ends at (0, 2, 1), where entering the slack would end at (0, 0, 3).
    rows = [_row("A", (2, 1, 0), "<=", 2), _row("B", (2, 1, 1), "<=", 3)]
    res = solve_exact(_custom([0, 1, 2], [1, 1, 1], rows))
    assert res.status == "optimal" and res.value == 3
    assert res.primal == (0, 2, 1)
    assert res.pivots == 3


def test_exact_pivot_cap_is_enforced(monkeypatch):
    # The program needs 46 pivots: a cap of 45 stops it, a cap of 46 does not.
    lp = build_hierarchy_lp(4, 1, 2, True)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 45)
    with pytest.raises(IterationLimitError, match="^pivot cap 45 exceeded$"):
        solve_exact(lp)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 46)
    res = solve_exact(lp)
    assert (res.status, res.value, res.pivots) == ("optimal", 256, 46)


def test_exact_rational_coefficients():
    # 5 x0 + 6 x1 <= 15, 2 x0 <= 3, 7 x1 >= 1, max x0 + x1: integer rows
    # with a rational optimum.  x0 earns 1/5 per unit of the first row and
    # x1 earns 1/6, so x0 goes to its bound 3/2 and x1 takes the rest:
    # x1 = 5/4, value 11/4.  Dual: y = (1/6, 1/12, 0), and
    # 15/6 + 3/12 = 11/4.
    rows = [
        _row("A", (5, 6), "<=", 15),
        _row("B", (2, 0), "<=", 3),
        _row("C", (0, 7), ">=", 1),
    ]
    res = solve_exact(_custom([0, 1], [1, 1], rows))
    assert res.status == "optimal"
    assert res.value == Fraction(11, 4)
    assert res.primal == (Fraction(3, 2), Fraction(5, 4))


def test_exact_rational_objective():
    # x0 + x1 <= 1, max 14 x0 + 9 x1: x0 = 1, value 14.
    rows = [_row("A", (1, 1), "<=", 1)]
    res = solve_exact(_custom([0, 1], [14, 9], rows))
    assert res.value == 14 and res.primal == (1, 0)


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
    # -x0 - x1 <= -2 (x0 + x1 >= 2), 2 x0 <= 3, min x0 + 2 x1:
    # x0 = 3/2, x1 = 1/2, value -5/2.
    rows = [_row("A", (-1, -1), "<=", -2), _row("B", (2, 0), "<=", 3)]
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


def _assert_dual_certifies(lp, res):
    # The returned dual, one Fraction per row, passes check_dual over a
    # common denominator, and its objective is the optimum.
    assert res.status == "optimal" and len(res.dual) == len(lp.rows)
    den = lcm(*(y.denominator for y in res.dual))
    verdict = check_dual(lp, [(i, int(y * den)) for i, y in enumerate(res.dual) if y], den)
    assert verdict.feasible and verdict.objective == res.value, (lp.kind, lp.n, lp.d)


def test_exact_dual_only_for_optima():
    unbounded = _custom([0, 1], [1, 0], [_row("X", (1, -1), ">=", 0)])
    infeasible = _custom([0], [1], [_row("F", (0,), ">=", 1)])
    for lp, status in ((unbounded, "unbounded"), (infeasible, "infeasible")):
        res = solve_exact(lp)
        assert (res.status, res.dual) == (status, None)
    assert solve_float(build_delsarte(2, 2)).dual is None


def _rule_programs():
    # 129 programs: every d <= n + 1 and both flags.
    for n in range(1, 7):
        for d in range(1, n + 2):
            yield build_delsarte(n, d)
            for linear in (False, True):
                yield build_hierarchy_lp(n, d, 1, linear)
                if n <= 4:
                    yield build_hierarchy_lp(n, d, 2, linear)
                if n <= 2:
                    for ell in (1, 2):
                        yield build_fourier_lp(n, d, ell, linear)


def test_bland_rule_from_the_first_pivot_reaches_the_same_optima(monkeypatch):
    # No program here needs DANTZIG_PIVOTS pivots, so only a zero switch
    # point runs the Bland branch that guarantees termination.
    programs = list(_rule_programs())
    assert len(programs) == 129
    dantzig = [solve_exact(lp) for lp in programs]
    for lp, res in zip(programs, dantzig):
        _assert_dual_certifies(lp, res)
    # The pivot totals pin the choice of entering column by label: Bland's
    # rule taken over slots instead changes the second total.
    assert sum(res.pivots for res in dantzig) == 572
    monkeypatch.setattr(simplex, "DANTZIG_PIVOTS", 0)
    bland = [solve_exact(lp) for lp in programs]
    for lp, got, want in zip(programs, bland, dantzig):
        assert (got.status, got.value) == (want.status, want.value), (lp.kind, lp.n, lp.d)
    assert sum(res.pivots for res in bland) == 571


def _lp_suite_programs():
    # The 99 programs soundness, collapse, subadditivity and
    # fourier-equivalence solve at their default grids.
    for n in range(1, 6):
        for d in range(1, n + 1):
            yield build_delsarte(n, d)
    for ell in (1, 2):
        for n in range(1, 6):
            for d in range(1, n + 1):
                for linear in (False, True):
                    yield build_hierarchy_lp(n, d, ell, linear)
    for ell in (1, 2):
        for n in range(1, 4):
            for d in range(1, n + 1):
                for linear in (False, True):
                    yield build_fourier_lp(n, d, ell, linear)


@pytest.mark.parametrize(
    "dantzig_pivots,pivots,digest,dual_digest",
    [
        (
            simplex.DANTZIG_PIVOTS,
            1111,
            "ac6fb3fb69b156472b070b89ef3f332a33deb89b3b66e48170b4a1ff07df5a2e",
            "76f78482a75680530132eb801d3e046e97f95ab973ab65dcbf65a140ca10af57",
        ),
        (
            0,
            1114,
            "f72bf705ee0ad77a190f47eba84d5700b3ae41b9be11730fa5de0bd763b10762",
            "aa4e2fc583d114a414c334a94b13c96f936d8c81fe5139fe0917370dda6a51d9",
        ),
    ],
    ids=["default-rule", "bland-from-the-start"],
)
def test_every_lp_suite_solve_is_pinned(monkeypatch, dantzig_pivots, pivots, digest, dual_digest):
    # One SHA-256 over each program and its status, value, pivot count and
    # primal point: a change to the tableau, the pricing or a tie-break
    # that moves any pivot on any of the 99 programs changes it.  A second
    # one over the certified duals pins how they are read off the tableau.
    monkeypatch.setattr(simplex, "DANTZIG_PIVOTS", dantzig_pivots)
    programs = list(_lp_suite_programs())
    assert len(programs) == 99
    h = hashlib.sha256()
    h_dual = hashlib.sha256()
    total = 0
    for lp in programs:
        res = solve_exact(lp)
        total += res.pivots
        h.update(lp_to_json(lp).encode() + b"\n" + res.to_json().encode() + b"\n")
        h_dual.update(" ".join(map(str, res.dual)).encode() + b"\n")
    assert (total, h.hexdigest(), h_dual.hexdigest()) == (pivots, digest, dual_digest)


@pytest.mark.parametrize(
    "n,d,ell,linear,value,pivots",
    [(6, 3, 2, False, 64, 222), (6, 2, 2, True, 1024, 167)],
    ids=["6-3-2-general", "6-2-2-linear"],
)
def test_solves_beyond_the_suite_grids_are_pinned(n, d, ell, linear, value, pivots):
    res = solve_exact(build_hierarchy_lp(n, d, ell, linear))
    assert (res.status, res.value, res.pivots) == ("optimal", value, pivots)


def test_every_pivot_leaves_each_row_primitive(monkeypatch):
    # After every pivot each row, the reduced-cost rows among them, has a
    # positive basic coefficient whose gcd with the row's entries is 1.
    real = simplex._Tableau.pivot
    pivots = []

    def checked(tab, r, c):
        real(tab, r, c)
        assert len(tab.rows) == len(tab.dens) > len(tab.basis)
        for den, row in zip(tab.dens, tab.rows):
            assert den > 0 and gcd(den, *row) == 1, (tab.pivots, row)
        pivots.append(tab.pivots)

    monkeypatch.setattr(simplex._Tableau, "pivot", checked)
    for lp in (build_hierarchy_lp(4, 1, 2, False), build_fourier_lp(3, 2, 2, False)):
        assert solve_exact(lp).status == "optimal"
    assert len(pivots) == 46 + 17


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


@pytest.mark.parametrize(
    "status,error,message",
    [
        (1, IterationLimitError, "iteration limit"),
        (4, SolverNumericsError, "floating-point solver reported: numerical trouble"),
    ],
)
def test_float_screen_raises_on_solver_trouble(monkeypatch, status, error, message):
    import scipy.optimize

    def failing(*args, **kwargs):
        return SimpleNamespace(status=status, nit=7, message="numerical trouble")

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    with pytest.raises(error, match=message):
        solve_float(build_delsarte(2, 2))


def test_exact_agrees_with_float_on_random_programs():
    # seeded random instances hit status paths our structured programs
    # never produce
    import random

    random.seed(11)
    for _ in range(120):
        nv = random.randint(1, 5)
        rows = []
        for i in range(random.randint(1, 5)):
            coeffs = tuple(random.randint(-4, 4) for _ in range(nv))
            rel = random.choice([">=", "=", "<="])
            rows.append(LPRow(f"R{i}", coeffs, rel, random.randint(-6, 6)))
        obj = tuple(random.randint(-3, 3) for _ in range(nv))
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
    # Scaled by 2**128, 2**-2000 floors to 0: the root of 0 is 0, not a
    # division by zero.
    assert root_value(Fraction(1, 2**2000), 2) == 2.0**-1000
    v = root_value(Fraction(10) ** 30, 3)
    assert abs(v - 1e10) <= 1e-5  # 1 ulp at 1e10 is ~2e-6


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_int_nthroot_is_the_floor_root(k):
    # Newton's iteration alone, with no correction loop after it.
    nthroot = simplex._int_nthroot
    for x in range(1 << 16):
        r = nthroot(x, k)
        assert r**k <= x < (r + 1) ** k
    rng = random.Random(k)
    for _ in range(300):
        r = 1 + rng.getrandbits(rng.randint(1, 600))
        assert [nthroot(x, k) for x in (r**k - 1, r**k, r**k + 1)] == [r - 1, r, r]


def test_root_value_domain_errors():
    with pytest.raises(InvalidInputError):
        root_value(Fraction(-1), 2)
    with pytest.raises(InvalidInputError):
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
