"""Exact simplex against the HiGHS screen on random small programs."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from krawlp.lp import LinearProgram, LPRow  # noqa: E402
from krawlp.simplex import solve_exact, solve_float  # noqa: E402

# Integers and small-denominator rationals of either sign.
coefficient = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 7])),
)


@st.composite
def programs(draw):
    nv = draw(st.integers(1, 4))
    rows = []
    for i in range(draw(st.integers(1, 4))):
        coeffs = tuple(draw(coefficient) for _ in range(nv))
        relation = draw(st.sampled_from([">=", "=", "<="]))
        rhs = draw(st.one_of(st.just(Fraction(0)), coefficient))
        rows.append(LPRow(f"R{i}", coeffs, relation, rhs))
    objective = tuple(draw(coefficient) for _ in range(nv))
    return _program(objective, rows)


def _program(objective, rows):
    return LinearProgram(
        kind="delsarte",
        n=1,
        d=1,
        ell=1,
        linear=None,
        var_indices=tuple(range(len(objective))),
        objective=objective,
        rows=tuple(rows),
    )


@given(programs())
def test_exact_matches_float(lp):
    exact = solve_exact(lp)
    screened = solve_float(lp)
    if exact.status == "unbounded" and screened.status == "infeasible":
        # HiGHS can report an unbounded program as infeasible.  Unbounded
        # implies feasible, so both solvers must find the zero objective
        # feasible.
        zero = _program(tuple(Fraction(0) for _ in lp.objective), lp.rows)
        assert solve_exact(zero).status == "optimal"
        assert solve_float(zero).status == "optimal"
        return
    assert exact.status == screened.status
    if exact.status == "optimal":
        assert abs(float(exact.value) - screened.value) <= 1e-6 * max(
            1.0, abs(screened.value)
        )
