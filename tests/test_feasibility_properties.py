"""Integer-count feasibility checks against a plain-Fraction reference."""

from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from krawlp.configs import enumerate_configs  # noqa: E402
from krawlp.lp import CodeProfile, LinearProgram, LPRow, check_feasibility  # noqa: E402

N, ELL = 2, 2
CONFIGS = enumerate_configs(N, ELL)
STATUSES = {"feasible", "distance-violation", "bound-violation", "row-violation"}

integral = st.integers(-4, 4)
# Wide enough for a rhs to land on, just beside or far from a lhs.
wide = st.integers(-60, 60)


@st.composite
def cases(draw):
    keep = draw(
        st.lists(st.integers(0, len(CONFIGS) - 1), min_size=1, max_size=len(CONFIGS), unique=True)
    )
    coefficient = draw(st.sampled_from([integral, wide]))
    rows = tuple(
        LPRow(
            f"R{i}",
            tuple(draw(coefficient) for _ in keep),
            draw(st.sampled_from([">=", "=", "<="])),
            draw(wide),
        )
        for i in range(draw(st.integers(0, 3)))
    )
    objective = tuple(draw(coefficient) for _ in keep)
    lp = LinearProgram("krawtchouk", N, 1, ELL, False, tuple(keep), objective, rows)
    counts = draw(
        st.dictionaries(st.integers(0, len(CONFIGS) - 1), st.integers(-2, 12), max_size=5)
    )
    return lp, CodeProfile(N, ELL, 1, counts, draw(st.integers(1, 12)))


def reference(lp, point):
    # The Fraction summation the integer check replaced, entry by entry;
    # an eliminated configuration is named lowest index first.
    pos = {g: i for i, g in enumerate(lp.var_indices)}
    support = []
    for g, count in sorted(point.counts.items()):
        val = Fraction(count, point.denom)
        slot = pos.get(g)
        if slot is None:
            if val != 0:
                detail = f"eliminated configuration {CONFIGS[g].entries} has mass {val}"
                return False, "distance-violation", detail, None
        else:
            support.append((slot, val))
    support.sort()
    for i, v in support:
        if v < 0:
            return False, "bound-violation", f"variable {lp.variable_names[i]} = {v} < 0", None
    objective = sum((lp.objective[i] * v for i, v in support), Fraction(0))
    for row in lp.rows:
        lhs = sum((row.coeffs[i] * v for i, v in support), Fraction(0))
        holds = {
            "=": lhs == row.rhs,
            ">=": lhs >= row.rhs,
            "<=": lhs <= row.rhs,
        }[row.relation]
        if not holds:
            detail = f"row {row.name}: lhs {lhs} {row.relation} {row.rhs} fails"
            return False, "row-violation", detail, objective
    return True, "feasible", None, objective


def test_integer_feasibility_matches_fraction_reference():
    seen = Counter()

    @given(cases())
    def check(case):
        lp, prof = case
        verdict = check_feasibility(lp, prof)
        got = (verdict.feasible, verdict.status, verdict.detail, verdict.objective)
        assert got == reference(lp, prof)
        seen[verdict.status] += 1

    check()
    assert set(seen) == STATUSES, seen
