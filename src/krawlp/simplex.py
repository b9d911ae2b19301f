"""Exact and floating-point linear program solvers.

The exact path is a two-phase primal simplex with every tableau entry a
`fractions.Fraction`.  The pivot rule is largest-coefficient for a bounded
number of pivots, then Bland's rule, so termination is guaranteed.  Every
optimal answer is re-verified before it is returned: the primal point is
checked against all original rows, and a dual vector recovered from the
final tableau must be dual-feasible with matching objective value.  A
failed re-verification raises instead of returning a wrong answer.

The floating-point path wraps scipy's HiGHS solver and is only a fast
screen; its results carry ``exact=False`` and are never used alone to
decide an identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IterationLimitError,
    ParameterError,
    SelfCheckError,
    SolverNumericsError,
)
from .lp import LinearProgram

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_PIVOTS = 200_000
DANTZIG_PIVOTS = 2_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    For exact solves ``value``/``primal`` are rationals and the point
    satisfies every row exactly; for float solves they are floats and
    ``exact`` is False.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | float | None
    primal: tuple | None
    pivots: int
    exact: bool

    def to_json(self) -> str:
        def num(x):
            if x is None:
                return None
            if isinstance(x, Fraction):
                return str(x)
            return float(x)

        payload = {
            "status": self.status,
            "value": num(self.value),
            "primal": None if self.primal is None else [num(v) for v in self.primal],
            "pivots": self.pivots,
            "exact": self.exact,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Exact two-phase simplex
# ---------------------------------------------------------------------------


class _Tableau:
    def __init__(self, rows, b, basis, ncols):
        self.rows = rows          # list[list[Fraction]], constraint rows
        self.b = b                # list[Fraction]
        self.basis = basis        # basic variable (column) per row
        self.ncols = ncols
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        rows, b = self.rows, self.b
        prow = rows[r]
        piv = prow[c]
        inv = 1 / piv
        for j in range(self.ncols):
            prow[j] *= inv
        b[r] *= inv
        prow[c] = ONE
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                for j in range(self.ncols):
                    if prow[j]:
                        row[j] -= f * prow[j]
                row[c] = ZERO
                b[i] -= f * b[r]
        self.basis[r] = c
        self.pivots += 1


def _objective_row(tab: _Tableau, cost):
    # Reduced costs z_j - c_j and current objective value for the basis.
    obj = [-cj for cj in cost]
    val = ZERO
    for i, bi in enumerate(tab.basis):
        cb = cost[bi]
        if cb:
            row = tab.rows[i]
            for j in range(tab.ncols):
                if row[j]:
                    obj[j] += cb * row[j]
            val += cb * tab.b[i]
    return obj, val


def _run_phase(tab, obj, allowed):
    # Pivot until optimal (all reduced costs >= 0) or unbounded.
    while True:
        enter = -1
        if tab.pivots < DANTZIG_PIVOTS:
            best = ZERO
            for j in range(tab.ncols):
                if allowed[j] and obj[j] < best:
                    best = obj[j]
                    enter = j
        else:
            for j in range(tab.ncols):
                if allowed[j] and obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = None
        for i, row in enumerate(tab.rows):
            a = row[enter]
            if a > 0:
                ratio = tab.b[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and tab.basis[i] < tab.basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        if tab.pivots >= MAX_PIVOTS:
            raise IterationLimitError(f"pivot cap {MAX_PIVOTS} exceeded")
        delta_obj = obj[enter]
        tab.pivot(leave, enter)
        # The pivot row is normalized now, so the reduced-cost update is
        # r <- r - r_enter * (normalized pivot row).
        prow = tab.rows[leave]
        for j in range(tab.ncols):
            if prow[j]:
                obj[j] -= delta_obj * prow[j]
        obj[enter] = ZERO


def solve_exact(lp: LinearProgram) -> SolveResult:
    """Exact rational optimum of a maximization LP with x >= 0.

    The pivot rule is fixed: largest coefficient for the first
    ``DANTZIG_PIVOTS`` pivots, then Bland's rule.  More than ``MAX_PIVOTS``
    pivots over both phases raise ``IterationLimitError``.
    """
    nv = lp.num_vars
    objective = list(lp.objective)

    # Presolve: empty rows go away (after a consistency check); variables
    # that appear in no row are pinned at 0, with profitable ones flagged
    # for the unboundedness verdict below.
    used = [False] * nv
    norm_rows = []  # (coeffs, relation, rhs) with every row kept exact
    for row in lp.rows:
        if any(row.coeffs):
            norm_rows.append((list(row.coeffs), row.relation, row.rhs))
            for j, c in enumerate(row.coeffs):
                if c:
                    used[j] = True
        elif not row.holds(ZERO):
            return SolveResult("infeasible", None, None, 0, True)
    keep_cols = [j for j in range(nv) if used[j]]
    # A variable outside every row can grow freely, but that only makes the
    # program unbounded if the rest is feasible; decide after phase 1.
    free_profit = any(not used[j] and objective[j] > 0 for j in range(nv))

    # Normalize to b >= 0 (flip >= to <= and vice versa when negating).
    rows = []
    for coeffs, rel, rhs in norm_rows:
        cs = [coeffs[j] for j in keep_cols]
        if rhs < 0:
            cs = [-c for c in cs]
            rhs = -rhs
            rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
        rows.append((cs, rel, rhs))

    ns = len(keep_cols)
    m = len(rows)
    # Column layout: structural | slack/surplus (one per inequality) | artificial.
    slack_col = [None] * m
    art_col = [None] * m
    ncols = ns
    for i, (_, rel, _) in enumerate(rows):
        if rel in ("<=", ">="):
            slack_col[i] = ncols
            ncols += 1
    art_start = ncols
    for i, (_, rel, _) in enumerate(rows):
        if rel in (">=", "="):
            art_col[i] = ncols
            ncols += 1

    T = []
    b = []
    basis = []
    for i, (cs, rel, rhs) in enumerate(rows):
        row = [ZERO] * ncols
        for k, c in enumerate(cs):
            row[k] = Fraction(c)
        if slack_col[i] is not None:
            row[slack_col[i]] = ONE if rel == "<=" else -ONE
        if art_col[i] is not None:
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        T.append(row)
        b.append(Fraction(rhs))
    tab = _Tableau(T, b, basis, ncols)

    # Phase 1: drive the artificials to zero.
    have_art = any(c is not None for c in art_col)
    row_deleted = [False] * m
    if have_art:
        cost1 = [ZERO] * ncols
        for c in art_col:
            if c is not None:
                cost1[c] = -ONE
        obj1, _ = _objective_row(tab, cost1)
        allowed = [True] * ncols
        status = _run_phase(tab, obj1, allowed)
        if status != "optimal":
            raise SelfCheckError("phase 1 cannot be unbounded")
        art_set = set(c for c in art_col if c is not None)
        if any(tab.b[i] != 0 for i in range(m) if tab.basis[i] in art_set):
            return SolveResult("infeasible", None, None, tab.pivots, True)
        # Pivot remaining zero-level artificials out, or mark rows redundant.
        for i in range(m):
            if tab.basis[i] in art_set:
                target = -1
                for j in range(art_start):
                    if tab.rows[i][j]:
                        target = j
                        break
                if target >= 0:
                    tab.pivot(i, target)
                else:
                    row_deleted[i] = True

    if free_profit:
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # Phase 2 on the real objective; artificial columns may not re-enter.
    cost2 = [ZERO] * ncols
    for k, j in enumerate(keep_cols):
        cost2[k] = objective[j]
    obj2, _ = _objective_row(tab, cost2)
    allowed = [j < art_start for j in range(ncols)]
    live_rows = [i for i in range(m) if not row_deleted[i]]
    if len(live_rows) != m:
        # Rebuild the tableau without redundant rows.
        tab = _Tableau(
            [tab.rows[i] for i in live_rows],
            [tab.b[i] for i in live_rows],
            [tab.basis[i] for i in live_rows],
            ncols,
        )
        obj2, _ = _objective_row(tab, cost2)
    status = _run_phase(tab, obj2, allowed)
    if status == "unbounded":
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # Extract the primal point in original variable space.
    x = [ZERO] * nv
    for i, bi in enumerate(tab.basis):
        if bi < ns:
            x[keep_cols[bi]] = tab.b[i]
    value = sum((c * v for c, v in zip(lp.objective, x)), ZERO)

    # Re-verification: primal feasibility against the original rows ...
    for row in lp.rows:
        lhs = sum((c * v for c, v in zip(row.coeffs, x)), ZERO)
        if not row.holds(lhs):
            raise SelfCheckError(f"optimal point violates row {row.name}")
    if any(v < 0 for v in x):
        raise SelfCheckError("optimal point violates a variable bound")

    # ... and optimality through the dual recovered from reduced costs.
    obj_final, _ = _objective_row(tab, cost2)
    y = [ZERO] * m
    for i in range(m):
        if row_deleted[i]:
            continue
        if slack_col[i] is not None:
            red = obj_final[slack_col[i]]
            y[i] = red if rows[i][1] == "<=" else -red
        else:
            y[i] = obj_final[art_col[i]]
    for k in range(ns):
        covered = sum((y[i] * rows[i][0][k] for i in range(m)), ZERO)
        if covered < cost2[k]:
            raise SelfCheckError("dual certificate fails dual feasibility")
    for i in range(m):
        if rows[i][1] == "<=" and y[i] < 0:
            raise SelfCheckError("dual certificate has a wrong sign")
        if rows[i][1] == ">=" and y[i] > 0:
            raise SelfCheckError("dual certificate has a wrong sign")
    dual_value = sum((y[i] * rows[i][2] for i in range(m)), ZERO)
    if dual_value != value:
        raise SelfCheckError("strong duality does not close; result discarded")

    return SolveResult("optimal", value, tuple(x), tab.pivots, True)


# ---------------------------------------------------------------------------
# Floating-point screen
# ---------------------------------------------------------------------------


def solve_float(
    lp: LinearProgram, feas_tol: float = 1e-9, opt_tol: float = 1e-9
) -> SolveResult:
    """Fast floating-point solve (HiGHS); results carry ``exact=False``."""
    import numpy as np
    from scipy.optimize import linprog

    nv = lp.num_vars
    c = np.array([-float(v) for v in lp.objective])
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in lp.rows:
        coeffs = [float(v) for v in row.coeffs]
        rhs = float(row.rhs)
        if row.relation == "=":
            a_eq.append(coeffs)
            b_eq.append(rhs)
        elif row.relation == ">=":
            a_ub.append([-v for v in coeffs])
            b_ub.append(-rhs)
        else:
            a_ub.append(coeffs)
            b_ub.append(rhs)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": feas_tol,
            "dual_feasibility_tolerance": opt_tol,
        },
    )
    pivots = int(res.nit) if res.nit is not None else 0
    if res.status == 0:
        return SolveResult("optimal", -float(res.fun), tuple(float(v) for v in res.x), pivots, False)
    if res.status == 2:
        return SolveResult("infeasible", None, None, pivots, False)
    if res.status == 3:
        return SolveResult("unbounded", None, None, pivots, False)
    if res.status == 1:
        raise IterationLimitError("floating-point solver hit its iteration limit")
    raise SolverNumericsError(f"floating-point solver reported: {res.message}")


# ---------------------------------------------------------------------------
# Roots of LP values
# ---------------------------------------------------------------------------


def _int_nthroot(x: int, k: int) -> int:
    """Floor k-th root of a non-negative integer."""
    if x < 0:
        raise ParameterError("negative radicand")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    r = 1 << (x.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def root_value(value: Fraction | int, ell: int) -> float:
    """value**(1/l) as a float within 1 ulp of the exact real root."""
    if ell < 1:
        raise ParameterError("root order must be >= 1")
    frac = Fraction(value)
    if frac < 0:
        raise ParameterError("negative values have no real root here")
    if frac == 0:
        return 0.0
    if ell == 1:
        return float(frac)
    shift = 64
    while True:
        scaled = (frac.numerator << (ell * shift)) // frac.denominator
        r = _int_nthroot(scaled, ell)
        if r.bit_length() >= 60:
            return float(Fraction(r, 1 << shift))
        shift += 64
