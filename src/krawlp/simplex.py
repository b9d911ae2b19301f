"""Exact and floating-point linear program solvers.

The exact path is a two-phase primal simplex over a fraction-free integer
tableau: each row is scaled to integers once, the tableau keeps one common
denominator (the previous pivot), and every update is an exact integer
division (Bareiss elimination), so no `fractions.Fraction` is formed while
pivoting.  Rows ``>= 0`` are negated to ``<= 0`` first, so their slacks
start basic and phase 1 needs artificials only for ``=`` rows and for
``>=`` rows with a positive rhs.
The pivot rule is largest-coefficient for a bounded number of pivots, then
Bland's rule, so termination is guaranteed.  Every optimal answer is
certified in exact arithmetic against the program's own rows before it
is returned: the primal point (integers over the tableau denominator) is
checked against every row and bound, and a dual vector recovered from the
final reduced costs (integers over that denominator times the objective
scale) must be dual-feasible, correctly signed and of matching objective
value.  A failed check raises instead of returning a wrong answer.

The floating-point path wraps scipy's HiGHS solver and is only a fast
screen; its results carry ``exact=False`` and are never used alone to
decide an identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    IterationLimitError,
    ParameterError,
    SelfCheckError,
    SolverNumericsError,
)
from .configs import _gather
from .lp import LinearProgram, integer_form

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
    """Fraction-free tableau: the true tableau is ``rows / den``.

    Each row holds integer coefficients with its rhs as the last entry.
    A pivot on entry p = rows[r][c] replaces every other row by
    ``(p*row - row[c]*rows[r]) // den`` and sets ``den = p`` (Bareiss
    elimination); every entry stays den times a basis-system minor, so
    the divisions are exact and ``den`` stays positive.
    """

    def __init__(self, rows, basis):
        self.rows = rows      # list[list[int]], constraint rows with rhs last
        self.basis = basis    # basic variable (column) per row
        self.den = 1
        self.pivots = 0

    def pivot(self, r: int, c: int, obj=None) -> None:
        """Pivot on (r, c), carrying the reduced-cost row ``obj`` along."""
        rows, den = self.rows, self.den
        prow = rows[r]
        p = prow[c]
        if p < 0:
            # Only a zero-level artificial leaves on a negative entry;
            # negating the pivot row first keeps every eliminated row's
            # sign and makes den positive.
            prow = rows[r] = [-a for a in prow]
            p = -p
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, p, c, den)
        if obj is not None:
            obj[:] = _eliminate(obj, prow, p, c, den)
        self.den = p
        self.basis[r] = c
        self.pivots += 1


def _eliminate(row, prow, p, c, den):
    f = row[c]
    if f:
        return [(p * a - f * q) // den for a, q in zip(row, prow)]
    if p == den:
        return row
    return [p * a // den for a in row]


def _objective_row(tab: _Tableau, cost):
    # den times the reduced costs z_j - c_j of the integer costs ``cost``,
    # with den times the objective value in the rhs slot.
    den = tab.den
    obj = [-den * cj for cj in cost] + [0]
    for i, bi in enumerate(tab.basis):
        cb = cost[bi]
        if cb:
            obj = [o + cb * a for o, a in zip(obj, tab.rows[i])]
    return obj


def _run_phase(tab, obj, allowed):
    # Pivot until optimal (all reduced costs >= 0) or unbounded.  Every
    # reduced cost and every ratio shares the denominator den, so costs
    # compare directly and ratios b_i / a_i by cross-multiplying.
    ncols = len(allowed)
    while True:
        enter = -1
        if tab.pivots < DANTZIG_PIVOTS:
            best = 0
            for j in range(ncols):
                if allowed[j] and obj[j] < best:
                    best = obj[j]
                    enter = j
        else:
            for j in range(ncols):
                if allowed[j] and obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal"
        leave = -1
        best_b = best_a = 0
        for i, row in enumerate(tab.rows):
            a = row[enter]
            if a > 0:
                lhs, rhs = row[-1] * best_a, best_b * a
                if (
                    leave < 0
                    or lhs < rhs
                    or (lhs == rhs and tab.basis[i] < tab.basis[leave])
                ):
                    best_b, best_a = row[-1], a
                    leave = i
        if leave < 0:
            return "unbounded"
        if tab.pivots >= MAX_PIVOTS:
            raise IterationLimitError(f"pivot cap {MAX_PIVOTS} exceeded")
        tab.pivot(leave, enter, obj)


def solve_exact(lp: LinearProgram) -> SolveResult:
    """Exact rational optimum of a maximization LP with x >= 0.

    Rows are normalized to a non-negative rhs, and a ``>=`` row with rhs 0
    is negated into a ``<= 0`` row, so its slack starts basic and feasible;
    phase 1 runs only if an ``=`` row or a ``>=`` row with positive rhs
    remains.  Each row goes through ``integer_form`` straight into an
    integer tableau with one common denominator (see ``_Tableau``), so no
    ``Fraction`` is formed until the optimum is read off.  The reported
    pivot count covers both phases.

    The pivot rule is fixed: largest coefficient for the first
    ``DANTZIG_PIVOTS`` pivots, then Bland's rule.  More than ``MAX_PIVOTS``
    pivots over both phases raise ``IterationLimitError``.  The primal
    point (integers over the tableau denominator ``den``) and a dual
    vector read from the final reduced costs (integers over ``den * L``,
    L the objective's integer scale) are checked against ``lp.rows`` and
    ``lp.objective`` themselves before returning.
    """
    nv = lp.num_vars

    # Presolve: empty rows go away (after a consistency check); variables
    # that appear in no row are pinned at 0, with profitable ones flagged
    # for the unboundedness verdict below.  Every other row is normalized
    # to b >= 0 by a sign (flip >= to <= and vice versa when negating);
    # a ">= 0" row becomes "<= 0" so its slack is a feasible basic variable.
    used = [False] * nv
    norm = []  # (index into lp.rows, sign) per tableau row
    rels = []  # the normalized relation per tableau row
    for i, row in enumerate(lp.rows):
        if any(row.coeffs):
            for j, c in enumerate(row.coeffs):
                if c:
                    used[j] = True
            rel = row.relation
            sign = -1 if row.rhs < 0 or (row.rhs == 0 and rel == ">=") else 1
            norm.append((i, sign))
            rels.append(rel if sign > 0 else {">=": "<=", "<=": ">=", "=": "="}[rel])
        elif not row.holds(0):
            return SolveResult("infeasible", None, None, 0, True)
    keep_cols = [j for j in range(nv) if used[j]]
    # A variable outside every row can grow freely, but that only makes the
    # program unbounded if the rest is feasible; decide after phase 1.
    free_profit = any(not used[j] and lp.objective[j] > 0 for j in range(nv))

    ns = len(keep_cols)
    m = len(norm)
    # Column layout: structural | slack/surplus (one per inequality) | artificial.
    slack_col = [None] * m
    art_col = [None] * m
    ncols = ns
    for k, rel in enumerate(rels):
        if rel in ("<=", ">="):
            slack_col[k] = ncols
            ncols += 1
    art_start = ncols
    for k, rel in enumerate(rels):
        if rel in (">=", "="):
            art_col[k] = ncols
            ncols += 1

    # Each row times its integer scale, rhs included, is integer.
    scale = []
    T = []
    basis = []
    for k, (i, sign) in enumerate(norm):
        row = lp.rows[i]
        ints, s = integer_form(row.coeffs + (row.rhs,))
        scale.append(s)
        trow = [sign * ints[j] for j in keep_cols]
        trow += [0] * (ncols - ns)
        trow.append(sign * ints[-1])
        if slack_col[k] is not None:
            trow[slack_col[k]] = 1 if rels[k] == "<=" else -1
        if art_col[k] is not None:
            trow[art_col[k]] = 1
            basis.append(art_col[k])
        else:
            basis.append(slack_col[k])
        T.append(trow)
    tab = _Tableau(T, basis)

    # Phase 1: drive the artificials to zero.
    have_art = any(c is not None for c in art_col)
    row_deleted = [False] * m
    if have_art:
        cost1 = [0] * ncols
        for c in art_col:
            if c is not None:
                cost1[c] = -1
        status = _run_phase(tab, _objective_row(tab, cost1), [True] * ncols)
        if status != "optimal":
            raise SelfCheckError("phase 1 cannot be unbounded")
        art_set = set(c for c in art_col if c is not None)
        if any(tab.rows[i][-1] != 0 for i in range(m) if tab.basis[i] in art_set):
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

    # Drop redundant rows in place, so the pivot count carries over.
    live_rows = [i for i in range(m) if not row_deleted[i]]
    if len(live_rows) != m:
        tab.rows = [tab.rows[i] for i in live_rows]
        tab.basis = [tab.basis[i] for i in live_rows]

    # Phase 2 on the real objective, scaled by L to integers; artificial
    # columns may not re-enter.
    cost, cost_scale = integer_form([lp.objective[j] for j in keep_cols])
    obj2 = _objective_row(tab, cost + [0] * (ncols - ns))
    status = _run_phase(tab, obj2, [j < art_start for j in range(ncols)])
    if status == "unbounded":
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # The primal point in original variable space is x = xnum / den.
    den = tab.den
    xnum = [0] * nv
    for row, bi in zip(tab.rows, tab.basis):
        if bi < ns:
            xnum[keep_cols[bi]] = row[-1]
    value_num = sum(map(mul, lp.objective, xnum))
    value = Fraction(value_num, den)

    # Certificate, in exact arithmetic against the program's own rows.
    # Primal feasibility over the support of x ...
    support = [j for j in range(nv) if xnum[j]]
    pick = _gather(support)
    xs = pick(xnum)
    for row in lp.rows:
        lhs = Fraction(sum(map(mul, pick(row.coeffs), xs)), den)
        if not row.holds(lhs):
            raise SelfCheckError(f"optimal point violates row {row.name}")
    if any(v < 0 for v in xnum):
        raise SelfCheckError("optimal point violates a variable bound")

    # ... and optimality through the dual y = ynum / (den * L), read from
    # the final reduced costs, rescaled by each row's integer scale and
    # signed back to the row as lp.rows states it.
    ynum = [0] * len(lp.rows)
    for k, (i, sign) in enumerate(norm):
        if row_deleted[k]:
            continue
        if slack_col[k] is not None:
            red = obj2[slack_col[k]]
            if rels[k] == ">=":
                red = -red
        else:
            red = obj2[art_col[k]]
        ynum[i] = sign * red * scale[k]
    dual_scale = den * cost_scale
    covered = [0] * nv
    for yi, row in zip(ynum, lp.rows):
        if yi:
            covered = [a + yi * c for a, c in zip(covered, row.coeffs)]
    if any(a < c * dual_scale for a, c in zip(covered, lp.objective)):
        raise SelfCheckError("dual certificate fails dual feasibility")
    for yi, row in zip(ynum, lp.rows):
        if (row.relation == "<=" and yi < 0) or (row.relation == ">=" and yi > 0):
            raise SelfCheckError("dual certificate has a wrong sign")
    dual_num = sum(yi * row.rhs for yi, row in zip(ynum, lp.rows))
    if dual_num != value_num * cost_scale:
        raise SelfCheckError("strong duality does not close; result discarded")

    primal = tuple(Fraction(v, den) for v in xnum)
    return SolveResult("optimal", value, primal, tab.pivots, True)


# ---------------------------------------------------------------------------
# Floating-point screen
# ---------------------------------------------------------------------------


def solve_float(lp: LinearProgram) -> SolveResult:
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
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
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
