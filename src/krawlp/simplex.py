"""Exact and floating-point linear program solvers.

The exact path is a two-phase primal simplex over a fraction-free integer
tableau: each row is scaled to integers once, the tableau keeps one common
denominator (the previous pivot), and every update is an exact integer
division (Bareiss elimination), so no `fractions.Fraction` is formed while
pivoting.  The tableau is the program as given: column j is variable j,
and each row is one tableau row, made rhs >= 0 by a sign; there is no
other presolve.  Rows ``>= 0`` are negated to ``<= 0``, so their slacks
start basic and phase 1 needs artificials only for ``=`` rows and for
``>=`` rows with a positive rhs.
The pivot rule is largest-coefficient for a bounded number of pivots, then
Bland's rule, so termination is guaranteed.  ``integer_form`` serves only
to build the tableau and the objective.  This module only pivots and
reads x and y; ``lp`` states what certifies them.  Every optimal answer
passes ``lp.check_point`` on x and ``lp.check_dual`` on y, both exact
against the program's own rows, with equal objectives.  Each row's dual
value is read one way: the final reduced cost of the row's starting
basic column (its ``<=`` slack or its artificial), times the row's sign
and integer scale.  A failed check raises instead of returning a wrong
answer.

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
from .lp import LinearProgram, check_dual, check_point, integer_form

MAX_PIVOTS = 200_000
DANTZIG_PIVOTS = 2_000


def format_value(value: Fraction | float | None, decimal: bool = False):
    """A value for a JSON record: a fraction string, or a float if inexact or ``decimal``."""
    if value is None:
        return None
    if isinstance(value, Fraction) and not decimal:
        return str(value)
    return float(value)


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
        payload = {
            "status": self.status,
            "value": format_value(self.value),
            "primal": None if self.primal is None else [format_value(v) for v in self.primal],
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


def _run_phase(tab, obj, ncols):
    # Pivot until optimal (all reduced costs >= 0) or unbounded; only the
    # first ncols columns may enter.  Every reduced cost and every ratio
    # shares the denominator den, so costs compare directly and ratios
    # b_i / a_i by cross-multiplying.
    while True:
        enter = -1
        if tab.pivots < DANTZIG_PIVOTS:
            best = 0
            for j in range(ncols):
                if obj[j] < best:
                    best = obj[j]
                    enter = j
        else:
            for j in range(ncols):
                if obj[j] < 0:
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

    The tableau is the program as given: column j is variable j, and each
    row of ``lp.rows`` is one tableau row, normalized to a non-negative rhs
    by a sign.  A ``>=`` row with rhs 0 is negated into a ``<= 0`` row, so
    its slack starts basic and feasible; phase 1 runs only if an ``=`` row
    or a ``>=`` row with positive rhs remains.  There is no other presolve.
    Each row goes through ``integer_form`` straight into an integer tableau
    with one common denominator (see ``_Tableau``), so no ``Fraction`` is
    formed until the optimum is read off.  The reported pivot count covers
    both phases.

    The pivot rule is fixed: largest coefficient for the first
    ``DANTZIG_PIVOTS`` pivots, then Bland's rule.  More than ``MAX_PIVOTS``
    pivots over both phases raise ``IterationLimitError``.  Every row
    starts with one +1 basic column, its ``<=`` slack or its artificial;
    the dual value of the row is the final reduced cost of that column
    times the row's sign and integer scale.  The certificate is
    ``check_point`` on the primal point, over the tableau denominator
    ``den``, and ``check_dual`` on the dual, over ``den * L`` with L the
    objective's integer scale; both read ``lp.rows`` and ``lp.objective``
    themselves, and their objectives must agree.  The reported value is
    that objective.
    """
    nv = lp.num_vars

    # Normalize each row to b >= 0 by a sign (flip >= to <= and vice versa
    # when negating); a ">= 0" row becomes "<= 0" so its slack is feasible.
    signs = []
    rels = []
    for row in lp.rows:
        rel = row.relation
        sign = -1 if row.rhs < 0 or (row.rhs == 0 and rel == ">=") else 1
        signs.append(sign)
        rels.append(rel if sign > 0 else {">=": "<=", "<=": ">=", "=": "="}[rel])

    # Column layout: variables | slack/surplus (one per inequality) |
    # artificial (one per "=" and ">=" row).  Each row's +1 column (its
    # "<=" slack or its artificial) starts basic.
    art_start = nv + sum(rel != "=" for rel in rels)
    ncols = art_start + sum(rel != "<=" for rel in rels)
    slack, art = nv, art_start
    scale = []  # each row times its integer scale, rhs included, is integer
    T = []
    unit = []
    for row, sign, rel in zip(lp.rows, signs, rels):
        ints, s = integer_form(row.coeffs + (row.rhs,))
        scale.append(s)
        trow = [sign * a for a in ints]
        trow[nv:nv] = [0] * (ncols - nv)
        if rel != "=":
            trow[slack] = 1 if rel == "<=" else -1
            slack += 1
        if rel != "<=":
            trow[art] = 1
            art += 1
        unit.append(slack - 1 if rel == "<=" else art - 1)
        T.append(trow)
    tab = _Tableau(T, list(unit))

    # Phase 1: drive the artificials to zero, then pivot each zero-level
    # artificial out on a non-artificial entry of its row.  One whose row
    # has none stays basic: that row is zero in every column phase 2 may
    # pivot on, so it never leaves the basis and adds 0 to the objective.
    if art_start < ncols:
        cost1 = [0] * art_start + [-1] * (ncols - art_start)
        status = _run_phase(tab, _objective_row(tab, cost1), ncols)
        if status != "optimal":
            raise SelfCheckError("phase 1 cannot be unbounded")
        if any(row[-1] for row, bi in zip(tab.rows, tab.basis) if bi >= art_start):
            return SolveResult("infeasible", None, None, tab.pivots, True)
        for i, bi in enumerate(tab.basis):
            if bi >= art_start:
                row = tab.rows[i]
                target = next((j for j in range(art_start) if row[j]), -1)
                if target >= 0:
                    tab.pivot(i, target)

    # Phase 2 on the real objective, scaled by L to integers; artificial
    # columns may not re-enter.
    cost, cost_scale = integer_form(lp.objective)
    obj2 = _objective_row(tab, cost + [0] * (ncols - nv))
    status = _run_phase(tab, obj2, art_start)
    if status == "unbounded":
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # Certificate: x = xnum / den, and y = ynum / (den * L) from the final
    # reduced cost of each row's +1 column, rescaled by the row's integer
    # scale and signed back to the row as lp.rows states it.
    den = tab.den
    xnum = [0] * nv
    for row, bi in zip(tab.rows, tab.basis):
        if bi < nv:
            xnum[bi] = row[-1]
    ynum = [sign * obj2[u] * s for sign, u, s in zip(signs, unit, scale)]
    point = check_point(lp, [(j, v) for j, v in enumerate(xnum) if v], den)
    if not point.feasible:
        raise SelfCheckError(f"optimal point violates {point.detail}")
    dual = check_dual(lp, [(i, v) for i, v in enumerate(ynum) if v], den * cost_scale)
    if not dual.feasible:
        raise SelfCheckError(f"dual certificate fails: {dual.detail}")
    if dual.objective != point.objective:
        raise SelfCheckError("strong duality does not close; result discarded")

    primal = tuple(Fraction(v, den) for v in xnum)
    return SolveResult("optimal", point.objective, primal, tab.pivots, True)


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
