"""Exact and floating-point linear program solvers.

The exact path is a two-phase primal simplex over a condensed
fraction-free integer tableau: each row is scaled to integers once, the
tableau keeps one common denominator (the previous pivot), and every
update is an exact integer division (Bareiss elimination), so no
`fractions.Fraction` is formed while pivoting.  The columns are the
program's variables, then its slacks and artificials; the tableau stores
only the nonbasic ones, one slot each, since a basic column is den times
a unit vector (integer pivoting as in Avis's ``lrs``).  One pass over
the program's rows builds the tableau, each row made rhs >= 0 by a sign
folded into its integer scale, so a ``>= 0`` row becomes ``<= 0`` with
its slack basic; there is no other presolve.  One pricing loop serves
both pivot rules: largest coefficient for a bounded number of pivots,
then Bland's rule, so termination is guaranteed; both choose by column
label, never by slot.  ``integer_form`` serves only to build the tableau
and the objective.  This module only pivots and reads x and y; ``lp``
states what certifies them.  Every optimal answer passes
``lp.check_point`` on x and ``lp.check_dual`` on y, both exact against
the program's own rows, with equal objectives.  Each row's dual value is
read one way: the final reduced cost of the row's starting basic column
(its ``<=`` slack or its artificial; 0 if that column ends basic), times
the row's signed integer scale.  A failed check raises instead of
returning a wrong answer.

The floating-point path wraps scipy's HiGHS solver and is only a fast
screen; its results carry ``exact=False`` and are never used alone to
decide an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IterationLimitError,
    ParameterError,
    SelfCheckError,
    SolverNumericsError,
    canonical_json,
    require_int,
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
        return canonical_json(payload)


# ---------------------------------------------------------------------------
# Exact two-phase simplex
# ---------------------------------------------------------------------------


class _Tableau:
    """Condensed fraction-free tableau over the nonbasic columns only.

    Row i reads ``den*x[basis[i]] + sum_k rows[i][k]*x[nonbasic[k]] =
    rows[i][-1]``: the basic columns, which are den times a unit vector,
    are not stored, and ``nonbasic[k]`` is the column label of slot k.
    A pivot on entry p = rows[r][c] swaps ``basis[r]`` and
    ``nonbasic[c]``.  Row r keeps its entries and gets s = den in slot c,
    the leaving column's coefficient (-den if the row was negated to make
    p positive).  Every other row, and the reduced-cost row, gets the
    Bareiss update ``(p*a - f*q) // den`` with f its slot-c entry, which
    leaves ``-f*s // den`` in slot c; then ``den = p``.  These are the
    entries of the full Bareiss tableau (every one den times a
    basis-system minor), so the divisions are exact, ``den`` stays
    positive, and the pivots are those of the full tableau.
    """

    def __init__(self, rows, basis, nonbasic):
        self.rows = rows          # list[list[int]], one entry per slot, rhs last
        self.basis = basis        # basic column label per row
        self.nonbasic = nonbasic  # column label per slot
        self.den = 1
        self.pivots = 0

    def pivot(self, r: int, c: int, obj=None) -> None:
        """Pivot on (r, c), carrying the reduced-cost row ``obj`` along."""
        rows, den = self.rows, self.den
        prow = rows[r]
        p = prow[c]
        s = den
        if p < 0:
            # Only a zero-level artificial leaves on a negative entry;
            # negating the pivot row first keeps every eliminated row's
            # sign and makes den positive.
            prow = rows[r] = [-a for a in prow]
            p, s = -p, -den
        # With q = p + s in slot c, (p*f - f*q) // den is -f*s // den.
        prow[c] = p + s
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, p, c, den)
        if obj is not None:
            obj[:] = _eliminate(obj, prow, p, c, den)
        prow[c] = s
        self.den = p
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]
        self.pivots += 1


def _eliminate(row, prow, p, c, den):
    f = row[c]
    if f:
        return [(p * a - f * q) // den for a, q in zip(row, prow)]
    if p == den:
        return row
    return [p * a // den for a in row]


def _objective_row(tab: _Tableau, cost):
    # den times the reduced costs z_j - c_j of the integer costs ``cost``
    # over the nonbasic slots, with den times the objective value in the
    # rhs slot; every basic column's reduced cost is 0.
    den = tab.den
    obj = [-den * cost[j] for j in tab.nonbasic] + [0]
    for i, bi in enumerate(tab.basis):
        cb = cost[bi]
        if cb:
            obj = [o + cb * a for o, a in zip(obj, tab.rows[i])]
    return obj


def _run_phase(tab, obj, ncols):
    # Pivot until optimal (all reduced costs >= 0) or unbounded; only
    # columns labelled below ncols may enter.  Every reduced cost and every
    # ratio shares the denominator den, so costs compare directly and
    # ratios b_i / a_i by cross-multiplying.  Choices go by column label,
    # never by slot, so ties break as on the full tableau.
    nonbasic = tab.nonbasic
    while True:
        # Largest coefficient first; after DANTZIG_PIVOTS pivots every
        # negative cost counts as -1, so the tie-break alone decides:
        # Bland's rule.
        bland = tab.pivots >= DANTZIG_PIVOTS
        enter = -1
        best, label = 0, ncols
        for k, j in enumerate(nonbasic):
            o = obj[k]
            if o < 0 and j < ncols:
                if bland:
                    o = -1
                if o < best or (o == best and j < label):
                    best, label, enter = o, j, k
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

    The columns are the program's variables, then one slack or surplus
    per inequality, then one artificial per ``=`` row and per ``>=`` row
    left after each row of ``lp.rows`` is normalized to a non-negative
    rhs.  Each row is read once: ``integer_form`` scales it to integers,
    and a negative rhs or a ``>= 0`` row negates it, the sign folded into
    its scale, so a ``>= 0`` row becomes ``<= 0`` with its slack basic
    and feasible.  There is no other presolve.  The rows form a condensed
    integer tableau that stores only the nonbasic columns, with one
    common denominator (see ``_Tableau``), so no ``Fraction`` is formed
    until the optimum is read off.  Phase 1 runs on every program (with
    no artificial it makes no pivot), and the reported pivot count covers
    both phases.

    The pivot rule is fixed and chooses by column label: largest
    coefficient (ties to the smallest label) for the first
    ``DANTZIG_PIVOTS`` pivots, then Bland's rule, in one loop that
    afterwards counts every negative reduced cost as -1.  More than
    ``MAX_PIVOTS`` pivots over both phases raise ``IterationLimitError``.
    Every row starts with one +1 basic column, its ``<=`` slack or its
    artificial; the dual value of the row is the final reduced cost of
    that column (0 if it ends basic) times the row's signed integer
    scale.  The certificate is ``check_point`` on the primal point, over
    the tableau denominator ``den``, and ``check_dual`` on the dual, over
    ``den * L`` with L the objective's integer scale; both read
    ``lp.rows`` and ``lp.objective`` themselves, and their objectives
    must agree.  The reported value is that objective.
    """
    nv = lp.num_vars

    # One pass over the rows (see above).  Column labels: variables |
    # slack/surplus (one per inequality) | artificial (one per "=" and
    # ">=" row), each in row order.  Each row's +1 column (its "<=" slack
    # or its artificial) starts basic, so the starting slots are the
    # variables and the -1 surplus columns of ">=" rows.
    art_start = nv + sum(row.relation != "=" for row in lp.rows)
    slack, art = nv, art_start
    scale = []  # each row times its signed integer scale, rhs included, is integer
    T = []
    unit = []
    surplus = []  # row of each -1 surplus column, in slot order
    nonbasic = list(range(nv))
    for i, row in enumerate(lp.rows):
        ints, s = integer_form(row.coeffs + (row.rhs,))
        rel = row.relation
        if ints[-1] < 0 or (ints[-1] == 0 and rel == ">="):
            ints, s = [-a for a in ints], -s
            rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
        if rel == ">=":
            surplus.append(i)
            nonbasic.append(slack)
        if rel != "=":
            slack += 1
        if rel != "<=":
            art += 1
        unit.append(slack - 1 if rel == "<=" else art - 1)
        scale.append(s)
        T.append(ints)
    ncols = art
    T = [t[:-1] + [-1 if k == i else 0 for k in surplus] + t[-1:] for i, t in enumerate(T)]
    tab = _Tableau(T, list(unit), nonbasic)

    # Phase 1: drive the artificials to zero, then pivot each zero-level
    # artificial out on a non-artificial entry of its row, the one with
    # the smallest label.  One whose row has none stays basic: that row is
    # zero in every column phase 2 may pivot on, so it never leaves the
    # basis and adds 0 to the objective.  With no artificials every cost
    # is 0, and phase 1 ends at once.
    cost1 = [0] * art_start + [-1] * (ncols - art_start)
    if _run_phase(tab, _objective_row(tab, cost1), ncols) != "optimal":
        raise SelfCheckError("phase 1 cannot be unbounded")
    if any(row[-1] for row, bi in zip(tab.rows, tab.basis) if bi >= art_start):
        return SolveResult("infeasible", None, None, tab.pivots, True)
    for i, bi in enumerate(tab.basis):
        if bi >= art_start:
            row = tab.rows[i]
            target = min(
                ((j, k) for k, j in enumerate(tab.nonbasic) if j < art_start and row[k]),
                default=None,
            )
            if target is not None:
                tab.pivot(i, target[1])

    # Phase 2 on the real objective, scaled by L to integers; artificial
    # columns may not re-enter.
    cost, cost_scale = integer_form(lp.objective)
    obj2 = _objective_row(tab, cost + [0] * (ncols - nv))
    status = _run_phase(tab, obj2, art_start)
    if status == "unbounded":
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # Certificate: x = xnum / den, and y = ynum / (den * L) from the final
    # reduced cost of each row's +1 column (0 while basic), times the
    # row's signed scale, which reads it back on the row as lp.rows
    # states it.
    den = tab.den
    xnum = [0] * nv
    for row, bi in zip(tab.rows, tab.basis):
        if bi < nv:
            xnum[bi] = row[-1]
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    ynum = [obj2[slot[u]] * s if u in slot else 0 for u, s in zip(unit, scale)]
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
    """Floor k-th root of a non-negative integer, k >= 2."""
    if x == 0:
        return 0
    # Newton's step from r above x^(1/k) stays at or above the floor root
    # (AM-GM) and drops below r while r^k > x, so the first r whose next
    # step is not smaller is the floor root.
    r = 1 << (x.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def root_value(value: Fraction | int, ell: int) -> float:
    """value**(1/l) as a float within 1 ulp of the exact real root."""
    if require_int(ell, "root order") < 1:
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
