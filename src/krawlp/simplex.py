"""Exact and floating-point linear program solvers.

The exact path is a two-phase primal simplex over a condensed integer
tableau with primitive rows, so no `fractions.Fraction` is formed while
pivoting.  ``_Tableau`` states its invariant and why its pivots are
those of the fraction-free (Bareiss) tableau.  The columns are the
program's variables, then its slacks and artificials; the tableau stores
only the nonbasic ones (integer pivoting as in Avis's ``lrs``).  One
pass over the program's rows builds the tableau, each row made rhs >= 0
by a sign folded into its integer scale, so a ``>= 0`` row becomes
``<= 0`` with its slack basic; there is no other presolve.  One pricing
loop serves both pivot rules: largest coefficient for a bounded number
of pivots, then Bland's rule, so termination is guaranteed; both choose
by column label, never by slot.
``integer_form`` serves only to build the tableau and the objective.
This module only pivots and reads x and y; ``lp`` states what
certifies them.  Every optimal answer passes
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

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

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
    ``exact`` is False.  ``dual`` is the certified dual of an exact
    optimum, one ``Fraction`` per row of ``lp.rows`` (``None`` otherwise);
    like the stdout record of ``to_json``, equality leaves it out.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | float | None
    primal: tuple | None
    pivots: int
    exact: bool
    dual: tuple[Fraction, ...] | None = field(default=None, compare=False)

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
    """Condensed integer tableau over the nonbasic columns, one primitive row each.

    Row i reads ``dens[i]*x[basis[i]] + sum_k rows[i][k]*x[nonbasic[k]] =
    rows[i][-1]`` with ``dens[i] > 0``: the basic columns, which are
    ``dens[i]`` times a unit vector, are not stored, and ``nonbasic[k]``
    is the column label of slot k.  There is no common denominator.  The
    reduced-cost row ``obj`` holds ``zden > 0`` times the reduced costs
    z_j - c_j of the slots, and zden times the objective value last.

    A pivot on entry p = rows[r][c] swaps ``basis[r]`` and
    ``nonbasic[c]``.  Row r keeps its entries, takes basic coefficient p
    and gets s = dens[r] in slot c, the leaving column's coefficient (the
    row is negated first if p < 0); it holds the same numbers up to sign,
    so it stays primitive.  A row with f = 0 in slot c is not touched.
    Every other row, and ``obj``, becomes ``p*a - f*q`` entry by entry,
    which leaves ``-f*s`` in slot c, with basic coefficient p times its
    old one, and is then divided by its content: the gcd of its basic
    coefficient and its entries.  So every row is gcd 1 after every
    pivot, and each is a positive multiple of the same row of the
    fraction-free (Bareiss) tableau, which holds every row over the one
    denominator det(B).  Pricing compares entries of ``obj``, the ratio
    test compares rhs/entry ratios each read within one row, and the
    tie-breaks go by label, so the pivots, points and values are the
    Bareiss tableau's; the rows only drop the bits of its shared factor.
    """

    def __init__(self, rows, basis, nonbasic):
        self.rows = rows          # list[list[int]], one entry per slot, rhs last
        self.dens = [1] * len(rows)  # positive basic coefficient per row
        self.basis = basis        # basic column label per row
        self.nonbasic = nonbasic  # column label per slot
        self.obj = None           # reduced-cost row, rhs last; set by price
        self.zden = 1             # its positive scale
        self.pivots = 0

    def price(self, cost) -> None:
        """Set ``obj`` to the reduced costs of the integer costs ``cost``."""
        # Over L, the lcm of the basic coefficients of the rows whose
        # basic column has a cost, z_j - c_j is the sum of
        # cost[basis[i]] * (L / dens[i]) * rows[i][k] less L * cost[j];
        # every basic column's reduced cost is 0.
        terms = [(cost[bi], i) for i, bi in enumerate(self.basis) if cost[bi]]
        zden = lcm(*(self.dens[i] for _, i in terms))
        obj = [-zden * cost[j] for j in self.nonbasic] + [0]
        for cb, i in terms:
            m = cb * (zden // self.dens[i])
            obj = [o + m * a for o, a in zip(obj, self.rows[i])]
        g = gcd(zden, *obj)
        self.obj, self.zden = [o // g for o in obj], zden // g

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c), carrying the reduced-cost row along."""
        rows, dens = self.rows, self.dens
        prow = rows[r]
        p = prow[c]
        s = dens[r]
        if p < 0:
            # Only a zero-level artificial leaves on a negative entry;
            # negating the pivot row first keeps every eliminated row's
            # sign and makes its basic coefficient positive.
            prow = rows[r] = [-a for a in prow]
            p, s = -p, -s
        # With q = p + s in slot c, p*f - f*q is -f*s.
        prow[c] = p + s
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i], dens[i] = _eliminate(row, dens[i], prow, p, c)
        if self.obj[c]:
            self.obj, self.zden = _eliminate(self.obj, self.zden, prow, p, c)
        prow[c] = s
        dens[r] = p
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]
        self.pivots += 1


def _eliminate(row, den, prow, p, c):
    # p*row - f*prow over basic coefficient p*den, divided by its content.
    f = row[c]
    row = [p * a - f * q for a, q in zip(row, prow)]
    den *= p
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


def _run_phase(tab, ncols):
    # Pivot until optimal (all reduced costs >= 0) or unbounded; only
    # columns labelled below ncols may enter.  Reduced costs share the
    # row obj, so they compare directly, and each ratio b_i / a_i is
    # read within row i, so ratios compare by cross-multiplying.  Choices
    # go by column label, never by slot, so ties break as on the full
    # tableau.
    nonbasic = tab.nonbasic
    while True:
        # Largest coefficient first; after DANTZIG_PIVOTS pivots every
        # negative cost counts as -1, so the tie-break alone decides:
        # Bland's rule.
        bland = tab.pivots >= DANTZIG_PIVOTS
        enter = -1
        best, label = 0, ncols
        for k, (o, j) in enumerate(zip(tab.obj, nonbasic)):
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
        tab.pivot(leave, enter)


def solve_exact(lp: LinearProgram) -> SolveResult:
    """Exact rational optimum of a maximization LP with x >= 0.

    The columns are the program's variables, then one slack or surplus
    per inequality, then one artificial per ``=`` row and per ``>=`` row
    left after each row of ``lp.rows`` is normalized to a non-negative
    rhs.  Each row is read once: ``integer_form`` scales it to integers,
    and a negative rhs or a ``>= 0`` row negates it, the sign folded into
    its scale, so a ``>= 0`` row becomes ``<= 0`` with its slack basic
    and feasible.  There is no other presolve.  The rows form a
    ``_Tableau``, so no ``Fraction`` is formed until the optimum is read
    off.  The starting rows are not divided: their basic coefficients are
    1, so they are primitive already.  Phase 1 runs on every program
    (with no artificial it makes no pivot), and the reported pivot count
    covers both phases.

    The pivot rule is fixed and chooses by column label: largest
    coefficient (ties to the smallest label) for the first
    ``DANTZIG_PIVOTS`` pivots, then Bland's rule, in one loop that
    afterwards counts every negative reduced cost as -1.  More than
    ``MAX_PIVOTS`` pivots over both phases raise ``IterationLimitError``.
    Every row starts with one +1 basic column, its ``<=`` slack or its
    artificial; the dual value of the row is the final reduced cost of
    that column (0 if it ends basic) times the row's signed integer
    scale.  The certificate is ``check_point`` on the primal point, over
    the lcm of the basic coefficients of the rows whose basic column is a
    variable, and ``check_dual`` on the dual, over ``zden * L`` with zden
    the reduced-cost row's scale and L the objective's integer scale;
    both read ``lp.rows`` and ``lp.objective`` themselves, and their
    objectives must agree.  The reported value is that objective, and
    the result keeps the certified dual.
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
    tab.price(cost1)
    if _run_phase(tab, ncols) != "optimal":
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
    tab.price(cost + [0] * (ncols - nv))
    status = _run_phase(tab, art_start)
    if status == "unbounded":
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # Certificate: x = xnum / den, with den the lcm of the basic
    # coefficients of the variables' rows, and y = ynum / (zden * L) from
    # the final reduced cost of each row's +1 column (0 while basic),
    # times the row's signed scale, which reads it back on the row as
    # lp.rows states it.
    xrows = [i for i, bi in enumerate(tab.basis) if bi < nv]
    den = lcm(*(tab.dens[i] for i in xrows))
    xnum = [0] * nv
    for i in xrows:
        xnum[tab.basis[i]] = tab.rows[i][-1] * (den // tab.dens[i])
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    ynum = [tab.obj[slot[u]] * s if u in slot else 0 for u, s in zip(unit, scale)]
    yden = tab.zden * cost_scale
    point = check_point(lp, [(j, v) for j, v in enumerate(xnum) if v], den)
    if not point.feasible:
        raise SelfCheckError(f"optimal point violates {point.detail}")
    dual = check_dual(lp, [(i, v) for i, v in enumerate(ynum) if v], yden)
    if not dual.feasible:
        raise SelfCheckError(f"dual certificate fails: {dual.detail}")
    if dual.objective != point.objective:
        raise SelfCheckError("strong duality does not close; result discarded")

    primal = tuple(Fraction(v, den) for v in xnum)
    y = tuple(Fraction(v, yden) for v in ynum)
    return SolveResult("optimal", point.objective, primal, tab.pivots, True, y)


# ---------------------------------------------------------------------------
# Floating-point screen
# ---------------------------------------------------------------------------


def solve_float(lp: LinearProgram) -> SolveResult:
    """Fast floating-point solve (HiGHS); results carry ``exact=False``."""
    from scipy.optimize import linprog

    c = [-float(v) for v in lp.objective]
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
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
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
