"""Exact and floating-point linear program solvers.

The exact path is a two-phase primal simplex over a condensed integer
tableau with primitive rows, so no `fractions.Fraction` is formed while
pivoting.  ``_Tableau`` states its invariant and why its pivots are
those of the fraction-free (Bareiss) tableau.  The columns are the
program's variables, then its slacks and artificials; the tableau stores
only the nonbasic ones (integer pivoting as in Avis's ``lrs``).  One
pass over the program's integer rows builds the tableau, each row made
rhs >= 0 by a sign of +-1, so a ``>= 0`` row becomes ``<= 0`` with its
slack basic; there is no other presolve.  Both phases' reduced costs
are two more tableau rows, read off the starting basis and updated by
every pivot like the constraint rows.  One pricing loop serves both
pivot rules: largest coefficient for a bounded number of pivots, then
Bland's rule, so termination is guaranteed; both choose by column
label, never by slot.  This module only pivots and reads x and y;
``lp`` states what certifies them.  Every optimal answer passes
``lp.check_point`` on x and ``lp.check_dual`` on y, both exact against
the program's own rows, with equal objectives.  Each row's dual value is
read one way: the final reduced cost of the row's starting basic column
(its ``<=`` slack or its artificial; 0 if that column ends basic), times
the row's sign.  A failed check raises instead of returning a wrong
answer.

The floating-point path wraps scipy's HiGHS solver and is only a fast
screen; its results carry ``exact=False`` and are never used alone to
decide an identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    InvalidInputError,
    IterationLimitError,
    SelfCheckError,
    SolverNumericsError,
    canonical_json,
    require_int,
)
from .lp import LinearProgram, check_dual, check_point

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

    Constraint row i < len(basis) reads ``dens[i]*x[basis[i]] + sum_k
    rows[i][k]*x[nonbasic[k]] = rows[i][-1]`` with ``dens[i] > 0``: the
    basic columns, which are ``dens[i]`` times a unit vector, are not
    stored, and ``nonbasic[k]`` is the column label of slot k.  Each row
    below them is a reduced-cost row: ``dens[i] > 0`` times the reduced
    costs z_j - c_j of the slots, and dens[i] times the objective value
    last; it reads as a row whose basic column is the objective.  There
    is no common denominator.

    A pivot on entry p = rows[r][c] of a constraint row swaps
    ``basis[r]`` and ``nonbasic[c]``.  Row r keeps its entries, takes
    basic coefficient p and gets s = dens[r] in slot c, the leaving
    column's coefficient (the row is negated first if p < 0); it holds
    the same numbers up to sign, so it stays primitive.  A row with f = 0
    in slot c is not touched.  Every other row, reduced-cost rows alike,
    becomes ``p*a - f*q`` entry by entry, which leaves ``-f*s`` in slot
    c, with basic coefficient p times its old one, and is then divided by
    its content: the gcd of its basic coefficient and its entries.  So
    every row is gcd 1 after every pivot, and each is a positive multiple
    of the same row of the fraction-free (Bareiss) tableau, which holds
    every row over the one denominator det(B).  Pricing compares entries
    of one reduced-cost row, the ratio test compares rhs/entry ratios
    each read within one constraint row, and the tie-breaks go by label,
    so the pivots, points and values are the Bareiss tableau's; the rows
    only drop the bits of its shared factor.
    """

    def __init__(self, rows, basis, nonbasic):
        self.rows = rows          # list[list[int]], one entry per slot, rhs last
        self.dens = [1] * len(rows)  # positive basic coefficient per row
        self.basis = basis        # basic column label per constraint row
        self.nonbasic = nonbasic  # column label per slot
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c), eliminating slot c from every other row."""
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
            f = row[c]
            if f and i != r:
                # p*row - f*prow over basic coefficient p*dens[i], divided
                # by its content.
                row = [p * a - f * q for a, q in zip(row, prow)]
                den = p * dens[i]
                g = gcd(den, *row)
                if g > 1:
                    row, den = [a // g for a in row], den // g
                rows[i], dens[i] = row, den
        prow[c] = s
        dens[r] = p
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]
        self.pivots += 1


def _run_phase(tab, ncols):
    # Pivot until optimal (all reduced costs >= 0) or unbounded; only
    # columns labelled below ncols may enter.  Reduced costs share the
    # first row below the constraint rows, so they compare directly, and
    # each ratio b_i / a_i is read within constraint row i, so ratios
    # compare by cross-multiplying.  Choices go by column label, never by
    # slot, so ties break as on the full tableau.
    nonbasic = tab.nonbasic
    m = len(tab.basis)
    while True:
        # Largest coefficient first; after DANTZIG_PIVOTS pivots every
        # negative cost counts as -1, so the tie-break alone decides:
        # Bland's rule.
        bland = tab.pivots >= DANTZIG_PIVOTS
        enter = -1
        best, label = 0, ncols
        for k, (o, j) in enumerate(zip(tab.rows[m], nonbasic)):
            if o < 0 and j < ncols:
                if bland:
                    o = -1
                if o < best or (o == best and j < label):
                    best, label, enter = o, j, k
        if enter < 0:
            return "optimal"
        leave = -1
        best_b = best_a = 0
        for i, row in enumerate(tab.rows[:m]):
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
    rhs.  Each row is read once, as its integer coefficients and rhs, and
    a negative rhs or a ``>= 0`` row negates it, with sign -1 kept for
    the row, so a ``>= 0`` row becomes ``<= 0`` with its slack basic and
    feasible.  There is no other presolve.  The rows form a
    ``_Tableau``, so no ``Fraction`` is formed until the optimum is read
    off.  The starting rows are not divided: their basic coefficients are
    1, so they are primitive already.  Below them sit the reduced-cost
    rows of phase 1 (costs -1 on the artificials) and phase 2 (the
    objective), read off the starting basis.  Phase 1 runs on every
    program (with no artificial it makes no pivot); the program is
    infeasible if phase 1's optimal value is nonzero, and otherwise its
    row is dropped.  The reported pivot count covers both phases.

    The pivot rule is fixed and chooses by column label: largest
    coefficient (ties to the smallest label) for the first
    ``DANTZIG_PIVOTS`` pivots, then Bland's rule, in one loop that
    afterwards counts every negative reduced cost as -1.  More than
    ``MAX_PIVOTS`` pivots over both phases raise ``IterationLimitError``.
    Every row starts with one +1 basic column, its ``<=`` slack or its
    artificial; the dual value of the row is the final reduced cost of
    that column (0 if it ends basic) times the row's sign.  The
    certificate is ``check_point`` on the primal point, over the lcm of
    the basic coefficients of the rows whose basic column is a variable,
    and ``check_dual`` on the dual, over the phase-2 row's scale; both
    read ``lp.rows`` and ``lp.objective`` themselves, and their
    objectives must agree.  The reported value is that objective, and the
    result keeps the certified dual.
    """
    nv = lp.num_vars

    # One pass over the rows (see above).  Column labels: variables |
    # slack/surplus (one per inequality) | artificial (one per "=" and
    # ">=" row), each in row order.  Each row's +1 column (its "<=" slack
    # or its artificial) starts basic, so the starting slots are the
    # variables and the -1 surplus columns of ">=" rows.
    art_start = nv + sum(row.relation != "=" for row in lp.rows)
    slack, art = nv, art_start
    sign = []  # +-1 per row: the tableau row is the program's row times its sign
    T = []
    unit = []
    surplus = []  # row of each -1 surplus column, in slot order
    nonbasic = list(range(nv))
    for i, row in enumerate(lp.rows):
        ints, s = [*row.coeffs, row.rhs], 1
        rel = row.relation
        if row.rhs < 0 or (row.rhs == 0 and rel == ">="):
            ints, s = [-a for a in ints], -1
            rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
        if rel == ">=":
            surplus.append(i)
            nonbasic.append(slack)
        if rel != "=":
            slack += 1
        if rel != "<=":
            art += 1
        unit.append(slack - 1 if rel == "<=" else art - 1)
        sign.append(s)
        T.append(ints)
    ncols = art
    T = [t[:-1] + [-1 if k == i else 0 for k in surplus] + t[-1:] for i, t in enumerate(T)]
    # The reduced-cost rows of the starting basis, whose basic
    # coefficients are 1 and whose basic columns all cost 0 in phase 2.
    # Phase 1's costs are -1 on the artificials and 0 elsewhere, so its
    # row is minus the sum of the artificials' rows; phase 2's is -c_j
    # over the slots.
    arts = [t for t, u in zip(T, unit) if u >= art_start]
    phase1 = [-sum(col) for col in zip([0] * (len(nonbasic) + 1), *arts)]
    phase2 = [-lp.objective[j] if j < nv else 0 for j in nonbasic] + [0]
    m = len(T)
    tab = _Tableau([*T, phase1, phase2], list(unit), nonbasic)

    # Phase 1: drive the artificials to zero, then pivot each zero-level
    # artificial out on a non-artificial entry of its row, the one with
    # the smallest label.  One whose row has none stays basic: that row is
    # zero in every column phase 2 may pivot on, so it never leaves the
    # basis and adds 0 to the objective.  With no artificials the phase-1
    # row is 0, and phase 1 ends at once.  Its value is minus the sum of
    # the artificials, so the program is feasible only if it is 0.
    if _run_phase(tab, ncols) != "optimal":
        raise SelfCheckError("phase 1 cannot be unbounded")
    if tab.rows[m][-1]:
        return SolveResult("infeasible", None, None, tab.pivots, True)
    del tab.rows[m], tab.dens[m]
    for i, bi in enumerate(tab.basis):
        if bi >= art_start:
            row = tab.rows[i]
            target = min(
                ((j, k) for k, j in enumerate(tab.nonbasic) if j < art_start and row[k]),
                default=None,
            )
            if target is not None:
                tab.pivot(i, target[1])

    # Phase 2 on the real objective; artificial columns may not re-enter.
    status = _run_phase(tab, art_start)
    if status == "unbounded":
        return SolveResult("unbounded", None, None, tab.pivots, True)

    # Certificate: x = xnum / den, with den the lcm of the basic
    # coefficients of the variables' rows, and y = ynum / zden from the
    # phase-2 row: the final reduced cost of each row's +1 column (0 while
    # basic), times the row's sign, which reads it back on the row as
    # lp.rows states it.
    xrows = [i for i, bi in enumerate(tab.basis) if bi < nv]
    den = lcm(*(tab.dens[i] for i in xrows))
    xnum = [0] * nv
    for i in xrows:
        xnum[tab.basis[i]] = tab.rows[i][-1] * (den // tab.dens[i])
    obj, zden = tab.rows[m], tab.dens[m]
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    ynum = [obj[slot[u]] * s if u in slot else 0 for u, s in zip(unit, sign)]
    point = check_point(lp, [(j, v) for j, v in enumerate(xnum) if v], den)
    if not point.feasible:
        raise SelfCheckError(f"optimal point violates {point.detail}")
    dual = check_dual(lp, [(i, v) for i, v in enumerate(ynum) if v], zden)
    if not dual.feasible:
        raise SelfCheckError(f"dual certificate fails: {dual.detail}")
    if dual.objective != point.objective:
        raise SelfCheckError("strong duality does not close; result discarded")

    primal = tuple(Fraction(v, den) for v in xnum)
    y = tuple(Fraction(v, zden) for v in ynum)
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
        raise InvalidInputError("root order must be >= 1")
    frac = Fraction(value)
    if frac < 0:
        raise InvalidInputError("negative values have no real root here")
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
