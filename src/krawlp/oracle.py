"""Brute-force ground truth at desk scale.

Everything here is deliberately exhaustive and simple so it can serve as
an independent oracle for the LP machinery:

* ``max_code``        - exact A_2(n, d) as a maximum independent set in the
                        graph joining words at distance 1..d-1, via
                        branch-and-bound over bitset adjacency.  The graph
                        is a Cayley graph on F_2^n, v ~ v ^ w for each w
                        of weight 1..d-1, so the search fixes the zero word
                        in the code.  Its first descent, the greedy scan in
                        index order, seeds the bound; it prunes with a greedy
                        clique cover built one clique at a time by big-int
                        ANDs (Tomita & Seki 2003; San Segundo et al. 2011);
* ``max_linear_code`` - exact A_2^Lin(n, d) by enumerating all reduced
                        row-echelon generator matrices over F_2 (for each
                        pivot set, the product of its rows' choices, each
                        from ``configs._subset_xors``) and testing each
                        span for a nonzero word lighter than d;
* ``dual_code``       - orthogonal complement of a linear code: the span
                        (``configs._subset_xors``) of the parity-check basis
                        read off the pivots of ``configs._basis``, the
                        code's RREF in ``_iter_rref``'s convention;
* ``verify_macwilliams`` - the transform identity (linear codes) and the
                        transform inequality (any code), checked exactly
                        and reported as a ``krawtchouk.CheckReport``, one
                        check per identity or inequality row.  Each code's
                        profile has one transform s, one integer combining
                        the table's packed columns: a linear code passes
                        by one compare with its dual profile, any other
                        code by one AND (s + T) & T == T, T the top bit of
                        every digit.  A failing code is recounted once
                        with ``configs.row_sums``;
* ``build_fourier_lp`` - the unsymmetrized LP with one variable per
                        l-tuple of words and one character row per tuple,
                        for equivalence testing against the configuration
                        LP: ``lp.packing_lp`` over the tuples whose sd
                        entries ``configs.too_close`` keeps, tested tuple
                        by tuple.  Tuples are packed ints (word j in the
                        j-th n-bit block), so each character is
                        (-1)^popcount(alpha & p).

Codes are ``lp.CodeSet`` values.  Both searches pass one gate, ints n >= 1 and
d >= 0 (and n <= ``MAX_LINEAR_N`` for the linear one and ``iter_linear_codes``),
and keep no memo: a full ``krawlp verify`` repeats only (5, 3).  The linear
search stops at the first dimension with no code of distance d, so n alone
bounds it; ``iter_linear_codes`` walks every code, so it is also held to
``MAX_LINEAR_CODES`` codes, counted in closed form by ``linear_code_count``.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .configs import _basis, _sd_entries, _subset_xors, row_sums, too_close
from .errors import CapacityError, NotLinearError, ParameterError, SelfCheckError, require_int
from .krawtchouk import CheckReport, cached_table, digits_nonnegative
from .lp import CodeSet, LinearProgram, check_program_args, code_census, packing_lp

# Independent-set search budget: 2^n graph vertices.
MAX_BB_VERTICES = 128
# Generator-matrix enumeration budget.
MAX_LINEAR_N = 10
# Budget on the codes ``iter_linear_codes`` yields.  It admits n = 8 (417,199
# codes, 7 s on one core of a 2-core VM) and refuses n = 9 (8,283,458) and
# n = 10 (229,755,605), walks of minutes and hours.
MAX_LINEAR_CODES = 500_000
# Word-tuple LP budget: 2^(n*l) variables and rows.
MAX_FOURIER_POINTS = 4096


# ---------------------------------------------------------------------------
# Maximum general codes: independent sets in the distance-<d graph
# ---------------------------------------------------------------------------


def _clique_cover_bound(candidates: int, adj: list[int]) -> int:
    # Greedily partition the candidate set into cliques, each grown from its
    # lowest vertex by the lowest vertex adjacent to all members so far; an
    # independent set takes at most one vertex per clique.
    cliques = 0
    while candidates:
        cliques += 1
        pool = candidates
        while pool:
            low = pool & -pool
            candidates ^= low
            pool &= adj[low.bit_length() - 1]
    return cliques


def _max_independent_set(adj: list[int]) -> tuple[int, int]:
    # adj must be a Cayley graph on F_2^n (whether u ~ v depends on u ^ v
    # only), as the distance-<d graph is: translating an independent set by
    # one of its words gives one that contains 0, so the search fixes
    # vertex 0.  Such a graph is regular, so a degree order is the index
    # order, and vertices are taken in index order throughout.  The first
    # descent takes the lowest candidate at every step, so it is the greedy
    # index-order scan and seeds the bound itself.
    best = best_mask = 0

    def expand(candidates: int, cur: int, cur_mask: int) -> None:
        nonlocal best, best_mask
        if cur > best:
            best, best_mask = cur, cur_mask
        if not candidates:
            return
        if cur + _clique_cover_bound(candidates, adj) <= best:
            return
        bit = candidates & -candidates
        expand(candidates & ~adj[bit.bit_length() - 1] & ~bit, cur + 1, cur_mask | bit)
        expand(candidates & ~bit, cur, cur_mask)

    expand(((1 << len(adj)) - 1) & ~adj[0] & ~1, 1, 1)
    return best, best_mask


def _check_search_args(n: int, d: int, linear: bool = False) -> None:
    require_int(n, "blocklength n")
    require_int(d, "distance d")
    if n < 1 or d < 0:
        raise ParameterError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if linear and n > MAX_LINEAR_N:
        raise CapacityError(f"n={n} exceeds the enumeration budget n <= {MAX_LINEAR_N}")


def max_code(n: int, d: int) -> tuple[int, CodeSet]:
    """Exact A_2(n, d) with one witness code, which contains the zero word."""
    _check_search_args(n, d)
    nverts = 1 << n
    if nverts > MAX_BB_VERTICES:
        raise CapacityError(f"2^n = {nverts} vertices exceed the budget {MAX_BB_VERTICES}")
    if d <= 1:
        return nverts, CodeSet(frozenset(range(nverts)), n)
    # A Cayley graph: v is joined to v ^ w for every w in the ball.
    ball = [w for w in range(1, nverts) if w.bit_count() < d]
    adj = [sum(1 << (v ^ w) for w in ball) for v in range(nverts)]
    size, mask = _max_independent_set(adj)
    witness = CodeSet(frozenset(v for v in range(nverts) if (mask >> v) & 1), n)
    if witness.min_distance() < d:
        raise SelfCheckError("independent-set witness has too small a distance")
    return size, witness


# ---------------------------------------------------------------------------
# Maximum linear codes: reduced row-echelon enumeration
# ---------------------------------------------------------------------------


def _iter_rref(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # Every k-dimensional subspace of F_2^n has a unique RREF generator
    # matrix: pivot columns strictly increasing, pivot entries 1, zeros
    # above/below pivots, free entries only right of each row's pivot in
    # non-pivot columns, chosen by each row independently.  Row 0 varies
    # fastest, and each row's subsets go in binary counting order.
    for pivots in itertools.combinations(range(n), k):
        free = [c for c in range(n) if c not in pivots]
        choices = [
            [(1 << p) | s for s in _subset_xors([1 << c for c in free if c > p])]
            for p in reversed(pivots)
        ]
        for rows in itertools.product(*choices):
            yield rows[::-1]


def _span_has_distance(rows: tuple[int, ...], d: int) -> bool:
    # Gray-code walk over the nonzero combinations, up to the first one lighter than d.
    cur = 0
    for i in range(1, 1 << len(rows)):
        cur ^= rows[(i & -i).bit_length() - 1]
        if cur.bit_count() < d:
            return False
    return True


def max_linear_code(n: int, d: int) -> tuple[int, CodeSet]:
    """Exact A_2^Lin(n, d) with one witness code.

    Dimensions are scanned upward; a dimension is declared infeasible only
    after all its generator matrices failed, and then no larger dimension
    can succeed (subspaces of a distance-d code keep distance d).
    """
    _check_search_args(n, d, linear=True)
    best: tuple[int, ...] = ()  # the empty matrix spans the zero code
    for k in range(1, n + 1):
        found = next((rows for rows in _iter_rref(n, k) if _span_has_distance(rows, d)), None)
        if found is None:
            break
        best = found
    return 1 << len(best), CodeSet(frozenset(_subset_xors(best)), n)


# ---------------------------------------------------------------------------
# Dual codes
# ---------------------------------------------------------------------------


def dual_code(c: CodeSet) -> CodeSet:
    """All words orthogonal (even overlap) to every codeword.

    ``_basis`` gives the code's RREF, each row's lowest set bit its pivot.
    Each non-pivot column j gives the dual basis vector 2^j plus the pivot
    bit of every row holding bit j, and the dual is their span.
    """
    if not c.linear:
        raise NotLinearError("dual codes are defined for linear codes")
    rows = _basis(c.words)
    pivots = {r & -r: r for r in rows}
    dual_basis = [
        (1 << j) | sum(p for p, r in pivots.items() if r >> j & 1)
        for j in range(c.n)
        if 1 << j not in pivots
    ]
    if any((x & r).bit_count() & 1 for x in dual_basis for r in rows):
        raise SelfCheckError("a dual basis vector is not orthogonal to the code basis")
    dual = frozenset(_subset_xors(dual_basis))
    if len(c.words) * len(dual) != 1 << c.n:
        raise SelfCheckError("dual size identity |C| * |C^perp| = 2^n failed")
    return CodeSet(dual, c.n)


def linear_code_count(n: int) -> int:
    """Number of linear codes in F_2^n: the sum over k of the Gaussian binomials [n, k]_2."""
    total = term = 1
    for k in range(1, n + 1):
        term = term * ((1 << (n - k + 1)) - 1) // ((1 << k) - 1)
        total += term
    return total


def iter_linear_codes(n: int) -> Iterator[CodeSet]:
    """All linear codes in F_2^n by dimension (the zero code first), each
    dimension in RREF order.  The gate of ``max_linear_code`` and the budget
    ``MAX_LINEAR_CODES`` on ``linear_code_count(n)`` run at the call, before
    the first code."""
    _check_search_args(n, 0, linear=True)
    count = linear_code_count(n)
    if count > MAX_LINEAR_CODES:
        raise CapacityError(
            f"{count} linear codes exceed the enumeration budget {MAX_LINEAR_CODES}"
        )
    return (
        CodeSet(frozenset(_subset_xors(rows)), n)
        for k in range(n + 1)
        for rows in _iter_rref(n, k)
    )


# ---------------------------------------------------------------------------
# Transform identity and inequality
# ---------------------------------------------------------------------------


def verify_macwilliams(c: CodeSet, ell: int) -> CheckReport:
    """Exact transform checks for one code at level l.

    For a linear code, the transform of its profile must equal |C|^l times
    the dual code's profile, entry by entry.  For any code, the transform
    of its profile must be non-negative in every entry.  The report counts
    one check per identity row and per inequality row.

    The code's profile (``code_census``) has one transform s, a linear
    combination of the table's packed columns
    (``KrawtchoukTable.transform_packing``), its entry h the signed digit
    h in base 2^w.  One test decides the code.  For a linear code it is
    one compare of s with |C|^l times the packed dual profile; a true
    identity makes every digit of s a count, so it also settles the
    inequality.  For any other code it is ``digits_nonnegative``.  A code
    that fails has its rows recounted once with ``configs.row_sums`` to
    name each failing row, identity rows first.
    """
    table = cached_table(c.n, ell)
    width, tops, columns = table.transform_packing
    prof = code_census(c, ell).items()
    s = sum(columns[g] * m for g, m in prof)
    scale = c.size**ell if c.linear else 1
    if c.linear:
        dual_prof = code_census(dual_code(c), ell)
        passed = s == scale * sum(m << (width * h) for h, m in dual_prof.items())
    else:
        passed = digits_nonnegative(s, tops)
    violations = []
    if not passed:
        sums = list(row_sums(table.values, prof))
        if c.linear:
            for h_idx, rhs in enumerate(sums):
                lhs = scale * dual_prof.get(h_idx, 0)
                if lhs != rhs:
                    violations.append(
                        f"identity at h={h_idx}: {lhs} != {rhs} (|C|={c.size}, l={ell})"
                    )
        for h_idx, t in enumerate(sums):
            if t < 0:
                violations.append(f"inequality at h={h_idx}: transform {scale * t} < 0")
    checked = table.size * (2 if c.linear else 1)
    return CheckReport("macwilliams", checked, tuple(violations))


# ---------------------------------------------------------------------------
# The unsymmetrized word-tuple LP
# ---------------------------------------------------------------------------


def build_fourier_lp(n: int, d: int, ell: int, linear: bool) -> LinearProgram:
    """LP over one variable per l-tuple of words, one character row per tuple.

    The variables are the tuples whose sd entries ``too_close`` keeps; the
    rows demand non-negativity of every character sum.
    """
    check_program_args(n, d, ell)
    npoints = 1 << (n * ell)
    if npoints > MAX_FOURIER_POINTS:
        raise CapacityError(
            f"2^(n*l) = {npoints} tuple variables exceed the budget {MAX_FOURIER_POINTS}"
        )
    # Tuple p packs word j into its j-th n-bit block, so the character
    # prod_j (-1)^<alpha_j, p_j> of tuple alpha at p is (-1)^popcount(alpha & p).
    mask = (1 << n) - 1
    keep = tuple(
        p
        for p in range(npoints)
        if not too_close(_sd_entries([(p >> (n * j)) & mask for j in range(ell)]), d, linear)
    )
    rows = (
        tuple([1 - 2 * ((alpha & p).bit_count() & 1) for p in keep])
        for alpha in range(npoints)
    )
    return packing_lp("fourier", n, d, ell, linear, keep, "F", rows)
