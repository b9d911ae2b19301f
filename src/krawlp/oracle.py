"""Brute-force ground truth at desk scale.

Everything here is deliberately exhaustive and simple so it can serve as
an independent oracle for the LP machinery:

* ``max_code``        - exact A_2(n, d) as a maximum independent set in the
                        graph joining words at distance 1..d-1, via
                        branch-and-bound over bitset adjacency.  The graph
                        is a Cayley graph on F_2^n, so the search fixes the
                        zero word in the code; it prunes with a greedy
                        clique cover built one clique at a time by big-int
                        ANDs (Tomita & Seki 2003; San Segundo et al. 2011);
* ``max_linear_code`` - exact A_2^Lin(n, d) by enumerating all reduced
                        row-echelon generator matrices over F_2 and
                        checking span minimum weights;
* ``dual_code``       - orthogonal complement of a linear code;
* ``verify_macwilliams`` - the transform identity (linear codes) and the
                        transform inequality (any code), checked exactly;
* ``build_fourier_lp`` - the unsymmetrized LP with one variable per
                        l-tuple of words and one character row per tuple,
                        for equivalence testing against the configuration
                        LP.

Oracle results are memoized in-process keyed by (n, d) per function.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf
from operator import mul
from typing import Iterator

from .configs import _gather, _sd_entries, config_index
from .errors import (
    CapacityError,
    InvalidInputError,
    NotLinearError,
    ParameterError,
    SelfCheckError,
)
from .krawtchouk import cached_table
from .lp import LinearProgram, LPRow, is_xor_closed, profile_of_code

# Independent-set search budget: 2^n graph vertices.
MAX_BB_VERTICES = 128
# Generator-matrix enumeration budget.
MAX_LINEAR_N = 10
# Word-tuple LP budget: 2^(n*l) variables and rows.
MAX_FOURIER_POINTS = 4096


@dataclass(frozen=True)
class CodeSet:
    """A nonempty set of n-bit words with a validated linearity flag."""

    words: frozenset[int]
    n: int
    linear: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if not self.words:
            raise InvalidInputError("code must be nonempty")
        if self.n < 1:
            raise InvalidInputError("blocklength must be positive")
        top = 1 << self.n
        if any(w < 0 or w >= top for w in self.words):
            raise InvalidInputError(f"words must be {self.n}-bit integers")
        object.__setattr__(self, "linear", is_xor_closed(self.words))

    @property
    def size(self) -> int:
        return len(self.words)

    def min_distance(self) -> int | float:
        """Least pairwise Hamming distance; inf for a singleton."""
        if len(self.words) == 1:
            return inf
        return min((a ^ b).bit_count() for a, b in itertools.combinations(self.words, 2))

    def to_json(self) -> str:
        width = (self.n + 3) // 4
        return json.dumps(
            {
                "n": self.n,
                "linear": self.linear,
                "words": [format(w, f"0{width}x") for w in sorted(self.words)],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CodeSet":
        data = json.loads(text)
        return cls(frozenset(int(w, 16) for w in data["words"]), data["n"])


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
    # order, and vertices are taken in index order throughout.
    nverts = len(adj)
    # Greedy seed: scan in index order, keep whatever fits.
    best_mask = 0
    taken_block = 0
    for v in range(nverts):
        bit = 1 << v
        if not (taken_block & bit):
            best_mask |= bit
            taken_block |= bit | adj[v]
    best = best_mask.bit_count()

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

    expand(((1 << nverts) - 1) & ~adj[0] & ~1, 1, 1)
    return best, best_mask


@lru_cache(maxsize=None)
def max_code(n: int, d: int) -> tuple[int, CodeSet]:
    """Exact A_2(n, d) with one witness code, which contains the zero word."""
    if n < 1 or d < 0:
        raise ParameterError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    nverts = 1 << n
    if nverts > MAX_BB_VERTICES:
        raise CapacityError(f"2^n = {nverts} vertices exceed the budget {MAX_BB_VERTICES}")
    if d <= 1:
        return nverts, CodeSet(frozenset(range(nverts)), n)
    adj = [0] * nverts
    for v in range(nverts):
        for u in range(v + 1, nverts):
            if (u ^ v).bit_count() < d:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
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
    # non-pivot columns.
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            [c for c in range(pivots[i] + 1, n) if c not in pivot_set]
            for i in range(k)
        ]
        counts = [len(f) for f in free]
        total_free = sum(counts)
        for assignment in range(1 << total_free):
            rows = []
            shift = 0
            for i in range(k):
                row = 1 << pivots[i]
                for c in free[i]:
                    if (assignment >> shift) & 1:
                        row |= 1 << c
                    shift += 1
                rows.append(row)
            yield tuple(rows)


def _span_words(rows: tuple[int, ...]) -> frozenset[int]:
    span = {0}
    for r in rows:
        span |= {r ^ w for w in span}
    return frozenset(span)


def _span_min_weight(rows: tuple[int, ...], d: int) -> int:
    # Gray-code walk over all nonzero combinations; early exit below d.
    cur = 0
    minw = 1 << 62
    for i in range(1, 1 << len(rows)):
        cur ^= rows[(i & -i).bit_length() - 1]
        w = cur.bit_count()
        if w < d:
            return w
        if w < minw:
            minw = w
    return minw


@lru_cache(maxsize=None)
def max_linear_code(n: int, d: int) -> tuple[int, CodeSet]:
    """Exact A_2^Lin(n, d) with one witness code.

    Dimensions are scanned upward; a dimension is declared infeasible only
    after all its generator matrices failed, and then no larger dimension
    can succeed (subspaces of a distance-d code keep distance d).
    """
    if n < 1 or d < 0:
        raise ParameterError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if n > MAX_LINEAR_N:
        raise CapacityError(f"n={n} exceeds the enumeration budget n <= {MAX_LINEAR_N}")
    best_words = frozenset({0})
    best_k = 0
    for k in range(1, n + 1):
        found = None
        for rows in _iter_rref(n, k):
            if _span_min_weight(rows, d) >= d:
                found = rows
                break
        if found is None:
            break
        best_k, best_words = k, _span_words(found)
    return 1 << best_k, CodeSet(best_words, n)


# ---------------------------------------------------------------------------
# Dual codes
# ---------------------------------------------------------------------------


def _gauss_basis(words: frozenset[int]) -> list[int]:
    basis: list[int] = []
    for w in sorted(words):
        cur = w
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
    return basis


def dual_code(c: CodeSet) -> CodeSet:
    """All words orthogonal (even overlap) to every codeword."""
    if not c.linear:
        raise NotLinearError("dual codes are defined for linear codes")
    basis = _gauss_basis(c.words)
    dual = frozenset(
        x
        for x in range(1 << c.n)
        if all(((x & b).bit_count() & 1) == 0 for b in basis)
    )
    if len(c.words) * len(dual) != 1 << c.n:
        raise SelfCheckError("dual size identity |C| * |C^perp| = 2^n failed")
    return CodeSet(dual, c.n)


def iter_linear_codes(n: int) -> Iterator[CodeSet]:
    """All linear codes in F_2^n, the zero code included."""
    yield CodeSet(frozenset({0}), n)
    for k in range(1, n + 1):
        for rows in _iter_rref(n, k):
            yield CodeSet(_span_words(rows), n)


# ---------------------------------------------------------------------------
# Transform identity and inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MacWilliamsReport:
    identity_checked: int
    inequality_checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _profile_counts(c: CodeSet, ell: int, linear: bool) -> dict[int, int]:
    # Integer counts per config index: tuples of codewords for the span
    # formula, pairs of l-tuples (|C|^l times the profile) for the general one.
    idx = config_index(c.n, ell)
    prof = profile_of_code(sorted(c.words), c.n, ell, linear=linear)
    return {idx[cfg]: count for cfg, count in prof.counts.items()}


def _transforms(table_values, prof: dict[int, int]) -> Iterator[int]:
    # sum over g of K_h(g) * prof[g], for every row h, over the support of prof.
    pick = _gather(tuple(prof))
    counts = tuple(prof.values())
    for row in table_values:
        yield sum(map(mul, pick(row), counts))


def verify_macwilliams(c: CodeSet, ell: int) -> MacWilliamsReport:
    """Exact transform checks for one code at level l.

    For a linear code, the transform of its profile must equal |C|^l times
    the dual code's profile, entry by entry.  For any code, the transform
    of the (pair-count) profile must be non-negative in every entry.
    """
    table = cached_table(c.n, ell)
    violations = []
    identity_checked = 0
    if c.linear:
        prof = _profile_counts(c, ell, linear=True)
        dual_prof = _profile_counts(dual_code(c), ell, linear=True)
        scale = c.size**ell
        for h_idx, rhs in enumerate(_transforms(table.values, prof)):
            lhs = scale * dual_prof.get(h_idx, 0)
            identity_checked += 1
            if lhs != rhs:
                violations.append(
                    f"identity at h={h_idx}: {lhs} != {rhs} (|C|={c.size}, l={ell})"
                )
    pair_prof = _profile_counts(c, ell, linear=False)
    inequality_checked = 0
    for h_idx, s in enumerate(_transforms(table.values, pair_prof)):
        inequality_checked += 1
        if s < 0:
            violations.append(f"inequality at h={h_idx}: transform {s} < 0")
    return MacWilliamsReport(identity_checked, inequality_checked, tuple(violations))


# ---------------------------------------------------------------------------
# The unsymmetrized word-tuple LP
# ---------------------------------------------------------------------------


def build_fourier_lp(n: int, d: int, ell: int, linear: bool) -> LinearProgram:
    """LP over one variable per l-tuple of words, one character row per tuple.

    Distance constraints eliminate tuples containing a word of weight
    1..d-1 (general) or spanning any XOR combination of such weight
    (linear); the rows demand non-negativity of every character sum.
    """
    if n < 1 or ell < 1 or not 1 <= d <= n + 1:
        raise ParameterError(f"bad parameters n={n}, d={d}, l={ell}")
    npoints = 1 << (n * ell)
    if npoints > MAX_FOURIER_POINTS:
        raise CapacityError(
            f"2^(n*l) = {npoints} tuple variables exceed the budget {MAX_FOURIER_POINTS}"
        )
    mask = (1 << n) - 1

    def words_of(p: int) -> tuple[int, ...]:
        return tuple((p >> (n * j)) & mask for j in range(ell))

    keep = []
    kept_words = []
    for p in range(npoints):
        ws = words_of(p)
        if linear:
            bad = any(1 <= w < d for w in _sd_entries(ws))
        else:
            bad = any(1 <= w.bit_count() < d for w in ws)
        if not bad:
            keep.append(p)
            kept_words.append(ws)
    norm = LPRow("NORM", tuple(int(p == 0) for p in keep), "=", 1)
    rows = [norm]
    for alpha in range(npoints):
        aw = words_of(alpha)
        coeffs = []
        for ws in kept_words:
            parity = 0
            for a, w in zip(aw, ws):
                parity ^= (a & w).bit_count()
            coeffs.append(-1 if parity & 1 else 1)
        rows.append(LPRow(f"F_{alpha}", tuple(coeffs), ">=", 0))
    return LinearProgram(
        kind="fourier",
        n=n,
        d=d,
        ell=ell,
        linear=linear,
        var_indices=tuple(keep),
        objective=(1,) * len(keep),
        rows=tuple(rows),
    )
