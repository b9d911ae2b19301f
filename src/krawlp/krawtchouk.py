"""Exact evaluation of higher-order Krawtchouk polynomials.

For configurations h and g of l-tuples over F_2^n, the value indexed by
(h, g) is the character sum

    K_h(g) = sum over tuples y with configuration h of
             prod_j (-1)^<x_j, y_j>

where x is any tuple with configuration g (the sum does not depend on the
choice of x).  At l = 1 these are the classical binary Krawtchouk values
K_i(j); higher l refines the Hamming scheme with joint word interactions.

Three independent evaluation routes are implemented:

* ``eval_direct``   - the literal 2^(nl)-term character sum; brute-force
                      oracle, only usable for tiny nl;
* ``eval_explicit`` - a finite sum over contingency tables whose margins
                      are the two Venn vectors; polynomially many terms;
* ``build_table``   - the generating function: column g is the coefficient
                      vector of prod_J L_J(z)^venn_g(J) with
                      L_J(z) = sum_K (-1)^|J & K| z_K, multiplied out one
                      linear form at a time.  This is the production path
                      for whole tables and shares no evaluation code
                      with the other two routes.

At l = 1 the product is the classical (1 + z)^(n-j) (1 - z)^j.

All values are arbitrary-precision integers: entries reach 2^(l*n).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, mul, sub
from pathlib import Path

from .configs import (
    SDConfig,
    _compositions_desc,
    _sd_entries,
    config_count,
    enumerate_configs,
    orbit_size,
    representative_tuple,
    sd_to_venn,
)
from .errors import CapacityError, InvalidInputError, ParameterError

# 2^(n*l) tuples enumerated by the direct route at most; their partition
# by configuration is cached, so this also bounds that cache.
DIRECT_ENUM_BUDGET = 1 << 20
# Full tables are limited to this many cells.
TABLE_CELL_BUDGET = 4_000_000
# Full LP builds keep l small; see configs.MAX_SUBSET_ELL for pure config work.
MAX_TABLE_ELL = 4

TABLE_FORMAT_VERSION = 1


def classical_krawtchouk(i: int, j: int, n: int) -> int:
    """Binary Krawtchouk value K_i(j) = sum_t (-1)^t C(j,t) C(n-j, i-t)."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ParameterError(f"need 0 <= i, j <= n, got i={i}, j={j}, n={n}")
    lo = max(0, i - (n - j))
    hi = min(i, j)
    return sum((-1) ** t * comb(j, t) * comb(n - j, i - t) for t in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Direct character sum
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _tuples_by_config(n: int, ell: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    # Partition of all 2^(n*l) tuples by configuration entries.  Only the
    # latest (n, l) is kept: one partition at n*l = 18 holds about 24 MB.
    mask = (1 << n) - 1
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in range(1 << (n * ell)):
        words = tuple((p >> (n * j)) & mask for j in range(ell))
        buckets.setdefault(_sd_entries(words), []).append(words)
    return buckets


def _char_sum(x_words: tuple[int, ...], tuples: list[tuple[int, ...]]) -> int:
    acc = 0
    for y in tuples:
        parity = 0
        for xj, yj in zip(x_words, y):
            parity ^= (xj & yj).bit_count()
        acc += 1 - ((parity & 1) << 1)
    return acc


def eval_direct(h: SDConfig, g: SDConfig, n: int) -> int:
    """K_h(g) by brute-force enumeration of all tuples with configuration h."""
    if h.ell != g.ell:
        raise InvalidInputError(f"mixed levels l={h.ell} and l={g.ell}")
    ell = h.ell
    total = 1 << (n * ell)
    if total > DIRECT_ENUM_BUDGET:
        raise CapacityError(
            f"2^(n*l) = {total} tuples exceed the direct enumeration budget "
            f"{DIRECT_ENUM_BUDGET}"
        )
    x = representative_tuple(g, n).words
    sd_to_venn(h, n)  # validates h for this blocklength
    return _char_sum(x, _tuples_by_config(n, ell).get(h.entries, []))


# ---------------------------------------------------------------------------
# Explicit contingency-table formula
# ---------------------------------------------------------------------------


def _explicit_from_venn(vg: tuple[int, ...], vh: tuple[int, ...]) -> int:
    """Sum over non-negative integer matrices F with row sums vg and column
    sums vh of  multinomial(vg(J); F(J,.)) * (-1)^(sum of F(J,K) over cells
    with |J & K| odd)."""
    m = len(vg)
    odd_cell = [[(j & k).bit_count() & 1 for k in range(m)] for j in range(m)]
    rem = list(vh)
    total = 0

    def fill(row: int, col: int, left: int, coef: int, parity: int) -> None:
        nonlocal total
        if row == m:
            total += -coef if parity else coef
            return
        if col == m:
            nxt = row + 1
            fill(nxt, 0, vg[nxt] if nxt < m else 0, coef, parity)
            return
        tail = sum(rem[col + 1 :])
        f_min = left - tail if left > tail else 0
        f_max = left if left < rem[col] else rem[col]
        for f in range(f_min, f_max + 1):
            rem[col] -= f
            fill(
                row,
                col + 1,
                left - f,
                coef * comb(left, f),
                parity ^ (odd_cell[row][col] & f),
            )
            rem[col] += f

    fill(0, 0, vg[0], 1, 0)
    return total


def eval_explicit(h: SDConfig, g: SDConfig, n: int) -> int:
    """K_h(g) via the contingency-table formula; O(n^(2^(2l))) terms."""
    if h.ell != g.ell:
        raise InvalidInputError(f"mixed levels l={h.ell} and l={g.ell}")
    vg = sd_to_venn(g, n).entries
    vh = sd_to_venn(h, n).entries
    return _explicit_from_venn(vg, vh)


# ---------------------------------------------------------------------------
# Full tables via the generating function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrawtchoukTable:
    """All values K_h(g) at one (n, l), indexed by canonical config order.

    Row index is h, column index is g.  Column 0 (trivial g) holds the
    orbit sizes; row 0 (trivial h) is all ones; every entry is bounded in
    magnitude by 2^(l*n).
    """

    n: int
    ell: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size = config_count(self.n, self.ell)
        if len(self.values) != size or any(len(r) != size for r in self.values):
            raise InvalidInputError(f"table must be {size}x{size} for n={self.n}, l={self.ell}")

    @property
    def size(self) -> int:
        return len(self.values)


def _check_table_budget(n: int, ell: int) -> int:
    if n < 1 or ell < 1:
        raise ParameterError(f"need n >= 1 and l >= 1, got n={n}, l={ell}")
    if ell > MAX_TABLE_ELL:
        raise CapacityError(f"l={ell} exceeds the table budget l <= {MAX_TABLE_ELL}")
    count = config_count(n, ell)
    if count * count > TABLE_CELL_BUDGET:
        raise CapacityError(
            f"{count}^2 table cells exceed the budget {TABLE_CELL_BUDGET}"
        )
    return count


def build_table(n: int, ell: int) -> KrawtchoukTable:
    """Full table of K_h(g) values from the generating function.

    Column g holds the coefficients of prod_J L_J(z)^venn_g(J), where
    L_J(z) = sum_K (-1)^|J & K| z_K and the coefficient of the monomial
    z^venn_h is K_h(g).  The product is taken one linear form at a time,
    degree by degree: the column of a Venn vector v of degree m is the
    column of v minus its smallest nonempty cell j, multiplied by L_j.
    Every Venn vector of degree m < n is such a prefix of one of degree n,
    so each degree keeps one column per monomial and only two degrees are
    alive at once.
    """
    _check_table_budget(n, ell)
    cells = 1 << ell
    odd = [[(j & k).bit_count() & 1 for k in range(cells)] for j in range(cells)]
    index = {(0,) * cells: 0}
    columns = {(0,) * cells: [1]}
    for m in range(1, n + 1):
        monomials = tuple(_compositions_desc(m, cells))
        # shifts[k][i]: position of monomial i divided by z_k one degree
        # down, or the zero padding slot past the end when cell k is empty.
        pad = len(index)
        shifts = [
            [index[u[:k] + (u[k] - 1,) + u[k + 1 :]] if u[k] else pad for u in monomials]
            for k in range(cells)
        ]
        new_columns = {}
        for v in monomials:
            j = 0
            while not v[j]:
                j += 1
            get = (columns[v[:j] + (v[j] - 1,) + v[j + 1 :]] + [0]).__getitem__
            col = list(map(get, shifts[0]))
            for k in range(1, cells):
                col = list(map(sub if odd[j][k] else add, col, map(get, shifts[k])))
            new_columns[v] = col
        index = {u: i for i, u in enumerate(monomials)}
        columns = new_columns
    # Degree-n monomials are the Venn vectors in canonical config order.
    return KrawtchoukTable(n, ell, tuple(zip(*columns.values())))


@lru_cache(maxsize=None)
def cached_table(n: int, ell: int) -> KrawtchoukTable:
    """Process-wide table cache; tables are immutable and safely shared."""
    return build_table(n, ell)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive identity sweep."""

    name: str
    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_orthogonality(table: KrawtchoukTable) -> CheckReport:
    """Check sum_g |g| K_h(g) K_h'(g) = 2^(l n) |h| [h = h'] for all pairs."""
    configs = enumerate_configs(table.n, table.ell)
    sizes = [orbit_size(c, table.n) for c in configs]
    scale = 1 << (table.ell * table.n)
    violations = []
    checked = 0
    for a in range(len(configs)):
        wa = list(map(mul, sizes, table.values[a]))
        for b in range(a, len(configs)):
            s = sum(map(mul, wa, table.values[b]))
            want = scale * sizes[a] if a == b else 0
            checked += 1
            if s != want:
                violations.append(f"(h={a}, h'={b}): got {s}, want {want}")
    return CheckReport("orthogonality", checked, tuple(violations))


def verify_reflection(table: KrawtchoukTable) -> CheckReport:
    """Check K_h(g) |g| = K_g(h) |h| for all pairs (cross-multiplied form)."""
    configs = enumerate_configs(table.n, table.ell)
    sizes = [orbit_size(c, table.n) for c in configs]
    violations = []
    checked = 0
    for a in range(len(configs)):
        for b in range(a, len(configs)):
            checked += 1
            if table.values[a][b] * sizes[b] != table.values[b][a] * sizes[a]:
                violations.append(
                    f"(h={a}, g={b}): {table.values[a][b]}*{sizes[b]} != "
                    f"{table.values[b][a]}*{sizes[a]}"
                )
    return CheckReport("reflection", checked, tuple(violations))


# ---------------------------------------------------------------------------
# Exports and cache
# ---------------------------------------------------------------------------


def table_to_csv(table: KrawtchoukTable) -> str:
    """CSV rendering; row/column headers are canonical config indices."""
    header = "h/g," + ",".join(str(i) for i in range(table.size))
    lines = [header]
    for i, row in enumerate(table.values):
        lines.append(str(i) + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def table_cache_path(cache_dir: str | Path, n: int, ell: int) -> Path:
    return Path(cache_dir) / f"ktable-n{n}-l{ell}-v{TABLE_FORMAT_VERSION}.json.gz"


def save_table(table: KrawtchoukTable, cache_dir: str | Path) -> Path:
    """Write a table to the binary cache; deterministic bytes (mtime 0)."""
    path = table_cache_path(cache_dir, table.n, table.ell)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": TABLE_FORMAT_VERSION,
        "n": table.n,
        "l": table.ell,
        "values": [list(row) for row in table.values],
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(raw)
    return path


def _plausible(table: KrawtchoukTable) -> bool:
    # O(size) checks of a loaded table: the trivial row is all ones, the
    # trivial column holds the orbit sizes, and reflection holds on a fixed
    # sample of one pair per row.
    size = table.size
    values = table.values
    sizes = [orbit_size(c, table.n) for c in enumerate_configs(table.n, table.ell)]
    if any(v != 1 for v in values[0]):
        return False
    if any(row[0] != w for row, w in zip(values, sizes)):
        return False
    for a in range(size):
        b = (7 * a + 1) % size
        if values[a][b] * sizes[b] != values[b][a] * sizes[a]:
            return False
    return True


def load_table(n: int, ell: int, cache_dir: str | Path) -> KrawtchoukTable | None:
    """Load a cached table, or None on a miss.

    A missing or undecodable file, another format version, another (n, l),
    or a table that fails the cheap checks of ``_plausible`` is a miss, so
    the caller rebuilds the table and overwrites the file.
    """
    path = table_cache_path(cache_dir, n, ell)
    if not path.is_file():
        return None
    try:
        with gzip.open(path, "rt", encoding="ascii") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != TABLE_FORMAT_VERSION:
            return None
        if (payload["n"], payload["l"]) != (n, ell):
            return None
        table = KrawtchoukTable(n, ell, tuple(tuple(row) for row in payload["values"]))
        plausible = _plausible(table)
    except (
        gzip.BadGzipFile,
        EOFError,
        UnicodeDecodeError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        InvalidInputError,
    ):
        return None
    return table if plausible else None
