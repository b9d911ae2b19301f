"""Exact evaluation of higher-order Krawtchouk polynomials.

For configurations h and g of l-tuples over F_2^n, the value indexed by
(h, g) is the character sum

    K_h(g) = sum over tuples y with configuration h of
             prod_j (-1)^<x_j, y_j>

where x is any tuple with configuration g (the sum does not depend on the
choice of x).  At l = 1 these are the classical binary Krawtchouk values
K_i(j); higher l refines the Hamming scheme with joint word interactions.

Three independent evaluation routes are implemented:

* ``eval_direct``   - the literal 2^(nl)-term character sum for tiny nl:
                      ``configs.tuple_census``, the count behind code
                      profiles, with y_j weighted by (-1)^<x_j, y_j>,
                      gives column g whole.  Columns are cached, but each
                      further g costs its own 2^(nl) enumeration;
* ``eval_explicit`` - a finite sum over contingency tables whose margins
                      are the two Venn vectors, read as bare cells by
                      ``configs._venn_cells``, g checked before h; polynomially
                      many terms;
* ``build_table``   - the generating function: column g is the coefficient
                      vector of prod_J L_J(z)^venn_g(J) with
                      L_J(z) = sum_K (-1)^|J & K| z_K, multiplied out one
                      linear form at a time.  This is the production path
                      for whole tables and shares no evaluation code
                      with the other two routes.

At l = 1 the product is the classical (1 + z)^(n-j) (1 - z)^j.

All values are arbitrary-precision integers: entries reach 2^(l*n).  As
``LinearProgram`` does, ``KrawtchoukTable`` refuses any entry that is not
exactly an int (a float, a bool, a ``Fraction``) and any non-tuple row.

Two sweeps pack the table by Kronecker substitution: column g becomes one
integer with K_b(g) as its signed digit b in base 2^w, so the sums of
every row against one vector are one linear combination of the packed
columns.  ``pack_columns`` owns the layout: each sweep passes a bound on
every sum it forms, taken from the table's own entries, and gets w, the
digit tops T = sum_b 2^(w b + w - 1) and the columns, so the digits stay
exact for any table:

* the orthogonality sweep bounds its sums by max(max_a sum_g |g| K_a(g)^2,
  2^(l n) max |g|).  By Cauchy-Schwarz the first term bounds every
  pair sum, and the second every expected digit; on a true table the two
  are equal.  Rows go in windows of 16, and before each window every
  packed column is round-shifted in place past the rows already done, so
  a row multiplies only the rows from its window onward.  A row whose
  packed sum differs from its one expected digit is recounted with
  ``configs.row_sums``, every later row summed at the weighted row, and
  each pair that fails is reported;
* ``KrawtchoukTable.transform_packing``, the MacWilliams transform of a
  code profile, bounds them by 2^(2 l n) big, with big the largest
  |entry|: profile counts sum to at most |C|^(2l) <= 2^(2 l n).  Adding
  T then moves each digit into [0, 2^w) with no carry, and
  ``digits_nonnegative`` reads every sign at once: all digits are >= 0
  iff (s + T) & T == T.

``check_table_args`` is the table gate: ``configs.check_config_args``,
then the table's level and cell budgets.  ``build_table`` runs it before
any work, and ``krawlp table`` on its largest table before any solve.

``load_table`` trusts a cache file by one rule: every column g sums to
2^(l n) [g = 0], every unit row matches its closed form, and reflection
holds for every pair.  Summed over all h, K_h(g) is the character sum
over every tuple y, which gives the column sums; a single wrong entry
breaks its column's sum.  The unit configuration e_J (one coordinate in
cell J, n - 1 in cell 0, element J of the canonical order) has the row
K_{e_J}(g) = n - 2 sd_g(J), which ties rows to their labels.
``verify_reflection`` runs last, as the suite runs it.  Reflection with
the column sums gives the weighted row sums sum_g |g| K_h(g) =
|h| sum_g K_g(h) = 2^(l n) [h = 0], and with the unit rows the unit
columns n K_h(e_J) = |h| (n - 2 sd_h(J)), so a swap of two unequal
entries of one column and two swapped rows, columns or labels are
misses.  What the rule cannot see is a symmetric change: +delta on
K_a(a) and K_b(b) and -delta on K_a(b) and K_b(a), with |a| = |b| and
neither a unit row, keeps every column sum, every unit row and
reflection.  ``verify_orthogonality`` caught every such change tried,
but it costs more than the rebuild a miss triggers, and the gap grows
with the table (README gives timings), so the loader does not run it.
The loader and both sweeps read ``KrawtchoukTable.orbit_sizes``, one
per table.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import comb
from operator import add, mul, sub
from pathlib import Path

from .configs import (
    SDConfig,
    _compositions_desc,
    _venn_cells,
    check_config_args,
    config_count,
    enumerate_configs,
    orbit_size,
    representative_tuple,
    row_sums,
    tuple_census,
)
from .errors import (
    CapacityError,
    InvalidInputError,
    canonical_json,
    parsing,
    require_int,
    require_ints,
    require_list,
)

# 2^(n*l) tuples enumerated by the direct route at most, once per column g.
DIRECT_ENUM_BUDGET = 1 << 20
# Full tables are limited to this many cells.
TABLE_CELL_BUDGET = 4_000_000
# Full LP builds keep l small; see configs.MAX_SUBSET_ELL for pure config work.
MAX_TABLE_ELL = 4

TABLE_FORMAT_VERSION = 1

# Rows per window of the orthogonality sweep; see ``verify_orthogonality``.
ORTHOGONALITY_WINDOW = 16


def classical_krawtchouk(i: int, j: int, n: int) -> int:
    """Binary Krawtchouk value K_i(j) = sum_t (-1)^t C(j,t) C(n-j, i-t)."""
    require_int(i, "index i")
    require_int(j, "index j")
    require_int(n, "blocklength n")
    if not (0 <= i <= n and 0 <= j <= n):
        raise InvalidInputError(f"need 0 <= i, j <= n, got i={i}, j={j}, n={n}")
    lo = max(0, i - (n - j))
    hi = min(i, j)
    return sum((-1) ** t * comb(j, t) * comb(n - j, i - t) for t in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Direct character sum
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def _direct_column(g: SDConfig, n: int) -> dict[tuple[int, ...], int]:
    # K_h(g) for every h, keyed by h's sd entries: the census of all tuples
    # y, y_j weighted by (-1)^<x_j, y_j> for the representative x of g.
    signed = [
        [(y, 1 - 2 * ((xj & y).bit_count() & 1)) for y in range(1 << n)]
        for xj in representative_tuple(g, n).words
    ]
    return tuple_census(signed)


def eval_direct(h: SDConfig, g: SDConfig, n: int) -> int:
    """K_h(g) by brute force: one 2^(nl)-tuple census per g, cached, read at h."""
    if h.ell != g.ell:
        raise InvalidInputError(f"mixed levels l={h.ell} and l={g.ell}")
    _venn_cells(h, n)  # validates h and n before the budget check
    if n * h.ell >= DIRECT_ENUM_BUDGET.bit_length():
        raise CapacityError(
            f"2^{n * h.ell} tuples exceed the direct enumeration budget {DIRECT_ENUM_BUDGET}"
        )
    return _direct_column(g, n).get(h.entries, 0)  # the column validates g


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
    return _explicit_from_venn(_venn_cells(g, n), _venn_cells(h, n))


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
        require_int(self.n, "table n")
        require_int(self.ell, "table l")
        if min(self.n, self.ell) < 1:
            raise InvalidInputError(f"table needs n, l >= 1, got n={self.n}, l={self.ell}")
        size = config_count(self.n, self.ell)
        if len(self.values) != size or any(len(r) != size for r in self.values):
            raise InvalidInputError(f"table must be {size}x{size} for n={self.n}, l={self.ell}")
        # Non-int entries break the byte packing and the CSV; list rows, equality.
        if type(self.values) is not tuple or any(type(r) is not tuple for r in self.values):
            raise InvalidInputError("table values must be a tuple of row tuples")
        require_ints(chain.from_iterable(self.values), "table entries")

    @property
    def size(self) -> int:
        return len(self.values)

    @cached_property
    def orbit_sizes(self) -> tuple[int, ...]:
        """|g| for each configuration g in index order, counted once per table."""
        return tuple(orbit_size(c, self.n) for c in enumerate_configs(self.n, self.ell))

    @cached_property
    def transform_packing(self) -> tuple[int, int, list[int]]:
        """``pack_columns`` for profile transforms, packed once per table object.

        The bound 2^(2 l n) big, with big the largest |entry| (at least 1),
        covers sum_g count_g K_h(g) over any non-negative counts that total
        at most 2^(2 l n), and a wanted transform, |C|^l times a dual
        profile, whose digits reach 2^(l n).
        """
        big = max(map(abs, chain.from_iterable(self.values))) or 1
        return pack_columns(self.values, big << (2 * self.ell * self.n))


def check_table_args(n: int, ell: int) -> int:
    """``config_count(n, ell)``, after ``check_config_args`` and the table budgets."""
    count = check_config_args(n, ell)
    if ell > MAX_TABLE_ELL:
        raise CapacityError(f"l={ell} exceeds the table budget l <= {MAX_TABLE_ELL}")
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
    check_table_args(n, ell)
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


@lru_cache(maxsize=None, typed=True)
def cached_table(n: int, ell: int) -> KrawtchoukTable:
    """Process-wide table cache; tables are immutable and safely shared."""
    return build_table(n, ell)


# ---------------------------------------------------------------------------
# Packed columns
# ---------------------------------------------------------------------------


def pack_columns(
    values: tuple[tuple[int, ...], ...], bound: int
) -> tuple[int, int, list[int]]:
    """``(width, tops, columns)``: column g of a square table as one integer.

    ``columns[g]`` is sum_b values[b][g] 2^(width b), each entry a signed
    digit.  ``width`` is the least multiple of 8 that is at least
    bits(bound) + 2, and ``tops`` is T = sum_b 2^(width b + width - 1),
    the top bit of every digit, for ``digits_nonnegative``.  The caller's
    ``bound`` covers every entry and every digit of every linear
    combination it forms, so each lies strictly inside
    (-2^(width-2), 2^(width-2)): the digits stay exact, and a combination
    has the row sums as its digits.
    """
    nbytes = -(-(bound.bit_length() + 2) // 8)
    width = 8 * nbytes
    offset = 1 << (width - 1)
    tops = int.from_bytes(offset.to_bytes(nbytes, "little") * len(values), "little")
    # Offset by 2^(width-1), every entry is one unsigned digit of whole
    # bytes, so a column is one from_bytes, less T.
    columns = [
        int.from_bytes(b"".join([(v + offset).to_bytes(nbytes, "little") for v in col]), "little")
        - tops
        for col in zip(*values)
    ]
    return width, tops, columns


def digits_nonnegative(s: int, tops: int) -> bool:
    """Whether every signed base-2^w digit of ``s`` is >= 0.

    ``tops`` is sum_h 2^(w h + w - 1) over the digits, and each digit must
    lie in [-2^(w-1), 2^(w-1)).  Adding ``tops`` adds 2^(w-1) to every
    digit, which moves each into [0, 2^w) with no carry, so a digit's top
    bit is then set exactly when the digit was >= 0.
    """
    return (s + tops) & tops == tops


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive identity sweep or of a whole suite.

    ``params`` is a suite's grid as ``(name, value)`` pairs, so the report
    stays hashable; a single sweep has none.
    """

    name: str
    checked: int
    violations: tuple[str, ...]
    params: tuple[tuple[str, int], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_orthogonality(table: KrawtchoukTable) -> CheckReport:
    """Check sum_g |g| K_h(g) K_h'(g) = 2^(l n) |h| [h = h'] for all pairs.

    Column g is packed into one integer, packed[g] = sum_b K_b(g) 2^(w b),
    so row a's sums against every row b are the slots of the single
    integer s_a = sum_g |g| K_a(g) packed[g]: ``size`` big-integer products
    per row in place of size^2/2 Python-level dot products.

    Width: by Cauchy-Schwarz with the weights |g| > 0, every pair sum is
    at most max_a sum_g |g| K_a(g)^2 in magnitude, and every wanted digit
    2^(l n) |a| at most 2^(l n) max |g|.  The larger bound goes to
    ``pack_columns``, so each slot is an exact signed digit, and the
    representation is unique.

    Windows: rows are taken ``ORTHOGONALITY_WINDOW`` at a time.  Before
    each window after the first, every packed column is round-shifted in
    place by that many slots, p -> (p + 2^(k w - 1)) >> k w.  The dropped
    digits are entries of the rows before the window, each below 2^(w-2)
    in magnitude because |g| >= 1 puts K_a(g)^2 under the first bound, so
    together they are less than half of 2^(k w), and what is left is
    exactly the columns of the rows from the window onward.  A row's
    pairs with the rows before it were checked at those rows.

    A row passes when its whole s_a equals its only expected digit,
    2^(l n) |a| in slot a; a row that does not has its pairs (a, b >= a)
    recounted by ``configs.row_sums`` (rows b at the point |g| K_a(g))
    and reported one by one.
    """
    sizes = table.orbit_sizes
    values = table.values
    size = table.size
    scale = 1 << (table.ell * table.n)
    diagonal = max(sum(map(mul, map(mul, sizes, row), row)) for row in values)
    width, _, packed = pack_columns(values, max(diagonal, scale * max(sizes)))
    step = ORTHOGONALITY_WINDOW * width
    half = 1 << (step - 1)
    violations = []
    for start in range(0, size, ORTHOGONALITY_WINDOW):
        if start:
            for g, p in enumerate(packed):
                packed[g] = (p + half) >> step
        for a in range(start, min(start + ORTHOGONALITY_WINDOW, size)):
            weighted = list(map(mul, sizes, values[a]))
            want = scale * sizes[a]
            # The whole sum, not a shifted part: a floor shift would fold a
            # negative lower digit into slot a as -1.
            if sum(map(mul, weighted, packed)) != want << (width * (a - start)):
                # Recount the pairs (a, b >= a): rows b summed at row a.
                recounts = row_sums(values[a:], list(enumerate(weighted)))
                for b, got in enumerate(recounts, a):
                    target = want if a == b else 0
                    if got != target:
                        violations.append(f"(h={a}, h'={b}): got {got}, want {target}")
    return CheckReport("orthogonality", size * (size + 1) // 2, tuple(violations))


def verify_reflection(table: KrawtchoukTable) -> CheckReport:
    """Check K_h(g) |g| = K_g(h) |h| for all pairs (cross-multiplied form)."""
    sizes = table.orbit_sizes
    size = table.size
    violations = []
    for a in range(size):
        for b in range(a, size):
            if table.values[a][b] * sizes[b] != table.values[b][a] * sizes[a]:
                violations.append(
                    f"(h={a}, g={b}): {table.values[a][b]}*{sizes[b]} != "
                    f"{table.values[b][a]}*{sizes[a]}"
                )
    return CheckReport("reflection", size * (size + 1) // 2, tuple(violations))


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
    """Write a table to the binary cache at gzip level 6; deterministic bytes (mtime 0)."""
    path = table_cache_path(cache_dir, table.n, table.ell)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The bytes of canonical_json over the whole payload, with "values"
    # (its last key) encoded one row at a time: in one call, json's C
    # encoder holds a string per number until it joins them, 4.1 MB of
    # peak allocations at (10,2) against 0.9 MB row by row.
    head = canonical_json({"format": TABLE_FORMAT_VERSION, "l": table.ell, "n": table.n})
    rows = ",".join(map(canonical_json, table.values))
    raw = f'{head[:-1]},"values":[{rows}]}}'.encode("ascii")
    path.write_bytes(gzip.compress(raw, compresslevel=6, mtime=0))
    return path


def load_table(n: int, ell: int, cache_dir: str | Path) -> KrawtchoukTable | None:
    """Load a cached table, or None on a miss.

    A missing or undecodable file (a bad gzip header or a garbled deflate
    body included), a format, n or l that is not exactly the wanted int
    (another version or (n, l), or a float or JSON boolean equal to it),
    an entry that ``KrawtchoukTable`` refuses (a float or a JSON boolean,
    equal to an int), or a table that breaks the cache rule is a miss, so
    the caller rebuilds the table and overwrites the file.  The rule,
    cheapest check first: every column g sums to 2^(l n) [g = 0], every
    unit row J = 1 .. 2^l - 1 is n - 2 sd_g(J), and ``verify_reflection``
    passes.  See the module docstring for why these imply the weighted
    row sums and the unit columns, and for the symmetric changes they
    cannot see.
    """
    path = table_cache_path(cache_dir, n, ell)
    if not path.is_file():
        return None
    try:
        with parsing("table cache"):
            with gzip.open(path, "rt", encoding="ascii") as fh:
                payload = json.load(fh)
            header = tuple(require_int(payload[k], f"table {k}") for k in ("format", "n", "l"))
            if header != (TABLE_FORMAT_VERSION, n, ell):
                return None
            # Each row list is replaced by its tuple as it is read, so the
            # JSON lists are freed as the conversion goes.
            values = require_list(payload.pop("values"), "table values")
            for i, row in enumerate(values):
                values[i] = tuple(row)
            table = KrawtchoukTable(n, ell, tuple(values))
    except (gzip.BadGzipFile, zlib.error, EOFError, InvalidInputError):
        return None
    if list(map(sum, zip(*table.values))) != [1 << (ell * n)] + [0] * (table.size - 1):
        return None
    configs = enumerate_configs(n, ell)
    for j in range(1, 1 << ell):
        if list(table.values[j]) != [n - 2 * g.entries[j] for g in configs]:
            return None
    return table if verify_reflection(table).passed else None
