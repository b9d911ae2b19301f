"""Exact configuration arithmetic for tuples of binary words.

An l-tuple (z_1, ..., z_l) of words in F_2^n is summarized, up to a common
coordinate permutation, by two equivalent integer vectors indexed by the
subsets J of {1, ..., l}:

* symmetric-difference form ``sd``: sd(J) is the Hamming weight of the XOR
  of the words selected by J (so sd(empty) = 0);
* Venn form ``venn``: venn(J) counts the coordinate positions where exactly
  the words selected by J carry a 1 (so the cells partition [n] and the
  entries add up to n).

The two forms are linked by a mutually inverse pair of linear maps:

    sd(J)   = sum over T with |T & J| odd of venn(T)
    venn(J) = n*[J = empty] + 2^(1-l) * sum over T of (-1)^(|T & J| - 1) sd(T)

The first map is the subset-parity transform; ``iter_configs`` and
``venn_to_sd`` evaluate it.  The second is, up to sign and scale, the
Walsh-Hadamard transform H(sd)(J) = sum over T of (-1)^|T & J| sd(T):
2^(l-1) venn = (n 2^(l-1) - H(0), -H(1), ..., -H(2^l - 1)), which
``sd_to_venn`` evaluates by the fast butterfly (Fino and Algazi 1976) in
l 2^l additions and subtractions.  ``_venn_cells`` is that inversion with
its n gate and its not-a-configuration refusal; ``orbit_size``,
``representative_tuple``, ``config_to_json`` and the Krawtchouk routes read
its cells directly, and ``sd_to_venn`` wraps them in a ``VennConfig``.

The public constructors ``SDConfig`` and ``VennConfig`` check every field.
Both need a tuple of exact ints (``require_int`` rules) whose count is a
power of two >= 2; ``SDConfig`` needs sd(empty) = 0 and no negative weight,
``VennConfig`` no negative cell, an int n >= 1 and cells adding up to n.
They are the one way in for outside
values (JSON, tests, library callers).  The operations of this module build
their results with the proved constructors ``_proved_sd`` and
``_proved_venn`` instead, which skip ``__post_init__``, because the
arithmetic that made each result proves its fields:

* ``iter_configs`` and ``venn_to_sd``: the forward transform of 2^l
  nonnegative int cells is a tuple of 2^l nonnegative ints whose entry 0 is
  the literal 0;
* ``sd_to_venn``: ``_venn_cells`` has checked n, the inverse kernel returns
  2^l nonnegative int cells or refuses, and the cells add up to
  n - 2 sd(empty) = n;
* ``config_of_tuple`` and ``venn_of_tuple``: the popcounts of the subset
  XORs of a checked ``WordTuple``, the empty XOR 0 first, and the counts of
  its n positions by cell.

No other module names the proved constructors.

Each level l gets one kernel bundle, generated as straight-line code by
``_build_kernels``: the forward transform, the inverse with its
divisibility check, and the inner loop of ``tuple_census``.  One dict,
``_KERNELS``, serves all three, keyed by the entry count 2^l: a conversion
finds its bundle as ``_KERNELS[len(entries)]``, and a walk or census of
level l as ``_KERNELS[1 << l]``.  It compiles each level on its first
use: a process compiles only the levels it uses (``krawlp solve --l 2``
never compiles level 3), and as a dict has no ``cache_clear``, emptying the
``lru_cache``s never compiles a level again.  Above ``MAX_SUBSET_ELL``
every conversion and census raises ``CapacityError`` before compiling
anything.

The two F_2 kernels of every linear code in ``oracle`` and ``lp``:
``_subset_xors`` turns words into their subset XORs (popcounts: sd entries;
over a basis: its span), ``_basis`` into their span's RREF, pivots on lowest
set bits (their rank is its length).  ``tuple_census``, the one weighted count
of word tuples by sd entries, serves code profiles and the direct Krawtchouk sum.
``row_sums`` is the one sum of rows at a sparse point, each row read by
``_gather``: the LP certificates and the transform recounts use it.

Two tuples have equal configurations exactly when one is a coordinate
permutation of the other, so a configuration names an S_n-orbit of tuples;
``orbit_size`` counts the orbit as a multinomial.  The number of distinct
configurations is C(n + 2^l - 1, 2^l - 1): one per weak composition of n
into 2^l Venn cells.  ``iter_configs`` is the one walk over them, in
canonical order and one at a time, so a sweep that reads a level once holds
one configuration; ``enumerate_configs`` is its cached tuple, for the
readers that index a level or read it again (program builders,
``config_index``, ``forbidden_configs``, tables).

``too_close`` is the one distance rule on sd entries: every program builder
keeps exactly the points it does not exclude.

Two gates run before any work.  ``check_config_args`` is the one (n, l)
range check, with the enumeration budget; table and profile builders call
it too.  An n or l that is not exactly an int (a float, a bool) is an
``InvalidInputError`` there, in ``sd_to_venn`` and in ``VennConfig``, and so
is a configuration entry in ``SDConfig`` and ``VennConfig``.
``check_words`` is the one word check, shared by ``WordTuple`` and
``lp.CodeSet``.

Subsets are encoded as bitmasks (bit j-1 of the mask is element j),
configurations as dense tuples of length 2^l, and every computation here is
exact integer arithmetic; nothing in this module touches floating point.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from operator import itemgetter, mul
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CapacityError,
    InvalidInputError,
    canonical_json,
    parsing,
    require_int,
)

# Dense 2^l vectors and composition counts stay small only for small l.
MAX_SUBSET_ELL = 6
# Cap on C(n + 2^l - 1, 2^l - 1) for a single enumeration.
MAX_CONFIG_COUNT = 2_000_000


def config_count(n: int, ell: int) -> int:
    """Number of distinct configurations of l-tuples of words in F_2^n."""
    return comb(n + (1 << ell) - 1, (1 << ell) - 1)


def check_config_args(n: int, ell: int) -> int:
    """``config_count(n, ell)``, after the one (n, l) range check and the enumeration budget.

    Enumeration, tables and code profiles run it before any work.
    """
    require_int(n, "blocklength n")
    require_int(ell, "level l")
    if n < 1 or ell < 1:
        raise InvalidInputError(f"need n >= 1 and l >= 1, got n={n}, l={ell}")
    if ell > MAX_SUBSET_ELL:
        raise CapacityError(f"l={ell} exceeds the configuration budget l <= {MAX_SUBSET_ELL}")
    count = config_count(n, ell)
    if count > MAX_CONFIG_COUNT:
        # Symbolic: the count itself can be too long to print.
        cells = (1 << ell) - 1
        raise CapacityError(
            f"C({n + cells}, {cells}) configurations exceed the enumeration budget "
            f"{MAX_CONFIG_COUNT}"
        )
    return count


def check_words(words: Iterable[int], n: int) -> None:
    """Raise ``InvalidInputError`` unless n >= 1 and every word is an n-bit
    int (exactly an int: not a bool, a float or a string)."""
    top = 1 << require_int(n, "blocklength n", 1)
    if any(type(w) is not int or w < 0 or w >= top for w in words):
        raise InvalidInputError(f"words must be {n}-bit integers")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _check_entries(entries: object) -> None:
    """Refuse configuration entries unless they are a tuple of exact ints
    (``require_int`` rules) whose count is a power of two >= 2."""
    if type(entries) is not tuple or any(type(e) is not int for e in entries):
        raise InvalidInputError(f"entries must be a tuple of ints, got {entries!r}")
    m = len(entries)
    if m < 2 or m & (m - 1):
        raise InvalidInputError(f"entry count {m} is not a power of two >= 2")


@dataclass(frozen=True)
class SDConfig:
    """Weights of all XOR combinations of a word tuple, by subset bitmask."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_entries(self.entries)
        if self.entries[0] != 0:
            raise InvalidInputError("weight of the empty combination must be 0")
        if min(self.entries) < 0:
            raise InvalidInputError("weights cannot be negative")

    @property
    def ell(self) -> int:
        return (len(self.entries) - 1).bit_length()

    @property
    def is_trivial(self) -> bool:
        return not any(self.entries)


@dataclass(frozen=True)
class VennConfig:
    """Cell sizes of the common support partition, by subset bitmask."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        _check_entries(self.entries)
        if require_int(self.n, "blocklength n") < 1:
            raise InvalidInputError("blocklength must be positive")
        if min(self.entries) < 0:
            raise InvalidInputError("cell sizes cannot be negative")
        if sum(self.entries) != self.n:
            raise InvalidInputError(
                f"cell sizes add up to {sum(self.entries)}, expected n={self.n}"
            )

    @property
    def ell(self) -> int:
        return (len(self.entries) - 1).bit_length()


# The proved constructors: a configuration whose fields the caller's own
# arithmetic has proved valid, built without ``__post_init__``.  The module
# docstring lists each caller and its proof.


def _proved_sd(entries: tuple[int, ...]) -> SDConfig:
    g = object.__new__(SDConfig)
    object.__setattr__(g, "entries", entries)
    return g


def _proved_venn(entries: tuple[int, ...], n: int) -> VennConfig:
    v = object.__new__(VennConfig)
    object.__setattr__(v, "entries", entries)
    object.__setattr__(v, "n", n)
    return v


@dataclass(frozen=True)
class WordTuple:
    """An l-tuple of words of F_2^n, each word an n-bit integer."""

    words: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        # A list would leave the frozen value unhashable.
        if type(self.words) is not tuple:
            raise InvalidInputError(f"tuple words must be a tuple, got {self.words!r}")
        ell = len(self.words)
        # config_of_tuple and venn_of_tuple allocate dense 2^l vectors.
        if not 1 <= ell <= MAX_SUBSET_ELL:
            raise InvalidInputError(f"tuple length {ell} outside 1..{MAX_SUBSET_ELL}")
        check_words(self.words, self.n)

    @property
    def ell(self) -> int:
        return len(self.words)

    @classmethod
    def from_strings(cls, bits: Sequence[str]) -> "WordTuple":
        """Build a tuple from 0/1 strings; all strings must share one length."""
        if type(bits) is str or not all(type(s) is str for s in bits):
            raise InvalidInputError(f"a word tuple is a sequence of strings, got {bits!r}")
        if not bits:
            raise InvalidInputError("empty word tuple")
        lengths = {len(s) for s in bits}
        if len(lengths) != 1:
            raise InvalidInputError(f"mismatched word lengths {sorted(lengths)}")
        (n,) = lengths
        if not n:
            raise InvalidInputError("empty word")
        words = []
        for s in bits:
            if set(s) - {"0", "1"}:
                raise InvalidInputError(f"word {s!r} is not a 0/1 string")
            # leftmost character is coordinate 1 (bit 0)
            words.append(int(s[::-1], 2))
        return cls(tuple(words), n)


# ---------------------------------------------------------------------------
# Subset parity tables
# ---------------------------------------------------------------------------


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A C-level gather of ``seq[i] for i in indices``, a tuple for a tuple ``seq``.

    ``itemgetter`` returns a bare item for one index and raises for none.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return lambda seq: ()


def row_sums(rows: Iterable[Sequence], support: Collection[tuple[int, int]]) -> Iterator:
    """Yield ``sum(row[i] * count for i, count in support)`` for each row.

    The sum runs over the ``(index, count)`` support only; every caller's
    rows and counts are ints, so every sum is an exact int.
    """
    pick = _gather([i for i, _ in support])
    counts = [c for _, c in support]
    for row in rows:
        yield sum(map(mul, pick(row), counts))


class _Kernels(NamedTuple):
    forward: Callable[[Sequence[int]], tuple[int, ...]]
    inverse: Callable[[Sequence[int], int], tuple[int, ...] | None]
    census: Callable[[list, Sequence[tuple[int, int]], Counter], None]


def _build_kernels(ell: int) -> _Kernels:
    """The kernel bundle of level l: three straight-line functions, compiled once.

    The source holds only integer indices derived from ``ell``; at l = 2 it is

        def forward(x):
            return (0, x[1]+x[3], x[2]+x[3], x[1]+x[2])

        def inverse(x, n):
            x0, x1, x2, x3 = x
            x0, x1 = -x0-x1, x1-x0
            x2, x3 = -x2-x3, x3-x2
            x0, x2 = x0+x2, x0-x2
            x1, x3 = x1+x3, x1-x3
            x0 += n << 1
            merged = x0 | x1 | x2 | x3
            if merged < 0 or merged & 1:
                return None
            return (x0 >> 1, x1 >> 1, x2 >> 1, x3 >> 1)

        def census(prefixes, last, counts):
            for (_, x1), weight in prefixes:
                h1 = x1.bit_count()
                for u, mult in last:
                    counts[(0, h1, u.bit_count(), (x1 ^ u).bit_count())] += weight * mult

    ``forward`` is the subset-parity transform: entry J sums the 2^(l-1)
    entries T with |T & J| odd (none for J = 0).  ``inverse`` is the
    Walsh-Hadamard butterfly, l stages of 2^(l-1) pairs, with the sign
    folded into the first stage: it yields -H(x), and with n * 2^(l-1) added
    to cell 0 the 2^(l-1)-scaled Venn cells.  It returns them divided by
    2^(l-1), or None when a cell is negative (then so is ``merged``, the OR
    of all cells) or has a remainder (a low bit of ``merged``).  ``census``
    adds the weight of every (prefix, last word) pair of ``tuple_census``
    under its sd entries, in one tuple display; the prefix XORs start with
    the empty subset's 0.
    """
    m = 1 << ell
    half = m >> 1
    shift = ell - 1
    cells = [f"x{j}" for j in range(m)]
    forward = ", ".join(
        ["0"]
        + ["+".join(f"x[{t}]" for t in range(m) if (t & j).bit_count() & 1) for j in range(1, m)]
    )
    butterfly = []
    for bit in (1 << k for k in range(ell)):
        for i in range(m):
            if not i & bit:
                a, b = f"x{i}", f"x{i | bit}"
                sums = f"-{a}-{b}, {b}-{a}" if bit == 1 else f"{a}+{b}, {a}-{b}"
                butterfly.append(f"    {a}, {b} = {sums}")
    scaled = [f"{c} >> {shift}" for c in cells] if shift else cells
    low = f" or merged & {half - 1}" if shift else ""
    xors = [f"x{i}" for i in range(1, half)]
    unpack = ", ".join(["_", *xors]) if xors else "_,"
    heads = [f"h{i}" for i in range(1, half)]
    key = ["0", *heads, "u.bit_count()", *(f"({x} ^ u).bit_count()" for x in xors)]
    source = "\n".join(
        [
            "def forward(x):",
            f"    return ({forward})",
            "def inverse(x, n):",
            f"    {', '.join(cells)} = x",
            *butterfly,
            f"    x0 += n << {shift}" if shift else "    x0 += n",
            f"    merged = {' | '.join(cells)}",
            f"    if merged < 0{low}:",
            "        return None",
            f"    return ({', '.join(scaled)})",
            "def census(prefixes, last, counts):",
            f"    for ({unpack}), weight in prefixes:",
            *(f"        {h} = {x}.bit_count()" for h, x in zip(heads, xors)),
            "        for u, mult in last:",
            f"            counts[({', '.join(key)})] += weight * mult",
        ]
    )
    namespace: dict = {}
    exec(compile(source, f"<kernels l={ell}>", "exec"), namespace)
    return _Kernels(namespace["forward"], namespace["inverse"], namespace["census"])


class _KernelTable(dict):
    """Kernel bundles keyed by entry count 2^l, each compiled on its first use.

    ``_KERNELS[len(entries)]`` is the bundle of the level of a configuration's
    entries; above ``MAX_SUBSET_ELL`` it raises ``CapacityError`` before
    compiling 2^(2l-1) terms.
    """

    def __missing__(self, count: int) -> _Kernels:
        ell = count.bit_length() - 1
        if ell > MAX_SUBSET_ELL:
            raise CapacityError(f"l={ell} exceeds the configuration budget l <= {MAX_SUBSET_ELL}")
        if ell < 1:
            raise InvalidInputError(f"level l={ell} is below 1")
        bundle = self[count] = _build_kernels(ell)
        return bundle


_KERNELS = _KernelTable()


def _subset_xors(words: Sequence[int]) -> list[int]:
    # The XOR of the words each subset bitmask selects, in bitmask order:
    # word j appends the XORs with bit j set.  Over a basis, its span.
    xors = [0]
    for w in words:
        xors += [x ^ w for x in xors]
    return xors


def _basis(words: Iterable[int]) -> list[int]:
    # The RREF that ``oracle._iter_rref`` enumerates: each row's lowest set bit
    # is its pivot, clear in every other row; rows in increasing pivot order.
    rows: list[tuple[int, int]] = []  # (pivot bit, row)
    for cur in words:
        for p, b in rows:
            if cur & p:
                cur ^= b
        if cur:
            low = cur & -cur
            rows = [(p, b ^ cur) if b & low else (p, b) for p, b in rows]
            rows.append((low, cur))
    return [b for _, b in sorted(rows)]


def _sd_entries(words: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(int.bit_count, _subset_xors(words)))


def tuple_census(positions: Sequence[Sequence[tuple[int, int]]]) -> Counter:
    """Total weight m_1 * ... * m_l of the tuples (u_1, ..., u_l), by sd entries.

    Position j lists the ``(u_j, m_j)`` pairs it draws from; the subset XORs
    of the first l-1 words are built once and shared by every last word.
    """
    census_tail = _KERNELS[1 << len(positions)].census
    prefixes = [([0], 1)]
    for items in positions[:-1]:
        prefixes = [
            (xors + [x ^ u for x in xors], weight * mult)
            for xors, weight in prefixes
            for u, mult in items
        ]
    census: Counter = Counter()
    census_tail(prefixes, positions[-1], census)
    return census


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def config_of_tuple(t: WordTuple) -> SDConfig:
    """Symmetric-difference configuration of a word tuple."""
    return _proved_sd(_sd_entries(t.words))


def venn_of_tuple(t: WordTuple) -> VennConfig:
    """Venn configuration of a word tuple: support-partition cell sizes."""
    counts = [0] * (1 << t.ell)
    for i in range(t.n):
        cell = 0
        for j, w in enumerate(t.words):
            cell |= ((w >> i) & 1) << j
        counts[cell] += 1
    return _proved_venn(tuple(counts), t.n)


def _venn_cells(g: SDConfig, n: int) -> tuple[int, ...]:
    """The Venn cells of ``sd_to_venn(g, n)``, without building a ``VennConfig``."""
    require_int(n, "blocklength n")
    if n < 1:
        raise InvalidInputError("blocklength must be positive")
    cells = _KERNELS[len(g.entries)].inverse(g.entries, n)
    if cells is None:
        raise InvalidInputError(f"weight vector {g.entries} is not a configuration at n={n}")
    return cells


def sd_to_venn(g: SDConfig, n: int) -> VennConfig:
    """Invert the weight vector into Venn cell sizes for blocklength n.

    Evaluated in exact integers by the level's ``inverse`` kernel: the
    2^(l-1)-scaled cells come first and are divided with a divisibility
    check.  A remainder or a negative cell signals that ``g`` is not the
    configuration of any tuple in F_2^n.
    """
    return _proved_venn(_venn_cells(g, n), n)


def venn_to_sd(v: VennConfig) -> SDConfig:
    """Weights of all XOR combinations from Venn cell sizes."""
    return _proved_sd(_KERNELS[len(v.entries)].forward(v.entries))


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Weak compositions in descending lexicographic order: (total, 0, ..., 0)
    # comes first, (0, ..., 0, total) last.  The successor moves one unit
    # from the last nonzero part before the final one into the part after
    # it, together with the whole final part.
    comp = [0] * parts
    comp[0] = total
    last = parts - 1
    while True:
        yield tuple(comp)
        i = last - 1
        while i >= 0 and not comp[i]:
            i -= 1
        if i < 0:
            return
        comp[i] -= 1
        moved = comp[last] + 1
        comp[last] = 0
        comp[i + 1] = moved


def iter_configs(n: int, ell: int) -> Iterator[SDConfig]:
    """All configurations for (n, l), in canonical order, one at a time.

    Canonical order is lexicographic on the Venn vector read in increasing
    bitmask order, largest first, so the trivial configuration (all Venn
    mass on the empty cell) is element 0.  The ordering is part of the
    serialization contract: LP variables, table rows and columns all use it.
    ``check_config_args`` runs at the call, before the first configuration.
    """
    check_config_args(n, ell)
    return map(_proved_sd, map(_KERNELS[1 << ell].forward, _compositions_desc(n, 1 << ell)))


# typed: 3.0 and True hash like 3 and 1, and must reach the gate, not the cache.
@lru_cache(maxsize=None, typed=True)
def enumerate_configs(n: int, ell: int) -> tuple[SDConfig, ...]:
    """``iter_configs(n, ell)`` as a tuple, kept for the readers that index it or read it twice."""
    return tuple(iter_configs(n, ell))


@lru_cache(maxsize=None, typed=True)
def config_index(n: int, ell: int) -> dict[tuple[int, ...], int]:
    """Sd entry tuple -> position in the canonical enumeration.  Treat as read-only."""
    return {g.entries: i for i, g in enumerate(enumerate_configs(n, ell))}


def orbit_size(g: SDConfig, n: int) -> int:
    """Number of l-tuples in F_2^n whose configuration is ``g``.

    This is the multinomial n! / prod over cells J of venn(J)!.
    """
    cells = _venn_cells(g, n)  # first: it refuses a bad n before factorial(n) can
    return factorial(n) // prod(map(factorial, cells))


def too_close(entries: Sequence[int], d: int, linear: bool) -> bool:
    """Whether the distance-d rule excludes a word tuple with these sd entries.

    The general rule excludes a tuple holding a word of weight 1..d-1; the
    linear rule excludes it whenever any nonzero XOR combination of its
    words has such a weight, so it excludes all the general rule does.
    """
    if not linear:
        entries = [entries[1 << j] for j in range((len(entries) - 1).bit_length())]
    return any(1 <= w < d for w in entries)


def forbidden_configs(n: int, d: int, ell: int, linear: bool = False) -> frozenset[SDConfig]:
    """Configurations that ``too_close`` excludes at distance d."""
    if type(linear) is not bool:
        raise InvalidInputError(f"linear must be a bool, got {linear!r}")
    if not 0 <= require_int(d, "distance d") <= require_int(n, "blocklength n") + 1:
        raise InvalidInputError(f"need 0 <= d <= n+1, got d={d} at n={n}")
    return frozenset(g for g in enumerate_configs(n, ell) if too_close(g.entries, d, linear))


def representative_tuple(g: SDConfig, n: int) -> WordTuple:
    """A canonical word tuple with configuration ``g``.

    Positions are assigned to Venn cells in increasing bitmask order; the
    result is the orbit representative used for character sums.
    """
    words = [0] * g.ell
    pos = 0
    for cell_mask, size in enumerate(_venn_cells(g, n)):
        block = ((1 << size) - 1) << pos
        for j in range(g.ell):
            if (cell_mask >> j) & 1:
                words[j] |= block
        pos += size
    return WordTuple(tuple(words), n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def config_to_json(g: SDConfig, n: int) -> str:
    """Serialize a configuration with both forms for cross-checking."""
    venn = list(_venn_cells(g, n))
    return canonical_json({"n": n, "l": g.ell, "venn": venn, "sd": list(g.entries)})


def config_from_json(text: str) -> SDConfig:
    """Parse a configuration, cross-validating the stored forms and level."""
    with parsing("configuration JSON"):
        data = json.loads(text)
        n, ell = require_int(data["n"], "n"), require_int(data["l"], "l")
        g = SDConfig(tuple(require_int(w, "sd entry") for w in data["sd"]))
        v = VennConfig(tuple(require_int(c, "venn entry") for c in data["venn"]), n)
        if venn_to_sd(v) != g or ell != g.ell:
            raise InvalidInputError("sd, venn and l parts disagree")
    return g
