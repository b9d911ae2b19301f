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

The first map is the subset-parity transform; ``enumerate_configs``,
``venn_to_sd`` and ``sd_to_venn`` (which doubles it and subtracts the
total) all evaluate it.  Each level l gets one generated straight-line
expression, compiled by ``_build_parity_transform``.  Levels 1..3, which
every suite, table and program uses, are compiled at import (~0.35 ms in
all): a fresh process pays that once, where a compile behind an
``lru_cache`` would be paid again after every cache clear.  Levels 4..6
compile on first use behind an ``lru_cache``; above ``MAX_SUBSET_ELL`` every
conversion raises ``CapacityError`` before compiling anything.

``_subset_xors`` turns words into their subset XORs (popcounts: sd entries;
over a basis: its span).  ``tuple_census``, the one weighted count of word
tuples by sd entries, serves code profiles and the direct Krawtchouk sum.

Two tuples have equal configurations exactly when one is a coordinate
permutation of the other, so a configuration names an S_n-orbit of tuples;
``orbit_size`` counts the orbit as a multinomial.  The number of distinct
configurations is C(n + 2^l - 1, 2^l - 1): one per weak composition of n
into 2^l Venn cells.

``too_close`` is the one distance rule on sd entries: every program builder
keeps exactly the points it does not exclude.

Two gates run before any work.  ``check_config_args`` is the one (n, l)
range check, with the enumeration budget; table and profile builders call
it too.  ``check_words`` is the one word check, shared by ``WordTuple`` and
``lp.CodeSet``.

Subsets are encoded as bitmasks (bit j-1 of the mask is element j),
configurations as dense tuples of length 2^l, and every computation here is
exact integer arithmetic; nothing in this module touches floating point.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial, prod
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    InvalidInputError,
    NotAConfigurationError,
    ParameterError,
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
    if n < 1 or ell < 1:
        raise ParameterError(f"need n >= 1 and l >= 1, got n={n}, l={ell}")
    if ell > MAX_SUBSET_ELL:
        raise CapacityError(f"l={ell} exceeds the configuration budget l <= {MAX_SUBSET_ELL}")
    count = config_count(n, ell)
    if count > MAX_CONFIG_COUNT:
        raise CapacityError(
            f"{count} configurations exceed the enumeration budget {MAX_CONFIG_COUNT}"
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


@dataclass(frozen=True)
class SDConfig:
    """Weights of all XOR combinations of a word tuple, by subset bitmask."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.entries)
        if m < 2 or m & (m - 1):
            raise InvalidInputError(f"entry count {m} is not a power of two >= 2")
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
        m = len(self.entries)
        if m < 2 or m & (m - 1):
            raise InvalidInputError(f"entry count {m} is not a power of two >= 2")
        if self.n < 1:
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


@dataclass(frozen=True)
class WordTuple:
    """An l-tuple of words of F_2^n, each word an n-bit integer."""

    words: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
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
        if not bits:
            raise InvalidInputError("empty word tuple")
        lengths = {len(s) for s in bits}
        if len(lengths) != 1:
            raise InvalidInputError(f"mismatched word lengths {sorted(lengths)}")
        (n,) = lengths
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
    """A C-level gather of ``seq[i] for i in indices`` that always returns a tuple.

    ``itemgetter`` returns a bare item for one index and raises for none.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return lambda seq: ()


def _build_parity_transform(ell: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map x -> (sum over T with |T & J| odd of x[T], for every J) at level l.

    Generated as one straight-line tuple expression, ``lambda x: (0,
    x[1]+x[3], x[2]+x[3], x[1]+x[2])`` at l = 2, and compiled once.  Every
    nonempty J has 2^(l-1) such T; J = 0 has none.  The source holds only
    integer indices derived from ``ell``.
    """
    m = 1 << ell
    rows = ["0"] + [
        "+".join(f"x[{t}]" for t in range(m) if (t & j).bit_count() & 1) for j in range(1, m)
    ]
    return eval(compile(f"lambda x: ({', '.join(rows)})", f"<parity transform l={ell}>", "eval"))


# Compiled at import, not behind the lru_cache; see the module docstring.
_EAGER_ELL = 3
_EAGER_TRANSFORMS = tuple(_build_parity_transform(ell) for ell in range(1, _EAGER_ELL + 1))


@lru_cache(maxsize=None)
def _parity_transform(ell: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The subset-parity transform of level ``ell``; see ``_build_parity_transform``."""
    if ell > MAX_SUBSET_ELL:  # refused before compiling 2^(2l-1) terms
        raise CapacityError(f"l={ell} exceeds the configuration budget l <= {MAX_SUBSET_ELL}")
    if ell <= _EAGER_ELL:
        return _EAGER_TRANSFORMS[ell - 1]
    return _build_parity_transform(ell)


def _subset_xors(words: Sequence[int]) -> list[int]:
    # The XOR of the words each subset bitmask selects, in bitmask order:
    # word j appends the XORs with bit j set.  Over a basis, its span.
    xors = [0]
    for w in words:
        xors += [x ^ w for x in xors]
    return xors


def _sd_entries(words: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(int.bit_count, _subset_xors(words)))


def tuple_census(positions: Sequence[Sequence[tuple[int, int]]]) -> Counter:
    """Total weight m_1 * ... * m_l of the tuples (u_1, ..., u_l), by sd entries.

    Position j lists the ``(u_j, m_j)`` pairs it draws from; the subset XORs
    of the first l-1 words are built once and shared by every last word.
    """
    prefixes = [([0], 1)]
    for items in positions[:-1]:
        prefixes = [
            (xors + [x ^ u for x in xors], weight * mult)
            for xors, weight in prefixes
            for u, mult in items
        ]
    census: Counter = Counter()
    for xors, weight in prefixes:
        head = tuple(map(int.bit_count, xors))
        for u, mult in positions[-1]:
            census[head + tuple([(x ^ u).bit_count() for x in xors])] += weight * mult
    return census


def _multinomial(n: int, parts: Sequence[int]) -> int:
    return factorial(n) // prod(map(factorial, parts))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def config_of_tuple(t: WordTuple) -> SDConfig:
    """Symmetric-difference configuration of a word tuple."""
    return SDConfig(_sd_entries(t.words))


def venn_of_tuple(t: WordTuple) -> VennConfig:
    """Venn configuration of a word tuple: support-partition cell sizes."""
    counts = [0] * (1 << t.ell)
    for i in range(t.n):
        cell = 0
        for j, w in enumerate(t.words):
            cell |= ((w >> i) & 1) << j
        counts[cell] += 1
    return VennConfig(tuple(counts), t.n)


def sd_to_venn(g: SDConfig, n: int) -> VennConfig:
    """Invert the weight vector into Venn cell sizes for blocklength n.

    Evaluated in exact integers: the 2^(l-1)-scaled cell value is computed
    first and divided with a divisibility check.  A remainder or a negative
    cell signals that ``g`` is not the configuration of any tuple in F_2^n.
    """
    if n < 1:
        raise ParameterError("blocklength must be positive")
    shift = g.ell - 1
    half = 1 << shift
    entries = g.entries
    total = sum(entries)
    scaled = [2 * s - total for s in _parity_transform(g.ell)(entries)]
    scaled[0] += n * half
    # half is a power of two: a nonzero low bit is a nonzero remainder.
    if min(scaled) < 0 or reduce(or_, scaled) & (half - 1):
        raise NotAConfigurationError(
            f"weight vector {entries} is not a configuration at n={n}"
        )
    return VennConfig(tuple([c >> shift for c in scaled]), n)


def venn_to_sd(v: VennConfig) -> SDConfig:
    """Weights of all XOR combinations from Venn cell sizes."""
    return SDConfig(_parity_transform(v.ell)(v.entries))


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


@lru_cache(maxsize=None)
def enumerate_configs(n: int, ell: int) -> tuple[SDConfig, ...]:
    """All configurations for (n, l), in canonical order.

    Canonical order is lexicographic on the Venn vector read in increasing
    bitmask order, largest first, so the trivial configuration (all Venn
    mass on the empty cell) is element 0.  The ordering is part of the
    serialization contract: LP variables, table rows and columns all use it.
    """
    check_config_args(n, ell)
    transform = _parity_transform(ell)
    return tuple([SDConfig(transform(venn)) for venn in _compositions_desc(n, 1 << ell)])


@lru_cache(maxsize=None)
def config_index(n: int, ell: int) -> dict[tuple[int, ...], int]:
    """Sd entry tuple -> position in the canonical enumeration.  Treat as read-only."""
    return {g.entries: i for i, g in enumerate(enumerate_configs(n, ell))}


def orbit_size(g: SDConfig, n: int) -> int:
    """Number of l-tuples in F_2^n whose configuration is ``g``.

    This is the multinomial n! / prod over cells J of venn(J)!.
    """
    v = sd_to_venn(g, n)
    return _multinomial(n, v.entries)


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
    if not 0 <= d <= n + 1:
        raise ParameterError(f"need 0 <= d <= n+1, got d={d} at n={n}")
    return frozenset(g for g in enumerate_configs(n, ell) if too_close(g.entries, d, linear))


def representative_tuple(g: SDConfig, n: int) -> WordTuple:
    """A canonical word tuple with configuration ``g``.

    Positions are assigned to Venn cells in increasing bitmask order; the
    result is the orbit representative used for character sums.
    """
    v = sd_to_venn(g, n)
    words = [0] * g.ell
    pos = 0
    for cell_mask, size in enumerate(v.entries):
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
    v = sd_to_venn(g, n)
    return canonical_json({"n": n, "l": g.ell, "venn": list(v.entries), "sd": list(g.entries)})


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
