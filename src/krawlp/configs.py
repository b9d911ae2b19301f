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

Two tuples have equal configurations exactly when one is a coordinate
permutation of the other, so a configuration names an S_n-orbit of tuples;
``orbit_size`` counts the orbit as a multinomial.  The number of distinct
configurations is C(n + 2^l - 1, 2^l - 1): one per weak composition of n
into 2^l Venn cells.

Subsets are encoded as bitmasks (bit j-1 of the mask is element j),
configurations as dense tuples of length 2^l, and every computation here is
exact integer arithmetic; nothing in this module touches floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Sequence

from .errors import (
    CapacityError,
    InvalidInputError,
    NotAConfigurationError,
    ParameterError,
)

# Dense 2^l vectors and composition counts stay small only for small l.
MAX_SUBSET_ELL = 6
# Cap on C(n + 2^l - 1, 2^l - 1) for a single enumeration.
MAX_CONFIG_COUNT = 2_000_000


def config_count(n: int, ell: int) -> int:
    """Number of distinct configurations of l-tuples of words in F_2^n."""
    return comb(n + (1 << ell) - 1, (1 << ell) - 1)


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
        if any(e < 0 for e in self.entries):
            raise InvalidInputError("weights cannot be negative")

    @property
    def ell(self) -> int:
        return (len(self.entries) - 1).bit_length()

    @property
    def is_trivial(self) -> bool:
        return not any(self.entries)

    def __getitem__(self, subset_mask: int) -> int:
        return self.entries[subset_mask]


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
        if any(e < 0 for e in self.entries):
            raise InvalidInputError("cell sizes cannot be negative")
        if sum(self.entries) != self.n:
            raise InvalidInputError(
                f"cell sizes add up to {sum(self.entries)}, expected n={self.n}"
            )

    @property
    def ell(self) -> int:
        return (len(self.entries) - 1).bit_length()

    def __getitem__(self, subset_mask: int) -> int:
        return self.entries[subset_mask]


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
        if self.n < 1:
            raise InvalidInputError("blocklength must be positive")
        top = 1 << self.n
        if any(w < 0 or w >= top for w in self.words):
            raise InvalidInputError(f"words must be {self.n}-bit integers")

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


@lru_cache(maxsize=None)
def _odd_masks(ell: int) -> tuple[tuple[int, ...], ...]:
    """For each J, the subsets T with |T & J| odd."""
    m = 1 << ell
    return tuple(
        tuple(t for t in range(m) if ((t & j).bit_count() & 1)) for j in range(m)
    )


def _sd_entries(words: Sequence[int]) -> tuple[int, ...]:
    # Raw kernel of config_of_tuple: XOR combinations built incrementally
    # by lowest set bit, then popcounts.
    m = 1 << len(words)
    xors = [0] * m
    out = [0] * m
    for mask in range(1, m):
        low = mask & -mask
        x = xors[mask ^ low] ^ words[low.bit_length() - 1]
        xors[mask] = x
        out[mask] = x.bit_count()
    return tuple(out)


def _multinomial(n: int, parts: Sequence[int]) -> int:
    size = factorial(n)
    for p in parts:
        size //= factorial(p)
    return size


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
    ell = g.ell
    half = 1 << (ell - 1)
    entries = g.entries
    total = sum(entries)
    odd = _odd_masks(ell)
    cells = []
    for j in range(1 << ell):
        odd_sum = sum(entries[t] for t in odd[j])
        scaled = 2 * odd_sum - total
        if j == 0:
            scaled += n * half
        cell, rem = divmod(scaled, half)
        if rem or cell < 0:
            raise NotAConfigurationError(
                f"weight vector {entries} is not a configuration at n={n}"
            )
        cells.append(cell)
    return VennConfig(tuple(cells), n)


def venn_to_sd(v: VennConfig) -> SDConfig:
    """Weights of all XOR combinations from Venn cell sizes."""
    odd = _odd_masks(v.ell)
    entries = v.entries
    return SDConfig(
        tuple(sum(entries[t] for t in odd[j]) for j in range(len(entries)))
    )


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Weak compositions in descending lexicographic order: (total, 0, ..., 0)
    # comes first, (0, ..., 0, total) last.
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions_desc(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def enumerate_configs(n: int, ell: int) -> tuple[SDConfig, ...]:
    """All configurations for (n, l), in canonical order.

    Canonical order is lexicographic on the Venn vector read in increasing
    bitmask order, largest first, so the trivial configuration (all Venn
    mass on the empty cell) is element 0.  The ordering is part of the
    serialization contract: LP variables, table rows and columns all use it.
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
    m = 1 << ell
    odd = _odd_masks(ell)
    out = []
    for venn in _compositions_desc(n, m):
        out.append(SDConfig(tuple(sum(venn[t] for t in odd[j]) for j in range(m))))
    return tuple(out)


@lru_cache(maxsize=None)
def config_index(n: int, ell: int) -> dict[SDConfig, int]:
    """Config -> position in the canonical enumeration.  Treat as read-only."""
    return {g: i for i, g in enumerate(enumerate_configs(n, ell))}


def orbit_size(g: SDConfig, n: int) -> int:
    """Number of l-tuples in F_2^n whose configuration is ``g``.

    This is the multinomial n! / prod over cells J of venn(J)!.
    """
    v = sd_to_venn(g, n)
    return _multinomial(n, v.entries)


def forbidden_configs(n: int, d: int, ell: int, linear: bool = False) -> frozenset[SDConfig]:
    """Configurations excluded by the distance-d constraints.

    General codes exclude any config with a single-word weight in 1..d-1;
    the linear variant excludes a config whenever any XOR combination has
    weight in 1..d-1, so the linear set contains the general one.
    """
    if not 0 <= d <= n + 1:
        raise ParameterError(f"need 0 <= d <= n+1, got d={d} at n={n}")
    if d <= 1:
        return frozenset()
    if linear:
        masks: Sequence[int] = range(1, 1 << ell)
    else:
        masks = [1 << j for j in range(ell)]
    out = set()
    for cfg in enumerate_configs(n, ell):
        if any(1 <= cfg.entries[mask] < d for mask in masks):
            out.add(cfg)
    return frozenset(out)


def representative_tuple(g: SDConfig, n: int) -> WordTuple:
    """A canonical word tuple with configuration ``g``.

    Positions are assigned to Venn cells in increasing bitmask order; the
    result is the orbit representative used for character sums.
    """
    v = sd_to_venn(g, n)
    words = [0] * g.ell
    pos = 0
    for cell_mask, size in enumerate(v.entries):
        for _ in range(size):
            for j in range(g.ell):
                if (cell_mask >> j) & 1:
                    words[j] |= 1 << pos
            pos += 1
    return WordTuple(tuple(words), n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def config_to_json(g: SDConfig, n: int) -> str:
    """Serialize a configuration with both forms for cross-checking."""
    v = sd_to_venn(g, n)
    return json.dumps(
        {"n": n, "l": g.ell, "venn": list(v.entries), "sd": list(g.entries)},
        sort_keys=True,
        separators=(",", ":"),
    )


def config_from_json(text: str) -> SDConfig:
    """Parse a configuration, cross-validating the two stored forms."""
    data = json.loads(text)
    try:
        g = SDConfig(tuple(data["sd"]))
        v = VennConfig(tuple(data["venn"]), data["n"])
    except KeyError as exc:
        raise InvalidInputError(f"missing configuration field {exc}") from exc
    if venn_to_sd(v) != g:
        raise InvalidInputError("sd and venn parts disagree")
    return g
