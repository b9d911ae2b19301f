"""Exact linear programs with integer data over configuration variables.

Every program here has Delsarte's shape and is built by ``packing_lp``:
maximize the total mass over the points the distance rule keeps, pin the
trivial point's mass to 1 (row ``NORM``) and require one non-negative
row per character.  The three families differ only in points and rows:

* the classical weight-distribution LP for A_2(n, d) (one variable per
  Hamming weight, rows from classical Krawtchouk values);
* its level-l generalization with one variable per l-tuple configuration
  and one transform-nonnegativity row per configuration;
* the unsymmetrized variant with one variable per l-tuple of words
  (built in :mod:`krawlp.oracle`, solved through the same machinery).

``check_program_args`` is their one parameter gate: n, d and l must be
ints in its range.  Distance constraints are realized by variable
elimination (``configs.too_close``), not equality rows; rows are
generated for every character, including those of eliminated points,
because they still constrain the surviving variables.

Every number a program holds is an int: the builders' rows are integer
character sums, and ``lp_from_json`` reads each number from an ASCII
``-?[0-9]+`` string, as ``lp_to_json`` writes it, or a JSON int.
``LinearProgram`` refuses a number of any other type (a ``Fraction``, a
float, a bool), a row name that is not an ASCII
identifier, and a variable index that names no point of its family.
``CodeSet`` is the one code type, linear when |C| = 2^rank(C) (the rank
from ``configs._basis``).  ``code_census`` is the one count of a
code's l-tuples (``configs.tuple_census``), keyed by canonical config
index (as in ``var_indices``); the code's linearity picks what it counts.
One profile per code: that census over one shared denominator, 1 for a
linear code and |C|^l for any other.  ``check_point`` checks x = counts / denom
against every bound and row, and ``check_dual`` checks y against every
dual sign and column, each an integer sum (``configs.row_sums``) against
its bound times denom: the two are the whole certificate of an optimum,
and form a ``Fraction`` only for the objective and a failure's message.
Profiles and simplex optima go through them.  Both read their input
through ``_read_certificate``: a denominator that is not an int >= 1, a
count that is not an int, or indices that do not increase strictly within
the program's variables or rows raise ``InvalidInputError``.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from operator import eq, ge, le
from typing import Iterable, Sequence

from .configs import (
    MAX_SUBSET_ELL,
    _basis,
    _gather,
    check_config_args,
    check_words,
    config_count,
    config_index,
    enumerate_configs,
    row_sums,
    too_close,
    tuple_census,
)
from .errors import (
    InvalidInputError,
    canonical_json,
    parsing,
    require_int,
    require_ints,
    require_list,
)
from .krawtchouk import cached_table, classical_krawtchouk

LP_SCHEMA_VERSION = 1
# The number texts ``lp_to_json`` and ``CodeSet.to_json`` write: the only ones read.
_INT_TEXT = re.compile(r"-?[0-9]+")
_HEX_WORD = re.compile(r"[0-9a-f]+")
# Each row relation as the int comparison ``check_point`` decides it by.
_RELATIONS = {"=": eq, ">=": ge, "<=": le}


@dataclass(frozen=True)
class LPRow:
    """One constraint row: coeffs . x  (relation)  rhs, named by an ASCII identifier."""

    name: str
    coeffs: tuple[int, ...]
    relation: str  # ">=", "<=" or "="
    rhs: int

    def __post_init__(self) -> None:
        # lp-text prints the name as one ASCII token before a colon.
        if not (type(self.name) is str and self.name.isascii() and self.name.isidentifier()):
            raise InvalidInputError(f"row name must be an ASCII identifier, got {self.name!r}")
        if self.relation not in _RELATIONS:
            raise InvalidInputError(f"unsupported relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP with non-negative variables.

    ``var_indices`` are positions in the canonical index set of the family:
    configuration indices for the weight/configuration programs, flattened
    tuple codes for the word-tuple program.  Variable names are derived as
    ``a_<index>`` so exports are deterministic.  Only parameters a builder
    can produce are accepted: at least one variable (every builder keeps
    point 0), each index an int >= 0 that names a point of the family (a
    configuration of (n, l), at l <= ``MAX_SUBSET_ELL``, or an n*l-bit word
    tuple), n, l and d in ``check_program_args``'s range, l = 1 and
    ``linear`` None for a delsarte program, a bool ``linear`` otherwise,
    and an int for every number.
    """

    kind: str  # "delsarte" | "krawtchouk" | "fourier"
    n: int
    d: int
    ell: int
    linear: bool | None
    var_indices: tuple[int, ...]
    objective: tuple[int, ...]
    rows: tuple[LPRow, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("delsarte", "krawtchouk", "fourier"):
            raise InvalidInputError(f"unknown program kind {self.kind!r}")
        nv = len(self.var_indices)
        if not nv:
            raise InvalidInputError("a program needs at least one variable")
        for i in self.var_indices:
            require_int(i, "variable index", 0)
        if len(set(self.var_indices)) != nv:
            raise InvalidInputError("variable indices repeat")
        check_program_args(self.n, self.d, self.ell)
        if self.kind == "delsarte":
            if self.ell != 1 or self.linear is not None:
                raise InvalidInputError(
                    f"a delsarte program has l = 1 and linear None, "
                    f"got l={self.ell}, linear={self.linear!r}"
                )
        elif type(self.linear) is not bool:
            raise InvalidInputError(
                f"a {self.kind} program needs a bool linear, got {self.linear!r}"
            )
        top = max(self.var_indices)
        if self.kind == "fourier":
            if top.bit_length() > self.n * self.ell:
                raise InvalidInputError(
                    f"variable index {top} names no word tuple: "
                    f"(n={self.n}, l={self.ell}) has 2^{self.n * self.ell}"
                )
        elif self.ell > MAX_SUBSET_ELL:
            # No builder makes one, and counting its 2^l-entry configurations is unbounded.
            raise InvalidInputError(
                f"a {self.kind} program needs l <= {MAX_SUBSET_ELL}, got l={self.ell}"
            )
        elif top >= config_count(self.n, self.ell):
            raise InvalidInputError(
                f"variable index {top} names no configuration: "
                f"(n={self.n}, l={self.ell}) has {config_count(self.n, self.ell)}"
            )
        if len(self.objective) != nv:
            raise InvalidInputError("objective length does not match variables")
        for row in self.rows:
            if len(row.coeffs) != nv:
                raise InvalidInputError(f"row {row.name} length does not match variables")
        numbers = itertools.chain(
            self.objective, *(row.coeffs for row in self.rows), (row.rhs for row in self.rows)
        )
        require_ints(numbers, "program numbers")

    @property
    def num_vars(self) -> int:
        return len(self.var_indices)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(f"a_{i}" for i in self.var_indices)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def check_program_args(n: int, d: int, ell: int = 1) -> None:
    """Raise ``InvalidInputError`` unless n, d and l are ints with n >= 1,
    l >= 1 and 1 <= d <= n+1."""
    require_int(n, "blocklength n")
    require_int(d, "distance d")
    require_int(ell, "level l")
    if n < 1 or ell < 1 or not 1 <= d <= n + 1:
        raise InvalidInputError(f"need n, l >= 1 and 1 <= d <= n+1, got n={n}, d={d}, l={ell}")


def packing_lp(
    kind: str,
    n: int,
    d: int,
    ell: int,
    linear: bool | None,
    keep: tuple[int, ...],
    prefix: str,
    rows: Iterable[tuple[int, ...]],
) -> LinearProgram:
    """Delsarte's shape over the points ``keep``: maximize their total mass,
    pin point 0's mass to 1 (row ``NORM``) and keep each coefficient tuple
    of ``rows`` (one per character, over ``keep``) non-negative as row
    ``<prefix>_<k>``."""
    norm = LPRow("NORM", tuple(int(i == 0) for i in keep), "=", 1)
    ineqs = (LPRow(f"{prefix}_{k}", coeffs, ">=", 0) for k, coeffs in enumerate(rows))
    return LinearProgram(kind, n, d, ell, linear, keep, (1,) * len(keep), (norm, *ineqs))


def build_delsarte(n: int, d: int) -> LinearProgram:
    """Weight-distribution LP for A_2(n, d) from classical Krawtchouk rows.

    Weights 1..d-1 are eliminated; rows are built independently of the
    level-l machinery so the level-1 coincidence is a genuine cross-check.
    """
    check_program_args(n, d)
    keep = tuple(w for w in range(n + 1) if not 1 <= w < d)
    rows = (tuple(classical_krawtchouk(i, w, n) for w in keep) for i in range(n + 1))
    return packing_lp("delsarte", n, d, 1, None, keep, "MW", rows)


def build_hierarchy_lp(n: int, d: int, ell: int, linear: bool) -> LinearProgram:
    """Level-l configuration LP bounding A_2(n, d)^l (or its linear variant).

    Variables are the configurations ``too_close`` keeps; one transform
    row per configuration h (eliminated h included).
    """
    check_program_args(n, d, ell)
    table = cached_table(n, ell)
    configs = enumerate_configs(n, ell)
    keep = tuple(i for i, g in enumerate(configs) if not too_close(g.entries, d, linear))
    rows = map(_gather(keep), table.values)
    return packing_lp("krawtchouk", n, d, ell, linear, keep, "MW", rows)


# ---------------------------------------------------------------------------
# Code profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeSet:
    """A nonempty set of n-bit words; ``linear`` (its own span) iff |C| = 2^rank(C)."""

    words: frozenset[int]
    n: int
    linear: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        # A list could repeat a word, and a set is unhashable.
        if type(self.words) is not frozenset:
            raise InvalidInputError(f"code words must be a frozenset, got {self.words!r}")
        if not self.words:
            raise InvalidInputError("code must be nonempty")
        check_words(self.words, self.n)
        closed = len(self.words) == 1 << len(_basis(self.words))
        object.__setattr__(self, "linear", closed)

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
        words = [format(w, f"0{width}x") for w in sorted(self.words)]
        return canonical_json({"n": self.n, "linear": self.linear, "words": words})

    @classmethod
    def from_json(cls, text: str) -> "CodeSet":
        with parsing("code JSON"):
            data = json.loads(text)
            words = require_list(data["words"], "words")
            if not all(type(w) is str and _HEX_WORD.fullmatch(w) for w in words):
                raise InvalidInputError(f"code words must be hex digit strings, got {words!r}")
            return cls(frozenset(int(w, 16) for w in words), require_int(data["n"], "n"))


@dataclass(frozen=True)
class CodeProfile:
    """Configuration profile of a concrete code.

    ``counts`` maps canonical configuration indices (positions in
    ``enumerate_configs(n, ell)``) to int tuple counts, zero counts
    omitted; the profile mass of a configuration is its count over
    ``denom``.  One profile per code: a linear code counts tuples of
    codewords, with ``denom`` = 1; any other code counts pairs of
    l-tuples, with ``denom`` = |C|^l.  Either way the masses sum to |C|^l
    and the trivial configuration carries exactly 1.
    """

    n: int
    ell: int
    size: int
    counts: dict[int, int]
    denom: int

    def __post_init__(self) -> None:
        for field_name in ("n", "ell", "size", "denom"):
            require_int(getattr(self, field_name), f"profile {field_name}")
        if min(self.n, self.ell, self.size, self.denom) < 1:
            raise InvalidInputError("profile needs n, l, size and denominator >= 1")
        count = config_count(self.n, self.ell)
        if not all(type(k) is int and 0 <= k < count for k in self.counts):
            raise InvalidInputError(f"profile keys must be config indices 0..{count - 1}")
        if not all(type(c) is int for c in self.counts.values()):
            raise InvalidInputError("profile counts must be ints")

    def objective_value(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.denom)


def code_census(code: CodeSet, ell: int) -> dict[int, int]:
    """Integer tuple counts of a code at level l, keyed by canonical config index.

    A linear code counts its l-tuples of codewords; any other code counts
    the difference tuples of all pairs of l-tuples, |C|^(2l) in total.
    """
    index = config_index(code.n, ell)
    if code.linear:
        parts = [(w, 1) for w in code.words]
    else:
        parts = list(Counter(x ^ y for x in code.words for y in code.words).items())
    return {index[key]: count for key, count in tuple_census([parts] * ell).items()}


def profile_of_code(words: Iterable[int], n: int, ell: int) -> CodeProfile:
    """Configuration profile of a code given as n-bit integer words.

    The counts are ``code_census``, over denominator 1 for a linear code
    and |C|^l for any other.
    """
    check_config_args(n, ell)
    code = CodeSet(frozenset(words), n)
    return CodeProfile(
        n=n,
        ell=ell,
        size=code.size,
        counts=code_census(code, ell),
        denom=1 if code.linear else code.size**ell,
    )


# ---------------------------------------------------------------------------
# Feasibility checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str  # "feasible" | "distance-violation" | "bound-violation" | "row-violation"
    detail: str | None
    objective: Fraction | None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _read_certificate(support: Sequence[tuple[int, int]], denom: int, slots: int) -> None:
    """Raise ``InvalidInputError`` unless ``denom`` is an int >= 1, every
    count of ``support`` is an int, and its indices are ints that increase
    strictly within ``range(slots)``.

    A count of either sign passes: a wrong sign is for the verdict to report.
    """
    require_int(denom, "certificate denominator", 1)
    with parsing("certificate support"):
        indices = [i for i, _ in support]
        require_ints(indices, "certificate indices")
        require_ints((c for _, c in support), "certificate counts")
    # -1 < i_0 < i_1 < ... < slots, one comparison per neighbour pair
    if any(map(ge, [-1, *indices], [*indices, slots])):
        raise InvalidInputError(
            f"certificate indices must increase strictly within 0 .. {slots - 1}"
        )


def check_point(
    lp: LinearProgram, support: Sequence[tuple[int, int]], denom: int
) -> FeasibilityVerdict:
    """Check x = count / denom exactly against every bound and row of an LP.

    ``support`` lists the ``(slot, count)`` pairs of x in slot order, and
    x is zero in every other slot; ``denom`` is positive.  Any other
    input raises ``InvalidInputError`` (``_read_certificate``).  A row
    holds when its integer sum stands in its relation to rhs * denom.
    The verdict names the first failed bound or row, with x's objective
    value when every bound holds.
    """
    _read_certificate(support, denom, lp.num_vars)
    for i, c in support:
        if c < 0:
            detail = f"variable {lp.variable_names[i]} = {Fraction(c, denom)} < 0"
            return FeasibilityVerdict("bound-violation", detail, None)
    sums = row_sums([lp.objective, *(r.coeffs for r in lp.rows)], support)
    objective = Fraction(next(sums), denom)
    for row, s in zip(lp.rows, sums):
        if not _RELATIONS[row.relation](s, row.rhs * denom):
            detail = f"row {row.name}: lhs {Fraction(s, denom)} {row.relation} {row.rhs} fails"
            return FeasibilityVerdict("row-violation", detail, objective)
    return FeasibilityVerdict("feasible", None, objective)


def check_dual(
    lp: LinearProgram, support: Sequence[tuple[int, int]], denom: int
) -> FeasibilityVerdict:
    """Check y = count / denom exactly as a dual certificate of an LP.

    ``support`` lists the ``(row, count)`` pairs of y in row order, and y
    is zero on every other row; ``denom`` is positive.  Any other input
    raises ``InvalidInputError`` (``_read_certificate``).  y must be >= 0 on
    ``<=`` rows and <= 0 on ``>=`` rows, and y . A_j >= c_j must hold for
    every variable j.  The verdict names the first wrong sign or failed
    column, with y's objective y . b when every sign holds.
    """
    _read_certificate(support, denom, len(lp.rows))
    for i, c in support:
        row = lp.rows[i]
        if (row.relation == "<=" and c < 0) or (row.relation == ">=" and c > 0):
            y = Fraction(c, denom)
            detail = f"row {row.name}: dual {y} has the wrong sign for {row.relation}"
            return FeasibilityVerdict("bound-violation", detail, None)
    # Column 0 is the rhs, so the first sum is y . b; a program without
    # rows has empty columns, each summing to 0.
    columns = list(zip(*((r.rhs, *r.coeffs) for r in lp.rows))) or [()] * (lp.num_vars + 1)
    sums = row_sums(columns, support)
    objective = Fraction(next(sums), denom)
    for name, c, s in zip(lp.variable_names, lp.objective, sums):
        if s < c * denom:
            detail = f"variable {name}: dual sum {Fraction(s, denom)} < objective coefficient {c}"
            return FeasibilityVerdict("row-violation", detail, objective)
    return FeasibilityVerdict("feasible", None, objective)


def check_feasibility(lp: LinearProgram, point: CodeProfile) -> FeasibilityVerdict:
    """Check a profile exactly against every row and bound of an LP.

    A nonzero mass on an eliminated configuration is reported as a
    distance violation, not an error, naming the one with the lowest
    index; the rest is ``check_point`` on the profile's counts over its
    denominator.
    """
    if lp.kind == "fourier":
        raise InvalidInputError("profiles index configurations, not word tuples")
    if point.n != lp.n or point.ell != lp.ell:
        raise InvalidInputError(
            f"profile is for (n={point.n}, l={point.ell}), "
            f"LP is for (n={lp.n}, l={lp.ell})"
        )
    pos = {g: i for i, g in enumerate(lp.var_indices)}
    support = []
    for g, count in sorted(point.counts.items()):
        slot = pos.get(g)
        if slot is None:
            if count != 0:
                entries = enumerate_configs(lp.n, lp.ell)[g].entries
                return FeasibilityVerdict(
                    "distance-violation",
                    f"eliminated configuration {entries} "
                    f"has mass {Fraction(count, point.denom)}",
                    None,
                )
        else:
            support.append((slot, count))
    # A program read from JSON may list var_indices in any order.
    return check_point(lp, sorted(support), point.denom)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def lp_to_json(lp: LinearProgram) -> str:
    payload = {
        "schema": LP_SCHEMA_VERSION,
        "kind": lp.kind,
        "n": lp.n,
        "d": lp.d,
        "l": lp.ell,
        "linear": lp.linear,
        "var_indices": list(lp.var_indices),
        "objective": [str(c) for c in lp.objective],
        "rows": [
            {
                "name": r.name,
                "relation": r.relation,
                "rhs": str(r.rhs),
                "coeffs": [str(c) for c in r.coeffs],
            }
            for r in lp.rows
        ],
    }
    return canonical_json(payload)


def _read_number(value: object) -> int:
    # ``lp_to_json`` writes every number as an ASCII integer string; a JSON
    # int is read too.  A JSON float or bool, or any other string ("1/3",
    # "0.5", "+1", " 1", "1_0", a non-ASCII digit), is not read as a number.
    if type(value) is not int and not (type(value) is str and _INT_TEXT.fullmatch(value)):
        raise InvalidInputError(f"LP numbers must be integer strings or ints, got {value!r}")
    return int(value)


def lp_from_json(text: str) -> LinearProgram:
    with parsing("LP JSON"):
        data = json.loads(text)
        schema = require_int(data.get("schema"), "LP schema")
        if schema != LP_SCHEMA_VERSION:
            raise InvalidInputError(f"unsupported LP schema {schema}")
        rows = tuple(
            LPRow(
                r["name"],
                tuple(map(_read_number, require_list(r["coeffs"], "coeffs"))),
                r["relation"],
                _read_number(r["rhs"]),
            )
            for r in require_list(data["rows"], "rows")
        )
        return LinearProgram(
            kind=data["kind"],
            n=data["n"],
            d=data["d"],
            ell=data["l"],
            linear=data["linear"],
            var_indices=tuple(require_list(data["var_indices"], "var_indices")),
            objective=tuple(map(_read_number, require_list(data["objective"], "objective"))),
            rows=rows,
        )


def _render_terms(coeffs: Sequence[int], names: Sequence[str]) -> str:
    parts = [
        f"{'-' if c < 0 else '+'} {abs(c)} {name}"
        for c, name in zip(coeffs, names)
        if c != 0
    ]
    return " ".join(parts) if parts else f"+ 0 {names[0]}"


def _to_lp_text(lp: LinearProgram) -> str:
    names = lp.variable_names
    body = ["Maximize", f" obj: {_render_terms(lp.objective, names)}", "Subject To"]
    for row in lp.rows:
        terms = _render_terms(row.coeffs, names)
        body.append(f" {row.name}: {terms} {row.relation} {row.rhs}")
    body.append("Bounds")
    for name in names:
        body.append(f" 0 <= {name}")
    body.append("End")
    flag = {True: "linear", False: "general", None: "-"}[lp.linear]
    header = [
        f"\\ {lp.kind} n={lp.n} d={lp.d} l={lp.ell} flag={flag}",
        # Every number is an int printed in full; the line keeps the header's bytes.
        "\\ exact-decimals=yes",
    ]
    return "\n".join(header + body) + "\n"


def export_lp(lp: LinearProgram, fmt: str) -> bytes:
    """Deterministic serialization; ``fmt`` is ``lp-text`` or ``json``."""
    if fmt == "json":
        return (lp_to_json(lp) + "\n").encode("ascii")
    if fmt == "lp-text":
        return _to_lp_text(lp).encode("ascii")
    raise InvalidInputError(f"unknown export format {fmt!r}")
