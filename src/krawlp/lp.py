"""Exact rational linear programs over configuration variables.

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

Coefficients are exact rationals: plain ints from the builders (the rows
are integer character sums), ``Fraction``s from ``lp_from_json``, which
reads a number only from a string or an int.  ``LinearProgram`` refuses
a number of any type but int and ``Fraction`` (a float, a bool).
``integer_form`` scales them to integers; only the exact simplex uses it,
to build its tableau and objective.
``CodeSet`` is the one code type, linear when |C| = 2^rank(C) (the rank
from ``configs._basis``).  ``code_census`` is the one count of a
code's l-tuples (``configs.tuple_census``), keyed by canonical config
index (as in ``var_indices``); the code's linearity picks what it counts.
One profile per code: that census over one shared denominator, 1 for a
linear code and |C|^l for any other.  ``check_point`` checks x = counts / denom
exactly against every bound and row, and ``check_dual`` checks y the
same way against every dual sign and column: the two are the whole
certificate of an optimum.  Profiles and simplex optima go through them.
Both sum rows at a sparse ``(index, count)`` point by ``configs.row_sums``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm
from typing import Iterable, Sequence

from .configs import (
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
    ParameterError,
    canonical_json,
    parsing,
    require_int,
    require_list,
)
from .krawtchouk import cached_table, classical_krawtchouk

LP_SCHEMA_VERSION = 1

Rational = int | Fraction


def integer_form(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Scale rationals to integers: ``(ints, L)`` with ``values[k] == ints[k] / L``.

    ``L`` is the lcm of the denominators (1 for ints), the least positive
    scale that clears them all.
    """
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class LPRow:
    """One constraint row: coeffs . x  (relation)  rhs."""

    name: str
    coeffs: tuple[Rational, ...]
    relation: str  # ">=", "<=" or "="
    rhs: Rational

    def __post_init__(self) -> None:
        if self.relation not in (">=", "=", "<="):
            raise InvalidInputError(f"unsupported relation {self.relation!r}")

    def holds(self, lhs: Rational) -> bool:
        """Whether ``lhs (relation) rhs`` holds exactly."""
        if self.relation == "=":
            return lhs == self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        return lhs <= self.rhs


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP with non-negative variables.

    ``var_indices`` are positions in the canonical index set of the family:
    configuration indices for the weight/configuration programs, flattened
    tuple codes for the word-tuple program.  Variable names are derived as
    ``a_<index>`` so exports are deterministic.  Only parameters a builder
    can produce are accepted: at least one variable (every builder keeps
    point 0), each index an int >= 0, n, l and d in
    ``check_program_args``'s range, l = 1 and ``linear`` None for a
    delsarte program, a bool ``linear`` otherwise, and an int or
    ``Fraction`` for every number.
    """

    kind: str  # "delsarte" | "krawtchouk" | "fourier"
    n: int
    d: int
    ell: int
    linear: bool | None
    var_indices: tuple[int, ...]
    objective: tuple[Rational, ...]
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
        try:
            check_program_args(self.n, self.d, self.ell)
        except ParameterError as exc:
            raise InvalidInputError(str(exc)) from exc
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
        if len(self.objective) != nv:
            raise InvalidInputError("objective length does not match variables")
        for row in self.rows:
            if len(row.coeffs) != nv:
                raise InvalidInputError(f"row {row.name} length does not match variables")
        kinds = set(map(type, _numbers(self))) - {int, Fraction}
        if kinds:
            names = sorted(k.__name__ for k in kinds)
            raise InvalidInputError(f"program numbers must be ints or Fractions, got {names}")

    @property
    def num_vars(self) -> int:
        return len(self.var_indices)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(f"a_{i}" for i in self.var_indices)


def _numbers(lp: LinearProgram) -> Iterable[Rational]:
    # Every objective entry, coefficient and rhs of a program.
    return itertools.chain(
        lp.objective, *(row.coeffs for row in lp.rows), (row.rhs for row in lp.rows)
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def check_program_args(n: int, d: int, ell: int = 1) -> None:
    """Raise ``InvalidInputError`` unless n, d and l are ints, and
    ``ParameterError`` unless n >= 1, l >= 1 and 1 <= d <= n+1."""
    require_int(n, "blocklength n")
    require_int(d, "distance d")
    require_int(ell, "level l")
    if n < 1 or ell < 1 or not 1 <= d <= n + 1:
        raise ParameterError(f"need n, l >= 1 and 1 <= d <= n+1, got n={n}, d={d}, l={ell}")


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
            words = frozenset(int(w, 16) for w in require_list(data["words"], "words"))
            return cls(words, require_int(data["n"], "n"))


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
    feasible: bool
    status: str  # "feasible" | "distance-violation" | "bound-violation" | "row-violation"
    detail: str | None
    objective: Fraction | None


def check_point(
    lp: LinearProgram, support: Sequence[tuple[int, int]], denom: int
) -> FeasibilityVerdict:
    """Check x = count / denom exactly against every bound and row of an LP.

    ``support`` lists the ``(slot, count)`` pairs of x in slot order, and
    x is zero in every other slot; ``denom`` is positive.  The verdict
    names the first failed bound or row, with x's objective value when
    every bound holds.
    """
    for i, c in support:
        if c < 0:
            return FeasibilityVerdict(
                False,
                "bound-violation",
                f"variable {lp.variable_names[i]} = {Fraction(c, denom)} < 0",
                None,
            )
    sums = row_sums([lp.objective, *(r.coeffs for r in lp.rows)], support)
    objective = Fraction(next(sums), denom)
    for row, s in zip(lp.rows, sums):
        lhs = Fraction(s, denom)
        if not row.holds(lhs):
            return FeasibilityVerdict(
                False,
                "row-violation",
                f"row {row.name}: lhs {lhs} {row.relation} {row.rhs} fails",
                objective,
            )
    return FeasibilityVerdict(True, "feasible", None, objective)


def check_dual(
    lp: LinearProgram, support: Sequence[tuple[int, int]], denom: int
) -> FeasibilityVerdict:
    """Check y = count / denom exactly as a dual certificate of an LP.

    ``support`` lists the ``(row, count)`` pairs of y in row order, and y
    is zero on every other row; ``denom`` is positive.  y must be >= 0 on
    ``<=`` rows and <= 0 on ``>=`` rows, and y . A_j >= c_j must hold for
    every variable j.  The verdict names the first wrong sign or failed
    column, with y's objective y . b when every sign holds.
    """
    for i, c in support:
        row = lp.rows[i]
        if (row.relation == "<=" and c < 0) or (row.relation == ">=" and c > 0):
            y = Fraction(c, denom)
            detail = f"row {row.name}: dual {y} has the wrong sign for {row.relation}"
            return FeasibilityVerdict(False, "bound-violation", detail, None)
    # Column 0 is the rhs, so the first sum is y . b; a program without
    # rows has empty columns, each summing to 0.
    columns = list(zip(*((r.rhs, *r.coeffs) for r in lp.rows))) or [()] * (lp.num_vars + 1)
    sums = row_sums(columns, support)
    objective = Fraction(next(sums), denom)
    for name, c, s in zip(lp.variable_names, lp.objective, sums):
        if s < c * denom:
            detail = f"variable {name}: dual sum {Fraction(s, denom)} < objective coefficient {c}"
            return FeasibilityVerdict(False, "row-violation", detail, objective)
    return FeasibilityVerdict(True, "feasible", None, objective)


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
    # The profile has counted the configurations of this (n, l) already.
    count = config_count(lp.n, lp.ell)
    if max(lp.var_indices) >= count:
        raise InvalidInputError(
            f"variable index {max(lp.var_indices)} names no configuration: "
            f"(n={lp.n}, l={lp.ell}) has {count}"
        )
    pos = {g: i for i, g in enumerate(lp.var_indices)}
    support = []
    for g, count in sorted(point.counts.items()):
        slot = pos.get(g)
        if slot is None:
            if count != 0:
                entries = enumerate_configs(lp.n, lp.ell)[g].entries
                return FeasibilityVerdict(
                    False,
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


def _read_number(value: object) -> Fraction:
    # ``lp_to_json`` writes every number as a string; an int is exact too.
    # A JSON float or bool is not read as a number.
    if type(value) not in (str, int):
        raise InvalidInputError(f"LP numbers must be strings or ints, got {value!r}")
    return Fraction(value)


def lp_from_json(text: str) -> LinearProgram:
    with parsing("LP JSON"):
        data = json.loads(text)
        if data.get("schema") != LP_SCHEMA_VERSION:
            raise InvalidInputError(f"unsupported LP schema {data.get('schema')!r}")
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


def _float(x: Rational) -> float:
    try:
        return float(x)
    except OverflowError:
        raise InvalidInputError(f"LP number {x} is beyond the float range of lp-text") from None


def _decimal(x: Rational) -> str:
    # An integer exactly, any other value as its shortest round-trip float.
    return str(x.numerator) if x.denominator == 1 else repr(_float(x))


def _render_terms(coeffs: Sequence[Rational], names: Sequence[str]) -> str:
    parts = [
        f"{'-' if c < 0 else '+'} {_decimal(abs(c))} {name}"
        for c, name in zip(coeffs, names)
        if c != 0
    ]
    return " ".join(parts) if parts else f"+ 0 {names[0]}"


def _to_lp_text(lp: LinearProgram) -> str:
    names = lp.variable_names
    body = ["Maximize", f" obj: {_render_terms(lp.objective, names)}", "Subject To"]
    for row in lp.rows:
        terms = _render_terms(row.coeffs, names)
        body.append(f" {row.name}: {terms} {row.relation} {_decimal(row.rhs)}")
    body.append("Bounds")
    for name in names:
        body.append(f" 0 <= {name}")
    body.append("End")
    # exact-decimals: every value is an integer or a float that round-trips to it.
    exact = all(x.denominator == 1 or Fraction(_float(x)) == x for x in _numbers(lp))
    flag = {True: "linear", False: "general", None: "-"}[lp.linear]
    header = [
        f"\\ {lp.kind} n={lp.n} d={lp.d} l={lp.ell} flag={flag}",
        f"\\ exact-decimals={'yes' if exact else 'no'}",
    ]
    return "\n".join(header + body) + "\n"


def export_lp(lp: LinearProgram, fmt: str) -> bytes:
    """Deterministic serialization; ``fmt`` is ``lp-text`` or ``json``."""
    if fmt == "json":
        return (lp_to_json(lp) + "\n").encode("ascii")
    if fmt == "lp-text":
        return _to_lp_text(lp).encode("ascii")
    raise ParameterError(f"unknown export format {fmt!r}")
