"""Exact rational linear programs over configuration variables.

Three program families share one representation:

* the classical weight-distribution LP for A_2(n, d) (one variable per
  Hamming weight, rows from classical Krawtchouk values);
* its level-l generalization with one variable per l-tuple configuration
  and one transform-nonnegativity row per configuration;
* the unsymmetrized variant with one variable per l-tuple of words
  (built in :mod:`krawlp.oracle`, solved through the same machinery).

Distance constraints are realized by variable elimination, not equality
rows; the trivial-config variable is kept and pinned by an explicit
normalization row so the dual certificate stays interpretable.  Rows are
generated for every configuration h, including eliminated ones, because
their rows still constrain the surviving variables.

Coefficients are exact rationals: plain ints from the builders (the rows
are integer character sums), ``Fraction``s from ``lp_from_json``.
``integer_form`` is the one place that scales them to integers, for the
feasibility check here and for the exact simplex.
A code profile is a set of integer tuple counts over one shared
denominator: |C|^l for the general formula, 1 for the span formula of a
linear code.  Feasibility checks sum those integers row by row and form
one exact rational per row.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .configs import (
    SDConfig,
    _gather,
    enumerate_configs,
    forbidden_configs,
)
from .errors import InvalidInputError, NotLinearError, ParameterError
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

    def holds(self, lhs: Rational, tolerance: Rational = 0) -> bool:
        """Whether ``lhs (relation) rhs`` holds up to ``tolerance`` (>= 0)."""
        if self.relation == "=":
            return abs(lhs - self.rhs) <= tolerance
        if self.relation == ">=":
            return lhs >= self.rhs - tolerance
        return lhs <= self.rhs + tolerance


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP with non-negative variables.

    ``var_indices`` are positions in the canonical index set of the family:
    configuration indices for the weight/configuration programs, flattened
    tuple codes for the word-tuple program.  Variable names are derived as
    ``a_<index>`` so exports are deterministic.
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
        nv = len(self.var_indices)
        if len(self.objective) != nv:
            raise InvalidInputError("objective length does not match variables")
        for row in self.rows:
            if len(row.coeffs) != nv:
                raise InvalidInputError(f"row {row.name} length does not match variables")

    @property
    def num_vars(self) -> int:
        return len(self.var_indices)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(f"a_{i}" for i in self.var_indices)

    def var_configs(self) -> tuple[SDConfig, ...]:
        """Configurations behind the variables (configuration-indexed kinds only)."""
        if self.kind == "fourier":
            raise InvalidInputError("word-tuple programs are not configuration-indexed")
        all_configs = enumerate_configs(self.n, self.ell)
        return tuple(all_configs[i] for i in self.var_indices)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_delsarte(n: int, d: int) -> LinearProgram:
    """Weight-distribution LP for A_2(n, d) from classical Krawtchouk rows.

    Weights 1..d-1 are eliminated; rows are built independently of the
    level-l machinery so the level-1 coincidence is a genuine cross-check.
    """
    if n < 1 or not 1 <= d <= n + 1:
        raise ParameterError(f"need n >= 1 and 1 <= d <= n+1, got n={n}, d={d}")
    keep = tuple(w for w in range(n + 1) if not 1 <= w < d)
    norm = LPRow("NORM", tuple(int(w == 0) for w in keep), "=", 1)
    rows = [norm]
    for i in range(n + 1):
        coeffs = tuple(classical_krawtchouk(i, w, n) for w in keep)
        rows.append(LPRow(f"MW_{i}", coeffs, ">=", 0))
    return LinearProgram(
        kind="delsarte",
        n=n,
        d=d,
        ell=1,
        linear=None,
        var_indices=keep,
        objective=(1,) * len(keep),
        rows=tuple(rows),
    )


def build_hierarchy_lp(n: int, d: int, ell: int, linear: bool) -> LinearProgram:
    """Level-l configuration LP bounding A_2(n, d)^l (or its linear variant).

    Variables are the non-forbidden configurations; one transform row per
    configuration h (forbidden h included); normalization pins the trivial
    variable at 1.
    """
    if n < 1 or not 1 <= d <= n + 1:
        raise ParameterError(f"need n >= 1 and 1 <= d <= n+1, got n={n}, d={d}")
    table = cached_table(n, ell)
    configs = enumerate_configs(n, ell)
    forb = forbidden_configs(n, d, ell, linear)
    keep = tuple(i for i, c in enumerate(configs) if c not in forb)
    norm = LPRow("NORM", tuple(int(i == 0) for i in keep), "=", 1)
    pick = _gather(keep)
    rows = [norm]
    for h_idx, hrow in enumerate(table.values):
        rows.append(LPRow(f"MW_{h_idx}", pick(hrow), ">=", 0))
    return LinearProgram(
        kind="krawtchouk",
        n=n,
        d=d,
        ell=ell,
        linear=linear,
        var_indices=keep,
        objective=(1,) * len(keep),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Code profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeProfile:
    """Configuration profile of a concrete code.

    ``counts`` maps configurations to integer tuple counts (zero counts are
    omitted); the profile mass of a configuration is its count over
    ``denom``.  The general-code formula counts pairs of l-tuples, with
    ``denom`` = |C|^l; the span formula for linear codes counts tuples of
    codewords, with ``denom`` = 1.  Either way the masses sum to |C|^l and
    the trivial configuration carries exactly 1.
    """

    n: int
    ell: int
    size: int
    counts: dict[SDConfig, int]
    denom: int

    def __post_init__(self) -> None:
        if self.denom < 1:
            raise InvalidInputError("profile denominator must be positive")

    @property
    def entries(self) -> dict[SDConfig, Fraction]:
        """Profile mass per configuration, as exact rationals."""
        return {cfg: Fraction(c, self.denom) for cfg, c in self.counts.items()}

    def objective_value(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.denom)

    def value_at(self, cfg: SDConfig) -> Fraction:
        return Fraction(self.counts.get(cfg, 0), self.denom)


def _check_words(words: Iterable[int], n: int) -> tuple[int, ...]:
    ws = tuple(sorted(set(int(w) for w in words)))
    if not ws:
        raise InvalidInputError("code must be nonempty")
    if n < 1:
        raise ParameterError("blocklength must be positive")
    top = 1 << n
    if ws[0] < 0 or ws[-1] >= top:
        raise InvalidInputError(f"words must be {n}-bit integers")
    return ws


def is_xor_closed(words: Iterable[int]) -> bool:
    """Whether a word set contains 0 and the XOR of any two of its words."""
    wset = set(words)
    if 0 not in wset:
        return False
    return all(a ^ b in wset for a, b in itertools.combinations(wset, 2))


def _tuple_counts(items: Sequence[tuple[int, int]], ell: int) -> Counter:
    # Total weight m_1 * ... * m_l of the l-tuples of (word u, weight m)
    # items, by sd entry vector.  A tuple's entries are the popcounts of the
    # XORs of its sub-tuples, indexed as in configs._sd_entries; the XORs of
    # the first l-1 words are built once and shared by every last word.
    prefixes = [((0,), 1)]
    for _ in range(ell - 1):
        prefixes = [
            (xors + tuple([x ^ u for x in xors]), weight * mult)
            for xors, weight in prefixes
            for u, mult in items
        ]
    raw: Counter = Counter()
    for xors, weight in prefixes:
        head = tuple(map(int.bit_count, xors))
        for u, mult in items:
            raw[head + tuple([(x ^ u).bit_count() for x in xors])] += weight * mult
    return raw


def profile_of_code(
    words: Iterable[int], n: int, ell: int, linear: bool = False
) -> CodeProfile:
    """Configuration profile of a code given as n-bit integer words.

    With ``linear`` set the code must pass an XOR-closure check and the
    profile counts tuples of codewords directly; otherwise it averages
    difference tuples over all pairs of l-tuples.
    """
    ws = _check_words(words, n)
    if ell < 1:
        raise ParameterError("level must be >= 1")
    if linear:
        if not is_xor_closed(ws):
            raise NotLinearError("code is not XOR-closed (or misses 0)")
        raw = _tuple_counts([(w, 1) for w in ws], ell)
        denom = 1
    else:
        diff = Counter(x ^ y for x in ws for y in ws)
        raw = _tuple_counts(tuple(diff.items()), ell)
        denom = len(ws) ** ell
    return CodeProfile(
        n=n,
        ell=ell,
        size=len(ws),
        counts={SDConfig(key): count for key, count in sorted(raw.items())},
        denom=denom,
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


def check_feasibility(
    lp: LinearProgram, point: CodeProfile, tolerance: Rational = 0
) -> FeasibilityVerdict:
    """Check a profile against every row and bound of an LP.

    With the default zero tolerance this is an exact rational check.  A
    nonzero mass on an eliminated configuration is reported as a distance
    violation, not an error.
    """
    if lp.kind == "fourier":
        raise InvalidInputError("profiles index configurations, not word tuples")
    if point.n != lp.n or point.ell != lp.ell:
        raise InvalidInputError(
            f"profile is for (n={point.n}, l={point.ell}), "
            f"LP is for (n={lp.n}, l={lp.ell})"
        )
    tolerance = Fraction(tolerance)
    if tolerance < 0:
        raise ParameterError("tolerance must be non-negative")
    denom = point.denom
    pos = {cfg: i for i, cfg in enumerate(lp.var_configs())}
    # The profile's (slot, count) support in slot order; every sum below
    # runs over it, since the other variables are zero.
    support = []
    for cfg, count in point.counts.items():
        slot = pos.get(cfg)
        if slot is None:
            if count != 0:
                return FeasibilityVerdict(
                    False,
                    "distance-violation",
                    f"eliminated configuration {cfg.entries} "
                    f"has mass {Fraction(count, denom)}",
                    None,
                )
        else:
            support.append((slot, count))
    support.sort()
    for i, c in support:
        if c < 0 and Fraction(c, denom) < -tolerance:
            return FeasibilityVerdict(
                False,
                "bound-violation",
                f"variable {lp.variable_names[i]} = {Fraction(c, denom)} < 0",
                None,
            )
    pick = _gather([i for i, _ in support])
    counts = [c for _, c in support]

    def support_value(coeffs: Sequence[Rational]) -> Fraction:
        # coeffs . x over the support, where x = counts / denom.
        nums, scale = integer_form(pick(coeffs))
        return Fraction(sum(map(mul, nums, counts)), scale * denom)

    objective = support_value(lp.objective)
    for row in lp.rows:
        lhs = support_value(row.coeffs)
        if not row.holds(lhs, tolerance):
            return FeasibilityVerdict(
                False,
                "row-violation",
                f"row {row.name}: lhs {lhs} {row.relation} {row.rhs} fails",
                objective,
            )
    return FeasibilityVerdict(True, "feasible", None, objective)


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
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def lp_from_json(text: str) -> LinearProgram:
    data = json.loads(text)
    if data.get("schema") != LP_SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported LP schema {data.get('schema')!r}")
    rows = tuple(
        LPRow(
            r["name"],
            tuple(Fraction(c) for c in r["coeffs"]),
            r["relation"],
            Fraction(r["rhs"]),
        )
        for r in data["rows"]
    )
    return LinearProgram(
        kind=data["kind"],
        n=data["n"],
        d=data["d"],
        ell=data["l"],
        linear=data["linear"],
        var_indices=tuple(data["var_indices"]),
        objective=tuple(Fraction(c) for c in data["objective"]),
        rows=rows,
    )


def _decimal(x: Rational) -> tuple[str, bool]:
    # Shortest round-trip decimal; flag whether it is exact.
    if x.denominator == 1:
        return str(x.numerator), True
    f = float(x)
    return repr(f), Fraction(f) == x


def _render_terms(coeffs: Sequence[Rational], names: Sequence[str]) -> tuple[str, bool]:
    parts = []
    exact = True
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag, ok = _decimal(abs(c))
        exact = exact and ok
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {mag} {name}")
    if not parts:
        return f"+ 0 {names[0]}", True
    return " ".join(parts), exact


def _to_lp_text(lp: LinearProgram) -> str:
    names = lp.variable_names
    body = []
    exact = True
    obj, ok = _render_terms(lp.objective, names)
    exact = exact and ok
    body.append("Maximize")
    body.append(f" obj: {obj}")
    body.append("Subject To")
    for row in lp.rows:
        terms, ok = _render_terms(row.coeffs, names)
        exact = exact and ok
        rhs, ok2 = _decimal(row.rhs)
        exact = exact and ok2
        body.append(f" {row.name}: {terms} {row.relation} {rhs}")
    body.append("Bounds")
    for name in names:
        body.append(f" 0 <= {name}")
    body.append("End")
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
