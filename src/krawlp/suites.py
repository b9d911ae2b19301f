"""End-to-end verification suites.

Each suite sweeps one family of identities, inequalities or exact values
over its full grid and returns one ``krawtchouk.CheckReport`` that counts
every check, lists every violation and holds the grid as its ``params``;
a sweep's own report is folded in with its violations led by the grid
point.  The grids default to the largest sizes the package commits to
(the acceptance grid); callers can shrink them with ``n_cap``/``l_cap``.
The CLI ``verify`` command runs the suites, times each, and exits nonzero
on any violation; the acceptance tests run the same functions.

All checks are exact: rational LP values are compared as rationals, and
soundness of the l-th root bound is checked as ``value >= bound**l``
rather than through floating point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .configs import (
    config_count,
    enumerate_configs,
    iter_configs,
    orbit_size,
    sd_to_venn,
    venn_to_sd,
)
from .errors import InvalidInputError, require_int
from .krawtchouk import (
    CheckReport,
    cached_table,
    eval_direct,
    eval_explicit,
    verify_orthogonality,
    verify_reflection,
)
from .lp import CodeSet, build_delsarte, build_hierarchy_lp
from .oracle import (
    build_fourier_lp,
    iter_linear_codes,
    max_code,
    max_linear_code,
    verify_macwilliams,
)
from .simplex import solve_exact


# ---------------------------------------------------------------------------
# Exact LP values
# ---------------------------------------------------------------------------


def delsarte_value(n: int, d: int) -> Fraction:
    return solve_exact(build_delsarte(n, d)).value


@lru_cache(maxsize=None, typed=True)
def hierarchy_value(n: int, d: int, ell: int, linear: bool) -> Fraction:
    return solve_exact(build_hierarchy_lp(n, d, ell, linear)).value


def fourier_value(n: int, d: int, ell: int, linear: bool) -> Fraction:
    return solve_exact(build_fourier_lp(n, d, ell, linear)).value


def _cap(default: int, cap: int | None) -> int:
    return default if cap is None else min(default, cap)


def _report(name: str, checked: int, violations: list[str], **params: int) -> CheckReport:
    return CheckReport(name, checked, tuple(violations), tuple(params.items()))


def _fold(violations: list[str], report: CheckReport, prefix: str) -> int:
    """Extend ``violations`` by a sweep's, each led by ``prefix``; return its check count."""
    violations.extend(prefix + v for v in report.violations)
    return report.checked


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_census(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """Config count is C(n+2^l-1, 2^l-1) and orbit sizes add up to 2^(nl)."""
    n_max, l_max = _cap(10, n_cap), _cap(3, l_cap)
    checked, violations = 0, []
    for ell in range(1, l_max + 1):
        for n in range(1, n_max + 1):
            configs = iter_configs(n, ell)
            first = next(configs)
            count, total = 1, orbit_size(first, n)
            for g in configs:
                count += 1
                total += orbit_size(g, n)
            checked += 1
            if count != config_count(n, ell):
                violations.append(
                    f"(n={n}, l={ell}): {count} configs, want {config_count(n, ell)}"
                )
            if not first.is_trivial:
                violations.append(f"(n={n}, l={ell}): first config not trivial")
            if total != 1 << (n * ell):
                violations.append(
                    f"(n={n}, l={ell}): orbit sizes add to {total}, want 2^{n * ell}"
                )
    return _report("census", checked, violations, n_max=n_max, l_max=l_max)


def suite_roundtrip(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """venn_to_sd after sd_to_venn is the identity on every configuration."""
    n_max, l_max = _cap(10, n_cap), _cap(3, l_cap)
    checked, violations = 0, []
    for ell in range(1, l_max + 1):
        for n in range(1, n_max + 1):
            for g in iter_configs(n, ell):
                checked += 1
                if venn_to_sd(sd_to_venn(g, n)) != g:
                    violations.append(f"(n={n}, l={ell}): round trip moved {g.entries}")
    return _report("roundtrip", checked, violations, n_max=n_max, l_max=l_max)


def suite_triple_agreement(
    n_cap: int | None = None, l_cap: int | None = None
) -> CheckReport:
    """Direct sum, explicit formula and generating-function table agree on every entry."""
    n_max, l_max = _cap(4, n_cap), _cap(2, l_cap)
    checked, violations = 0, []
    for ell in range(1, l_max + 1):
        for n in range(1, n_max + 1):
            configs = enumerate_configs(n, ell)
            table = cached_table(n, ell)
            for a, h in enumerate(configs):
                for b, g in enumerate(configs):
                    checked += 1
                    vd = eval_direct(h, g, n)
                    ve = eval_explicit(h, g, n)
                    vt = table.values[a][b]
                    if not vd == ve == vt:
                        violations.append(
                            f"(n={n}, l={ell}, h={a}, g={b}): "
                            f"direct {vd}, explicit {ve}, table {vt}"
                        )
    return _report("triple-agreement", checked, violations, n_max=n_max, l_max=l_max)


def suite_orthogonality_reflection(
    n_cap: int | None = None, l_cap: int | None = None
) -> CheckReport:
    """Full orthogonality and reflection sweeps on each table."""
    n_max, l_max = _cap(5, n_cap), _cap(2, l_cap)
    checked, violations = 0, []
    for ell in range(1, l_max + 1):
        for n in range(1, n_max + 1):
            table = cached_table(n, ell)
            for report in (verify_orthogonality(table), verify_reflection(table)):
                checked += _fold(violations, report, f"(n={n}, l={ell}) {report.name}: ")
    return _report("orthogonality-reflection", checked, violations, n_max=n_max, l_max=l_max)


def suite_macwilliams(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """Transform identity on all linear codes; inequality on all small codes."""
    l_max = _cap(2, l_cap)
    id_n_max = _cap(5, n_cap)
    ineq_n_max = _cap(4, n_cap)
    checked, violations = 0, []
    for n in range(1, id_n_max + 1):
        for code in iter_linear_codes(n):
            for ell in range(1, l_max + 1):
                prefix = f"(n={n}, l={ell}, |C|={code.size}): "
                checked += _fold(violations, verify_macwilliams(code, ell), prefix)
    for n in range(1, ineq_n_max + 1):
        space = range(1 << n)
        for size in range(1, 5):
            for words in itertools.combinations(space, size):
                code = CodeSet(frozenset(words), n)
                if code.linear:
                    continue  # already swept above
                for ell in range(1, l_max + 1):
                    prefix = f"(n={n}, l={ell}, C={sorted(words)}): "
                    checked += _fold(violations, verify_macwilliams(code, ell), prefix)
    params = {"identity_n_max": id_n_max, "inequality_n_max": ineq_n_max, "l_max": l_max}
    return _report("macwilliams", checked, violations, **params)


def suite_soundness(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """LP values dominate the true code sizes: value >= A^l, exactly."""
    n_max, l_max = _cap(5, n_cap), _cap(2, l_cap)
    checked, violations = 0, []
    # Named oracle spot values, recomputed from scratch by the oracles.
    for name, search, n, want in (("A_2", max_code, 5, 4), ("A_2^Lin", max_linear_code, 7, 16)):
        if n_cap is None or n_cap >= n:
            checked += 1
            size = search(n, 3)[0]
            if size != want:
                violations.append(f"oracle {name}({n},3) = {size}, want {want}")
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            sizes = ((False, max_code(n, d)[0]), (True, max_linear_code(n, d)[0]))
            for ell in range(1, l_max + 1):
                for linear, size in sizes:
                    checked += 1
                    value = hierarchy_value(n, d, ell, linear)
                    if value < Fraction(size) ** ell:
                        flag = "linear" if linear else "general"
                        violations.append(
                            f"(n={n}, d={d}, l={ell}) {flag}: value {value} < {size}^{ell}"
                        )
    return _report("soundness", checked, violations, n_max=n_max, l_max=l_max)


def suite_collapse(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """General-code level-2 value equals the level-1 value squared, exactly."""
    n_max = _cap(5, n_cap)
    if l_cap is not None and l_cap < 2:
        return _report("collapse", 0, [], n_max=n_max)
    checked, violations = 0, []
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            checked += 1
            base = delsarte_value(n, d)
            lifted = hierarchy_value(n, d, 2, False)
            if lifted != base * base:
                violations.append(
                    f"(n={n}, d={d}): level-2 value {lifted} != ({base})^2"
                )
    return _report("collapse", checked, violations, n_max=n_max)


def suite_subadditivity(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """Linear-variant level-2 value is at most the level-1 value squared."""
    n_max = _cap(5, n_cap)
    if l_cap is not None and l_cap < 2:
        return _report("subadditivity", 0, [], n_max=n_max)
    checked, violations = 0, []
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            checked += 1
            lvl1 = hierarchy_value(n, d, 1, True)
            lvl2 = hierarchy_value(n, d, 2, True)
            if lvl2 > lvl1 * lvl1:
                violations.append(
                    f"(n={n}, d={d}): level-2 value {lvl2} > ({lvl1})^2"
                )
    return _report("subadditivity", checked, violations, n_max=n_max)


def suite_fourier_equivalence(
    n_cap: int | None = None, l_cap: int | None = None
) -> CheckReport:
    """Word-tuple LP and configuration LP have equal optimal values."""
    n_max, l_max = _cap(3, n_cap), _cap(2, l_cap)
    checked, violations = 0, []
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            for ell in range(1, l_max + 1):
                for linear in (False, True):
                    checked += 1
                    vf = fourier_value(n, d, ell, linear)
                    vk = hierarchy_value(n, d, ell, linear)
                    if vf != vk:
                        violations.append(
                            f"(n={n}, d={d}, l={ell}, linear={linear}): "
                            f"word-tuple {vf} != configuration {vk}"
                        )
    return _report("fourier-equivalence", checked, violations, n_max=n_max, l_max=l_max)


def suite_level1(n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """Level-1 programs are row-identical to the classical weight LP."""
    n_max = _cap(8, n_cap)
    checked, violations = 0, []
    for n in range(1, n_max + 1):
        for d in range(1, n + 2):
            base = build_delsarte(n, d)
            for linear in (False, True):
                lifted = build_hierarchy_lp(n, d, 1, linear)
                checked += 1
                same = (
                    lifted.var_indices == base.var_indices
                    and lifted.objective == base.objective
                    and lifted.rows == base.rows
                )
                if not same:
                    violations.append(
                        f"(n={n}, d={d}, linear={linear}): rows differ from the weight LP"
                    )
    return _report("level1", checked, violations, n_max=n_max)


SUITES: dict[str, Callable[..., CheckReport]] = {
    "census": suite_census,
    "roundtrip": suite_roundtrip,
    "triple-agreement": suite_triple_agreement,
    "orthogonality-reflection": suite_orthogonality_reflection,
    "macwilliams": suite_macwilliams,
    "soundness": suite_soundness,
    "collapse": suite_collapse,
    "subadditivity": suite_subadditivity,
    "fourier-equivalence": suite_fourier_equivalence,
    "level1": suite_level1,
}


def check_suite_args(names: list[str], n_cap: int | None, l_cap: int | None) -> None:
    """The suites' gate: every name in ``SUITES``, each cap None or an int >= 1."""
    for name in names:
        if name not in SUITES:
            raise InvalidInputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for cap, what in ((n_cap, "n_cap"), (l_cap, "l_cap")):
        if cap is not None and require_int(cap, what) < 1:
            raise InvalidInputError(f"need caps >= 1, got n_cap={n_cap}, l_cap={l_cap}")


def run_suite(name: str, n_cap: int | None = None, l_cap: int | None = None) -> CheckReport:
    """Run one suite by name, after ``check_suite_args``; its caller keeps any clock."""
    check_suite_args([name], n_cap, l_cap)
    return SUITES[name](n_cap=n_cap, l_cap=l_cap)
