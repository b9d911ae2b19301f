"""Malformed inputs and out-of-range parameters raise their typed errors."""

import re
from dataclasses import replace

import pytest

from krawlp.configs import (
    SDConfig,
    VennConfig,
    WordTuple,
    check_config_args,
    config_index,
    config_to_json,
    enumerate_configs,
    forbidden_configs,
    orbit_size,
    representative_tuple,
    sd_to_venn,
    tuple_census,
)
from krawlp.errors import CapacityError, InvalidInputError, NotAConfigurationError, ParameterError
from krawlp.krawtchouk import (
    KrawtchoukTable,
    cached_table,
    classical_krawtchouk,
    eval_direct,
    eval_explicit,
)
from krawlp.lp import (
    CodeProfile,
    CodeSet,
    LPRow,
    build_delsarte,
    build_hierarchy_lp,
    check_feasibility,
    check_program_args,
    profile_of_code,
)
from krawlp.oracle import build_fourier_lp, iter_linear_codes, max_code, max_linear_code
from krawlp.simplex import root_value
from krawlp.suites import hierarchy_value, run_suite

L1, L2 = SDConfig((0, 1)), SDConfig((0, 1, 1, 0))
# Three nonzero weights need n >= 2: at n = 1 the empty Venn cell would be -1/2.
BAD = SDConfig((0, 1, 1, 1))
NOT_AT_N1 = re.escape("weight vector (0, 1, 1, 1) is not a configuration at n=1")

# call, error type, message fragment
CASES = [
    (lambda: SDConfig((0, 1, 1)), InvalidInputError, "not a power of two"),
    (lambda: SDConfig((1, 1)), InvalidInputError, "empty combination"),
    (lambda: SDConfig((0, -1)), InvalidInputError, "cannot be negative"),
    (lambda: VennConfig((1, 0, 0), 1), InvalidInputError, "not a power of two"),
    (lambda: VennConfig((0, 0), 0), InvalidInputError, "blocklength"),
    (lambda: VennConfig((2, -1), 1), InvalidInputError, "cannot be negative"),
    (lambda: VennConfig((1, 1), 3), InvalidInputError, "add up to 2"),
    # Configuration entries are a tuple of exact ints: no float, bool or list.
    (lambda: SDConfig((0.0, 1.5)), InvalidInputError, "must be a tuple of ints"),
    (lambda: SDConfig((0, 1.0)), InvalidInputError, "must be a tuple of ints"),
    (lambda: SDConfig((0, True)), InvalidInputError, "must be a tuple of ints"),
    (lambda: SDConfig([0, 1]), InvalidInputError, "must be a tuple of ints"),
    (lambda: VennConfig((1.5, 0.5), 2), InvalidInputError, "must be a tuple of ints"),
    (lambda: VennConfig((1, True), 2), InvalidInputError, "must be a tuple of ints"),
    (lambda: VennConfig([1, 1], 2), InvalidInputError, "must be a tuple of ints"),
    (lambda: WordTuple.from_strings([]), InvalidInputError, "empty"),
    (lambda: WordTuple.from_strings(["012"]), InvalidInputError, "0/1 string"),
    (lambda: CodeSet(frozenset({0}), 0), InvalidInputError, "blocklength"),
    (lambda: CodeSet(frozenset(), 3), InvalidInputError, "nonempty"),
    (lambda: CodeSet(frozenset({2.5}), 3), InvalidInputError, "3-bit integers"),
    (lambda: CodeSet(frozenset({0, 2.5}), 3), InvalidInputError, "3-bit integers"),
    (lambda: CodeSet(frozenset({True}), 1), InvalidInputError, "1-bit integers"),
    (lambda: WordTuple((2.5,), 3), InvalidInputError, "3-bit integers"),
    (lambda: profile_of_code([0, 2.7], 3, 1), InvalidInputError, "3-bit integers"),
    (lambda: profile_of_code(["0", "7"], 3, 1), InvalidInputError, "3-bit integers"),
    (lambda: KrawtchoukTable(1, -1, ()), InvalidInputError, "n, l >= 1"),
    (lambda: check_config_args(0, 2), ParameterError, "need n >= 1 and l >= 1"),
    (lambda: check_config_args(2, 0), ParameterError, "need n >= 1 and l >= 1"),
    (lambda: sd_to_venn(L1, 0), ParameterError, "blocklength must be positive"),
    (lambda: orbit_size(L2, -1), ParameterError, "blocklength must be positive"),
    (lambda: representative_tuple(L2, 0), ParameterError, "blocklength must be positive"),
    (lambda: config_to_json(L2, 0), ParameterError, "blocklength must be positive"),
    (lambda: tuple_census([]), InvalidInputError, "level l=0 is below 1"),
    # Every reader of the Venn cells refuses a weight vector that has none.
    (lambda: sd_to_venn(BAD, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: orbit_size(BAD, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: representative_tuple(BAD, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: config_to_json(BAD, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: eval_explicit(L2, BAD, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: eval_explicit(BAD, L2, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: eval_direct(BAD, L2, 1), NotAConfigurationError, NOT_AT_N1),
    (lambda: classical_krawtchouk(4, 0, 3), ParameterError, "0 <= i, j <= n"),
    (lambda: eval_direct(L1, L2, 2), InvalidInputError, "mixed levels"),
    (lambda: eval_explicit(L1, L2, 2), InvalidInputError, "mixed levels"),
    (lambda: LPRow("R", (1,), "<", 1), InvalidInputError, "unsupported relation"),
    # A program's numbers are exactly ints or Fractions.
    (
        lambda: replace(build_delsarte(1, 1), objective=(1, 0.5)),
        InvalidInputError,
        r"ints or Fractions, got \['float'\]",
    ),
    (
        lambda: replace(build_delsarte(1, 1), rows=(LPRow("R", (1, 0.1), "<=", 1),)),
        InvalidInputError,
        r"ints or Fractions, got \['float'\]",
    ),
    (
        lambda: replace(build_delsarte(1, 1), rows=(LPRow("R", (1, 1), "<=", 1.0),)),
        InvalidInputError,
        r"ints or Fractions, got \['float'\]",
    ),
    (
        lambda: replace(build_delsarte(1, 1), rows=(LPRow("R", (True, 1), "<=", 1),)),
        InvalidInputError,
        r"ints or Fractions, got \['bool'\]",
    ),
    (
        lambda: replace(build_delsarte(3, 2), objective=build_delsarte(3, 2).objective[:-1]),
        InvalidInputError,
        "objective length",
    ),
    (
        lambda: replace(build_delsarte(3, 2), rows=(LPRow("R", (1,), "<=", 1),)),
        InvalidInputError,
        "row R length",
    ),
    (
        lambda: replace(build_delsarte(1, 1), var_indices=(), objective=(), rows=()),
        InvalidInputError,
        "at least one variable",
    ),
    (
        lambda: check_feasibility(build_fourier_lp(1, 1, 1, False), profile_of_code([0], 1, 1)),
        InvalidInputError,
        "word tuples",
    ),
    (lambda: max_code(3, -1), ParameterError, "d >= 0"),
    (lambda: max_code(0, 1), ParameterError, "n >= 1"),
    (lambda: max_linear_code(3, -1), ParameterError, "d >= 0"),
    (lambda: max_linear_code(0, 1), ParameterError, "n >= 1"),
    # The linear enumeration passes max_linear_code's gate before its first code.
    (lambda: next(iter_linear_codes(11)), CapacityError, "enumeration budget n <= 10"),
    (lambda: next(iter_linear_codes(0)), ParameterError, "n >= 1"),
    (lambda: next(iter_linear_codes(1.5)), InvalidInputError, "must be an int"),
    # A float or bool n, d or l stops at its function's typed gate.
    (lambda: max_code(2.5, 3), InvalidInputError, "must be an int"),
    (lambda: max_code(3, True), InvalidInputError, "must be an int"),
    (lambda: max_linear_code(3.0, 2), InvalidInputError, "must be an int"),
    (lambda: max_linear_code(3, 2.0), InvalidInputError, "must be an int"),
    (lambda: check_program_args(3, 2, 1.0), InvalidInputError, "must be an int"),
    (lambda: build_delsarte(3, 2.5), InvalidInputError, "must be an int"),
    (lambda: build_delsarte(3.0, 2), InvalidInputError, "must be an int"),
    (lambda: build_fourier_lp(2.0, 2, 1, False), InvalidInputError, "must be an int"),
    (lambda: forbidden_configs(3, 2.5, 1), InvalidInputError, "must be an int"),
    (lambda: forbidden_configs("3", 2, 1), InvalidInputError, "must be an int"),
    (lambda: classical_krawtchouk(1.0, 0, 3), InvalidInputError, "must be an int"),
    (lambda: classical_krawtchouk(1, 0, True), InvalidInputError, "must be an int"),
    (lambda: root_value(4, 2.0), InvalidInputError, "must be an int"),
    (lambda: CodeProfile(2.0, 1, 1, {}, 1), InvalidInputError, "must be an int"),
    (lambda: CodeProfile(2, 1, 1, {}, 1.0), InvalidInputError, "must be an int"),
    (lambda: CodeProfile(1, 1, 0, {0: 1}, 1), InvalidInputError, "size and denominator >= 1"),
    (lambda: CodeProfile(1, 1, -5, {0: 1}, 1), InvalidInputError, "size and denominator >= 1"),
    (lambda: CodeProfile(3, 1, 2, {0: 1, 3: 1.0}, 1), InvalidInputError, "counts must be ints"),
    (lambda: CodeProfile(3, 1, 2, {0: True}, 1), InvalidInputError, "counts must be ints"),
    # 3.0 and True hash like 3 and 1: a warm cache must not answer them.
    (lambda: (cached_table(3, 2), cached_table(3.0, 2)), InvalidInputError, "must be an int"),
    (lambda: (cached_table(1, 1), cached_table(True, 1)), InvalidInputError, "must be an int"),
    (
        lambda: (hierarchy_value(3, 2, 1, False), hierarchy_value(3.0, 2, 1, False)),
        InvalidInputError,
        "must be an int",
    ),
    (
        lambda: (max_linear_code(3, 2), max_linear_code(3.0, 2)),
        InvalidInputError,
        "must be an int",
    ),
    (lambda: (max_code(3, 2), max_code(3, 2.0)), InvalidInputError, "must be an int"),
    # Out-of-range values keep their ParameterError and message.
    (lambda: build_delsarte(3, 5), ParameterError, r"1 <= d <= n\+1"),
    (lambda: forbidden_configs(3, 5, 1), ParameterError, r"0 <= d <= n\+1"),
    (lambda: root_value(4, 0), ParameterError, "root order must be >= 1"),
    # The suites' one gate: a name in SUITES, caps exactly ints >= 1.
    (lambda: run_suite("nope"), ParameterError, "unknown suite 'nope'; choose from"),
    (lambda: run_suite("census", 2.5), InvalidInputError, "n_cap must be an int"),
    (lambda: run_suite("census", None, 1.0), InvalidInputError, "l_cap must be an int"),
    (lambda: run_suite("collapse", "3"), InvalidInputError, "n_cap must be an int"),
    (lambda: run_suite("census", True), InvalidInputError, "n_cap must be an int"),
    (lambda: run_suite("census", 0), ParameterError, "need caps >= 1, got n_cap=0"),
    # A variable index names a configuration: never negative, and below the
    # (n, l) count before a profile is read against it; (2, 1) has 3.
    (
        lambda: replace(build_delsarte(1, 1), var_indices=(-1, 0)),
        InvalidInputError,
        "variable index must be an int >= 0, got -1",
    ),
    (
        lambda: check_feasibility(
            replace(build_hierarchy_lp(2, 1, 1, False), var_indices=(0, 1, 5)),
            profile_of_code([0, 3], 2, 1),
        ),
        InvalidInputError,
        r"variable index 5 names no configuration: \(n=2, l=1\) has 3",
    ),
]


@pytest.mark.parametrize("call,error,fragment", CASES)
def test_bad_input_raises_its_typed_error(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


NON_INT_BLOCKLENGTHS = {
    "table-float-n": lambda: KrawtchoukTable(1.5, 1, ()),
    "table-bool-n": lambda: KrawtchoukTable(True, 1, ((1, 1), (1, -1))),
    "table-float-l": lambda: KrawtchoukTable(1, 1.0, ((1, 1), (1, -1))),
    "code-float-n": lambda: CodeSet(frozenset({0}), 1.5),
    "code-bool-n": lambda: CodeSet(frozenset({0}), True),
    "gate-float-n": lambda: check_config_args(3.0, 2),
    "gate-bool-l": lambda: check_config_args(3, True),
    "sd-to-venn-float-n": lambda: sd_to_venn(L2, 2.5),
    "sd-to-venn-bool-n": lambda: sd_to_venn(L2, True),
    "orbit-float-n": lambda: orbit_size(L2, 3.0),
    "venn-float-n": lambda: VennConfig((1, 1), 2.0),
    "venn-bool-n": lambda: VennConfig((0, 1), True),
    "enumerate-bool-n": lambda: enumerate_configs(True, 2),
    # 3.0 hashes like 3: a cached (3, 2) enumeration must not answer it
    "enumerate-float-n-cached": lambda: (enumerate_configs(3, 2), enumerate_configs(3.0, 2)),
    "enumerate-float-l-cached": lambda: (enumerate_configs(3, 2), enumerate_configs(3, 2.0)),
    "index-float-n-cached": lambda: (config_index(3, 2), config_index(3.0, 2)),
}


@pytest.mark.parametrize("call", NON_INT_BLOCKLENGTHS.values(), ids=NON_INT_BLOCKLENGTHS)
def test_non_int_blocklength_or_level_is_refused(call):
    # A bool is an int to Python and a float reaches a shift or a count;
    # each must stop at the typed check, not construct or raise TypeError.
    with pytest.raises(InvalidInputError, match="must be an int"):
        call()
