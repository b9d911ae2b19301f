"""Malformed inputs and out-of-range parameters raise their typed errors."""

from dataclasses import replace

import pytest

from krawlp.configs import SDConfig, VennConfig, WordTuple
from krawlp.errors import InvalidInputError, ParameterError
from krawlp.krawtchouk import KrawtchoukTable, classical_krawtchouk, eval_direct, eval_explicit
from krawlp.lp import CodeSet, LPRow, build_delsarte, check_feasibility, profile_of_code
from krawlp.oracle import build_fourier_lp, max_code, max_linear_code

L1, L2 = SDConfig((0, 1)), SDConfig((0, 1, 1, 0))

# call, error type, message fragment
CASES = [
    (lambda: SDConfig((0, 1, 1)), InvalidInputError, "not a power of two"),
    (lambda: SDConfig((1, 1)), InvalidInputError, "empty combination"),
    (lambda: SDConfig((0, -1)), InvalidInputError, "cannot be negative"),
    (lambda: VennConfig((1, 0, 0), 1), InvalidInputError, "not a power of two"),
    (lambda: VennConfig((0, 0), 0), InvalidInputError, "blocklength"),
    (lambda: VennConfig((2, -1), 1), InvalidInputError, "cannot be negative"),
    (lambda: VennConfig((1, 1), 3), InvalidInputError, "add up to 2"),
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
    (lambda: classical_krawtchouk(4, 0, 3), ParameterError, "0 <= i, j <= n"),
    (lambda: eval_direct(L1, L2, 2), InvalidInputError, "mixed levels"),
    (lambda: eval_explicit(L1, L2, 2), InvalidInputError, "mixed levels"),
    (lambda: LPRow("R", (1,), "<", 1), InvalidInputError, "unsupported relation"),
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
        lambda: check_feasibility(build_fourier_lp(1, 1, 1, False), profile_of_code([0], 1, 1)),
        InvalidInputError,
        "word tuples",
    ),
    (lambda: max_code(3, -1), ParameterError, "d >= 0"),
    (lambda: max_code(0, 1), ParameterError, "n >= 1"),
    (lambda: max_linear_code(3, -1), ParameterError, "d >= 0"),
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
}


@pytest.mark.parametrize("call", NON_INT_BLOCKLENGTHS.values(), ids=NON_INT_BLOCKLENGTHS)
def test_non_int_blocklength_or_level_is_refused(call):
    # A bool is an int to Python and a float reaches a shift or a count;
    # each must stop at the typed check, not construct or raise TypeError.
    with pytest.raises(InvalidInputError, match="must be an int"):
        call()
