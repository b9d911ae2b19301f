"""Brute-force oracles: exact code sizes, duals, transforms, word-tuple LP."""

import functools
import hashlib
import itertools
import json
import operator
import random
from collections import Counter
from math import inf

import pytest

from krawlp import oracle
from krawlp.configs import (
    WordTuple,
    _basis,
    _subset_xors,
    config_index,
    config_of_tuple,
    tuple_census,
)
from krawlp.errors import CapacityError, InvalidInputError, SelfCheckError
from krawlp.krawtchouk import CheckReport, KrawtchoukTable, build_table
from krawlp.lp import build_hierarchy_lp, profile_of_code, row_sums
from krawlp.oracle import (
    MAX_LINEAR_CODES,
    CodeSet,
    _iter_rref,
    _max_independent_set,
    build_fourier_lp,
    dual_code,
    iter_linear_codes,
    linear_code_count,
    max_code,
    max_linear_code,
    verify_macwilliams,
)
from krawlp.simplex import root_value, solve_exact


# ---------------------------------------------------------------------------
# CodeSet
# ---------------------------------------------------------------------------


def test_codeset_linearity_flag():
    assert CodeSet(frozenset({0, 3}), 2).linear
    assert not CodeSet(frozenset({1, 3}), 2).linear
    assert CodeSet(frozenset({0}), 4).linear


def _closed_pairwise(words):
    # Reference: 0 is a word and every pairwise XOR is one.
    return 0 in words and all(a ^ b in words for a, b in itertools.combinations(words, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linearity_by_rank_matches_the_pairwise_closure(n):
    for mask in range(1, 1 << (1 << n)):
        words = frozenset(w for w in range(1 << n) if (mask >> w) & 1)
        assert CodeSet(words, n).linear == _closed_pairwise(words), sorted(words)


def test_codeset_min_distance():
    assert CodeSet(frozenset({0b000, 0b111}), 3).min_distance() == 3
    assert CodeSet(frozenset({0}), 3).min_distance() == inf


def test_codeset_json_roundtrip():
    code = CodeSet(frozenset({0, 0b1011}), 4)
    data = json.loads(code.to_json())
    assert data["words"] == ["0", "b"]
    assert CodeSet.from_json(code.to_json()) == code


@pytest.mark.parametrize(
    "text",
    [
        '{"n":3,"words":["zz"]}',
        '{"n":3,"words":[5]}',
        '{"n":3}',
        '{"n":true,"words":["0","1"]}',
        '{"n":1.0,"words":["0","1"]}',
        '{"n":8,"words":"ff"}',
        '{"n":8,"words":{"ff":1}}',
        "[]",
        "{",
    ],
)
def test_codeset_json_rejects_malformed(text):
    with pytest.raises(InvalidInputError):
        CodeSet.from_json(text)


# ---------------------------------------------------------------------------
# max_code
# ---------------------------------------------------------------------------


def test_max_code_known_values():
    assert max_code(4, 3)[0] == 2
    assert max_code(5, 3)[0] == 4
    for n in range(1, 7):
        assert max_code(n, 1)[0] == 2**n
    assert max_code(5, 5)[0] == 2
    assert max_code(6, 3)[0] == 8


def test_max_code_witness_has_distance():
    for n, d in [(4, 3), (5, 3), (5, 4), (6, 5)]:
        size, witness = max_code(n, d)
        assert witness.size == size
        assert witness.min_distance() >= d


def test_max_code_checks_its_witness_distance(monkeypatch):
    # A search that returns two adjacent words (0 and 1, distance 1 < 2)
    # must not pass as a witness.
    monkeypatch.setattr(oracle, "_max_independent_set", lambda adj: (2, 0b11))
    with pytest.raises(SelfCheckError, match="witness has too small a distance"):
        max_code(3, 2)


def test_max_code_capacity():
    with pytest.raises(CapacityError):
        max_code(8, 3)


# Odd d >= 3 with d <= n <= 7; every other (n, d) follows from these.
ODD_D_VALUES = {
    (3, 3): 2, (4, 3): 2, (5, 3): 4, (6, 3): 8, (7, 3): 16,
    (5, 5): 2, (6, 5): 2, (7, 5): 2, (7, 7): 2,
}


def _known_a2(n, d):
    if d <= 1:
        return 2**n
    if d > n:
        return 1
    if d % 2 == 0:
        # A(n, 2t) = A(n-1, 2t-1); at d = 2 this is 2^(n-1)
        return _known_a2(n - 1, d - 1)
    return ODD_D_VALUES[(n, d)]


def _cayley_graph(n, connection):
    # u ~ v iff u ^ v is in the connection set
    return [
        sum(1 << u for u in range(1 << n) if u ^ v in connection) for v in range(1 << n)
    ]


def _reference_independence_number(adj):
    # Plain include/exclude over the vertices, no bound and no fixed vertex.
    full = (1 << len(adj)) - 1
    far = [full & ~a & ~(1 << v) for v, a in enumerate(adj)]

    def best(candidates):
        if not candidates:
            return 0
        low = candidates & -candidates
        v = low.bit_length() - 1
        return max(1 + best(candidates & far[v]), best(candidates ^ low))

    return best(full)


def _lexicode(n, d):
    # The greedy scan in index order: keep each word at distance >= d from
    # every word kept so far.
    code = []
    for v in range(1 << n):
        if all((v ^ u).bit_count() >= d for u in code):
            code.append(v)
    return code


@pytest.mark.parametrize("n", range(1, 8))
def test_max_code_full_budget_table(n):
    # The search's first descent is the greedy scan, and within the budget
    # no later branch beats it, so every witness is the lexicode.
    for d in range(0, n + 3):
        size, witness = max_code(n, d)
        assert size == _known_a2(n, d), (n, d)
        assert witness.size == size
        assert witness.min_distance() >= d
        assert 0 in witness.words
        assert sorted(witness.words) == _lexicode(n, d), (n, d)


def test_max_code_matches_unbounded_reference():
    cases = [(n, d) for n in range(1, 5) for d in range(0, n + 2)]
    cases += [(5, d) for d in range(3, 7)]
    for n, d in cases:
        ball = {w for w in range(1, 1 << n) if w.bit_count() < d}
        reference = _reference_independence_number(_cayley_graph(n, ball))
        assert max_code(n, d)[0] == reference, (n, d)


def test_independent_set_search_on_random_cayley_graphs():
    # On every distance graph within the budget the search's first descent,
    # the greedy index-order scan, is already maximum, so only other Cayley
    # graphs make it improve; for several of these graphs the scan is not
    # maximum.
    rng = random.Random(1)
    for n, sizes in ((4, (3, 7)), (5, (8, 16))):
        for _ in range(20):
            connection = set(rng.sample(range(1, 1 << n), rng.randint(*sizes)))
            adj = _cayley_graph(n, connection)
            size, mask = _max_independent_set(adj)
            assert size == mask.bit_count() == _reference_independence_number(adj)
            assert mask & 1
            assert all(not (mask & adj[v]) for v in range(1 << n) if mask >> v & 1)


def test_max_code_matches_exhaustive_tiny():
    # independent oracle at n = 3: scan all subsets
    for d in (2, 3):
        best = 0
        for size in range(1, 9):
            for words in itertools.combinations(range(8), size):
                if all(
                    (a ^ b).bit_count() >= d
                    for a, b in itertools.combinations(words, 2)
                ):
                    best = max(best, size)
        assert max_code(3, d)[0] == best


# ---------------------------------------------------------------------------
# max_linear_code
# ---------------------------------------------------------------------------


def test_max_linear_known_values():
    assert max_linear_code(4, 3)[0] == 2
    assert max_linear_code(7, 3)[0] == 16  # [7,4,3] code
    for n in range(2, 7):
        assert max_linear_code(n, n)[0] == 2  # repetition code
    assert max_linear_code(3, 2)[0] == 4


def test_max_linear_witness_is_linear_with_distance():
    for n, d in [(4, 3), (5, 3), (6, 3), (7, 3)]:
        size, witness = max_linear_code(n, d)
        assert witness.linear and witness.size == size
        assert witness.min_distance() >= d


def test_max_linear_at_most_general():
    for n in range(1, 6):
        for d in range(1, n + 1):
            assert max_linear_code(n, d)[0] <= max_code(n, d)[0]


def test_max_linear_capacity():
    with pytest.raises(CapacityError):
        max_linear_code(11, 3)


# ---------------------------------------------------------------------------
# dual_code
# ---------------------------------------------------------------------------


def test_dual_examples():
    assert sorted(dual_code(CodeSet(frozenset({0b00, 0b11}), 2)).words) == [0, 3]
    assert dual_code(CodeSet(frozenset({0}), 3)).size == 8
    even = CodeSet(frozenset({0b000, 0b011, 0b101, 0b110}), 3)
    assert sorted(dual_code(even).words) == [0, 7]


# SHA-256 of repr([sorted(c.words) for c in iter_linear_codes(n)]).  The
# order decides the witnesses of ``krawlp oracle --linear``, so it is pinned.
LINEAR_CODE_DIGESTS = {
    1: "32509c3225e16d1e7baf9c44c353997d662ca93226079f6283d0183006fe0293",
    2: "d526c6df79dea7918dff94960dc8bcd3c31e92a2bd1b3a91c96148c4468ccffe",
    3: "e8cbd0cd6be0070be8f59008d50b372f1c7cdaaec36ea4f6ac787dd1553d9a67",
    4: "b9808b9e4ff7ebd48d01ea992e0df0c958a9924cda2e37963bd8d71cf317015a",
    5: "a6513532f9ff0f7fe6e68bfc3fe47b1aba7ac1f2c37282724203de3f6caaa65e",
}


@pytest.mark.parametrize("n", sorted(LINEAR_CODE_DIGESTS))
def test_linear_code_enumeration_order_is_pinned(n):
    codes = [sorted(c.words) for c in iter_linear_codes(n)]
    assert hashlib.sha256(repr(codes).encode()).hexdigest() == LINEAR_CODE_DIGESTS[n]


def test_linear_code_counts():
    # The number of subspaces of F_2^n, each yielded once.
    counts = [len({c.words for c in iter_linear_codes(n)}) for n in range(1, 7)]
    assert counts == [2, 5, 16, 67, 374, 2825]
    assert all(c.linear for c in iter_linear_codes(4))


def test_linear_code_count_is_the_enumeration_length():
    assert [linear_code_count(n) for n in range(1, 7)] == [
        len(list(iter_linear_codes(n))) for n in range(1, 7)
    ]
    assert linear_code_count(8) <= MAX_LINEAR_CODES < linear_code_count(9)


@pytest.mark.parametrize("n", [9, 10])
def test_linear_code_budget_refuses_at_the_call(monkeypatch, n):
    # The count is closed form: no generator matrix is built before the refusal.
    monkeypatch.setattr(oracle, "_iter_rref", None)
    with pytest.raises(CapacityError, match=f"{linear_code_count(n)} linear codes exceed"):
        iter_linear_codes(n)


def test_basis_is_the_rref_the_enumeration_yields():
    # The eliminator and the enumerator agree on one echelon form: every
    # subspace at n <= 6, its span shuffled, reduces to its enumerated rows.
    rng = random.Random(7)
    checked = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for rows in _iter_rref(n, k):
                span = _subset_xors(rows)
                rng.shuffle(span)
                assert _basis(span) == list(rows)
                checked += 1
    assert checked == 3289


def test_dual_rejects_nonlinear():
    with pytest.raises(InvalidInputError):
        dual_code(CodeSet(frozenset({1, 2}), 2))


def test_dual_checks_orthogonality_to_the_basis(monkeypatch):
    # 011 and 110 span the even code but are not reduced: 011 holds bit 1,
    # the pivot of 110.  The dual vector built for free bit 2 is then 110,
    # which meets 011 in one bit.
    monkeypatch.setattr(oracle, "_basis", lambda words: [0b011, 0b110])
    even = CodeSet(frozenset({0b000, 0b011, 0b101, 0b110}), 3)
    with pytest.raises(SelfCheckError, match="not orthogonal to the code basis"):
        dual_code(even)


def test_dual_checks_the_size_identity(monkeypatch):
    # A full-rank basis for a 2-word code leaves the dual {0}: 2 * 1 != 2^3.
    monkeypatch.setattr(oracle, "_basis", lambda words: [0b001, 0b010, 0b100])
    with pytest.raises(SelfCheckError, match=r"\|C\| \* \|C\^perp\| = 2\^n failed"):
        dual_code(CodeSet(frozenset({0b000, 0b001}), 3))


def test_dual_involution_and_size():
    for n in range(1, 7):
        for code in iter_linear_codes(n):
            dual = dual_code(code)
            assert code.size * dual.size == 1 << n
            assert dual_code(dual) == code


def test_dual_matches_a_scan_of_all_words():
    for n in range(1, 7):
        for code in iter_linear_codes(n):
            scan = {
                x for x in range(1 << n) if not any((x & w).bit_count() & 1 for w in code.words)
            }
            assert dual_code(code).words == scan


# ---------------------------------------------------------------------------
# verify_macwilliams
# ---------------------------------------------------------------------------


def test_macwilliams_repetition_code():
    report = verify_macwilliams(CodeSet(frozenset({0b00, 0b11}), 2), 1)
    assert report.passed
    assert report.checked == 6  # identity and inequality, one per weight 0..2


def test_macwilliams_transform_value_by_hand():
    # transform of (a_0, a_2) = (1, 1) at n = 2 gives the dual profile (1, 0, 1)
    code = CodeSet(frozenset({0b00, 0b11}), 2)
    from krawlp.krawtchouk import cached_table

    table = cached_table(2, 1)
    prof = [1, 0, 1]  # weight counts of the code itself
    transform = [
        sum(table.values[h][g] * prof[g] for g in range(3)) for h in range(3)
    ]
    assert transform == [2, 0, 2]  # |C| times the dual profile


def test_macwilliams_zero_code_dual_is_full_space():
    for n in (2, 3):
        code = CodeSet(frozenset({0}), n)
        assert verify_macwilliams(code, 1).passed
        assert verify_macwilliams(code, 2).passed
        assert dual_code(code).size == 1 << n


def test_macwilliams_inequality_all_small_codes():
    for n in (2, 3):
        for size in range(1, 5):
            for words in itertools.combinations(range(1 << n), size):
                report = verify_macwilliams(CodeSet(frozenset(words), n), 2)
                assert report.passed, words


def test_macwilliams_identity_skipped_for_nonlinear():
    report = verify_macwilliams(CodeSet(frozenset({1, 2}), 2), 1)
    assert report.checked == 3  # inequality rows only, one per weight 0..2


def _pair_census(c, ell):
    # The difference tuples of all pairs of l-tuples, by config index.
    diff = Counter(x ^ y for x in c.words for y in c.words)
    index = config_index(c.n, ell)
    return {index[key]: m for key, m in tuple_census([list(diff.items())] * ell).items()}


def _macwilliams_by_rows(c, ell):
    # Reference: every transform entry as its own row sum over the profile,
    # the code and dual profiles from profile_of_code.  The inequality rows
    # read the pair census counted here, so a linear code's pair transform
    # is checked to be |C|^l times its profile's.
    table = oracle.cached_table(c.n, ell)
    violations = []
    if c.linear:
        prof = profile_of_code(c.words, c.n, ell).counts
        dual_prof = profile_of_code(dual_code(c).words, c.n, ell).counts
        scale = c.size**ell
        for h_idx, rhs in enumerate(row_sums(table.values, prof.items())):
            lhs = scale * dual_prof.get(h_idx, 0)
            if lhs != rhs:
                violations.append(
                    f"identity at h={h_idx}: {lhs} != {rhs} (|C|={c.size}, l={ell})"
                )
    for h_idx, s in enumerate(row_sums(table.values, _pair_census(c, ell).items())):
        if s < 0:
            violations.append(f"inequality at h={h_idx}: transform {s} < 0")
    checked = table.size * (2 if c.linear else 1)
    return CheckReport("macwilliams", checked, tuple(violations))


def _suite_codes(n):
    # The macwilliams suite's codes at n: every linear code, then every
    # nonlinear code of 1 to 4 words.
    codes = list(iter_linear_codes(n))
    for size in range(1, 5):
        for words in itertools.combinations(range(1 << n), size):
            code = CodeSet(frozenset(words), n)
            if not code.linear:
                codes.append(code)
    return codes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_macwilliams_matches_row_sums_on_the_suite_grid(n):
    for code in _suite_codes(n):
        for ell in (1, 2):
            assert verify_macwilliams(code, ell) == _macwilliams_by_rows(code, ell)


def _with_values(table, values):
    return KrawtchoukTable(table.n, table.ell, tuple(map(tuple, values)))


@pytest.mark.parametrize("n,ell", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_packed_macwilliams_matches_row_sums_on_wrong_tables(monkeypatch, n, ell):
    true = build_table(n, ell)
    size = true.size
    rng = random.Random(100 * n + ell)
    cases = []
    for _ in range(6):
        values = [list(r) for r in true.values]
        values[rng.randrange(size)][rng.randrange(size)] += rng.choice((1, -1))
        cases.append(_with_values(true, values))
    cases.append(_with_values(true, [[-v for v in true.values[0]], *true.values[1:]]))
    # An entry far past 2^(2 l n): only the table's own largest entry
    # makes the digits wide enough.  A narrower digit of a negative sum
    # would wrap to a positive one and hide a violation.
    for sign in (1, -1):
        values = [list(r) for r in true.values]
        values[rng.randrange(1, size)][rng.randrange(size)] = sign << (3 * ell * n)
        cases.append(_with_values(true, values))
    kinds = set()
    codes = _suite_codes(n)
    for case in cases:
        monkeypatch.setattr(oracle, "cached_table", lambda n_, ell_, t=case: t)
        for code in codes:
            want = _macwilliams_by_rows(code, ell)
            assert verify_macwilliams(code, ell) == want, (case.values, sorted(code.words))
            kinds.update(v.split(" at ")[0] for v in want.violations)
    # Both failure paths ran.
    assert kinds == {"identity", "inequality"}


def test_packed_macwilliams_sees_a_transform_digit_just_under_its_bound(monkeypatch):
    # Row 2 of the (2,1) table set to -15 makes the packing bound
    # 15 * 2^(2 l n) = 240, whose 8 bits fill a whole byte, so only the two
    # spare bits of pack_columns keep the digits apart.  The nonlinear
    # code {0, 1, 2} has its 9 pairs on all three weights, so its
    # transform at h = 2 is -135, below -2^7: in 8-bit digits, adding the
    # tops would borrow from the digit above and read it as non-negative.
    true = build_table(2, 1)
    table = _with_values(true, [*true.values[:2], [-15] * 3])
    bound = 15 << 4
    assert bound.bit_length() % 8 == 0 and -135 < -(1 << (bound.bit_length() - 1))
    monkeypatch.setattr(oracle, "cached_table", lambda n_, ell_: table)
    code = CodeSet(frozenset({0, 1, 2}), 2)
    want = _macwilliams_by_rows(code, 1)
    assert want.violations == ("inequality at h=2: transform -135 < 0",)
    assert verify_macwilliams(code, 1) == want


# ---------------------------------------------------------------------------
# word-tuple LP
# ---------------------------------------------------------------------------


def test_fourier_tiny_value():
    lp = build_fourier_lp(1, 1, 1, linear=False)
    assert lp.num_vars == 2
    assert solve_exact(lp).value == 2


def test_fourier_row_and_variable_counts():
    lp = build_fourier_lp(2, 2, 1, linear=False)
    # variables: words with weight not in {1}; rows: NORM + one per word
    assert lp.num_vars == 2
    assert len(lp.rows) == 1 + 4


def test_fourier_capacity():
    with pytest.raises(CapacityError):
        build_fourier_lp(7, 3, 2, linear=False)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fourier_matches_hierarchy_values(n):
    for d in range(1, n + 1):
        for ell in (1, 2):
            for linear in (False, True):
                vf = solve_exact(build_fourier_lp(n, d, ell, linear)).value
                vk = solve_exact(build_hierarchy_lp(n, d, ell, linear)).value
                assert vf == vk, (n, d, ell, linear)


@pytest.mark.parametrize("n,ell", [(2, 2), (1, 3)])
@pytest.mark.parametrize("linear", [False, True], ids=["general", "linear"])
def test_fourier_rows_entry_by_entry(n, ell, linear):
    # Every coefficient from the per-word parity sum, every kept tuple from
    # the per-word distance rule: a general tuple keeps no word of weight
    # 1..d-1, a linear one no nonzero XOR combination of such weight.
    points = range(1 << (n * ell))
    mask = (1 << n) - 1

    def words(p):
        return [(p >> (n * j)) & mask for j in range(ell)]

    def combinations(ws):
        if not linear:
            return ws
        return [
            functools.reduce(operator.xor, (w for j, w in enumerate(ws) if s >> j & 1), 0)
            for s in range(1, 1 << ell)
        ]

    for d in range(1, n + 2):
        lp = build_fourier_lp(n, d, ell, linear)
        kept = tuple(
            p for p in points if not any(1 <= c.bit_count() < d for c in combinations(words(p)))
        )
        assert lp.var_indices == kept, d
        norm = lp.rows[0]
        assert (norm.name, norm.relation, norm.rhs) == ("NORM", "=", 1)
        assert norm.coeffs == tuple(int(p == 0) for p in kept)
        assert len(lp.rows) == 1 + len(points)
        for alpha, row in zip(points, lp.rows[1:]):
            assert (row.name, row.relation, row.rhs) == (f"F_{alpha}", ">=", 0)
            want = []
            for p in kept:
                parity = 0
                for a, w in zip(words(alpha), words(p)):
                    parity ^= (a & w).bit_count()
                want.append(-1 if parity & 1 else 1)
            assert row.coeffs == tuple(want), (d, alpha)


def test_fourier_indicator_solution_feasible():
    # the product indicator of a linear distance-d code satisfies every row
    n, d, ell = 3, 2, 2
    size, code = max_linear_code(n, d)
    lp = build_fourier_lp(n, d, ell, linear=True)
    words = code.words
    x = []
    for p in lp.var_indices:
        parts = tuple((p >> (n * j)) & ((1 << n) - 1) for j in range(ell))
        x.append(1 if all(w in words for w in parts) else 0)
    assert sum(x) == size**ell
    for row in lp.rows:
        lhs = sum(c * v for c, v in zip(row.coeffs, x))
        assert lhs == row.rhs if row.relation == "=" else lhs >= row.rhs


def test_fourier_orbit_sums_reproduce_profile():
    # summing the indicator solution over configuration classes gives the
    # profile of the linear code
    n, ell = 3, 2
    _, code = max_linear_code(n, 2)
    words = code.words
    index = config_index(n, ell)
    sums: dict = {}
    for parts in itertools.product(range(1 << n), repeat=ell):
        if all(w in words for w in parts):
            i = index[config_of_tuple(WordTuple(parts, n)).entries]
            sums[i] = sums.get(i, 0) + 1
    prof = profile_of_code(sorted(words), n, ell)
    assert prof.denom == 1
    assert sums == prof.counts


def test_oracle_lp_soundness_via_root():
    for n in range(1, 5):
        for d in range(1, n + 1):
            for ell in (1, 2):
                v_lin = solve_exact(build_hierarchy_lp(n, d, ell, True)).value
                v_gen = solve_exact(build_hierarchy_lp(n, d, ell, False)).value
                assert root_value(v_lin, ell) >= max_linear_code(n, d)[0] - 1e-9
                assert root_value(v_gen, ell) >= max_code(n, d)[0] - 1e-9
