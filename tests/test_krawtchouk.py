"""Value evaluation: three routes, identities, exports, cache."""

import itertools

import pytest

from krawlp import krawtchouk
from krawlp.configs import (
    SDConfig,
    WordTuple,
    config_of_tuple,
    enumerate_configs,
    orbit_size,
    representative_tuple,
)
from krawlp.errors import CapacityError, ParameterError
from krawlp.krawtchouk import (
    build_table,
    build_table_alt,
    cached_table,
    classical_krawtchouk,
    eval_direct,
    eval_explicit,
    load_table,
    save_table,
    table_to_csv,
    verify_orthogonality,
    verify_reflection,
)


# ---------------------------------------------------------------------------
# classical values
# ---------------------------------------------------------------------------


def test_classical_degree_zero_and_one():
    for n in range(1, 7):
        for j in range(n + 1):
            assert classical_krawtchouk(0, j, n) == 1
            assert classical_krawtchouk(1, j, n) == n - 2 * j
    assert classical_krawtchouk(1, 1, 4) == 2
    assert classical_krawtchouk(2, 2, 2) == 1


def test_classical_matches_character_sum():
    # independent oracle: sum characters over all words of weight i
    n = 5
    for i in range(n + 1):
        for j in range(n + 1):
            x = (1 << j) - 1  # representative of weight j
            brute = sum(
                1 - 2 * ((x & y).bit_count() & 1)
                for y in range(1 << n)
                if y.bit_count() == i
            )
            assert classical_krawtchouk(i, j, n) == brute


# ---------------------------------------------------------------------------
# the three evaluation routes
# ---------------------------------------------------------------------------


def test_direct_trivial_rows_and_columns():
    for n, ell in [(2, 1), (2, 2)]:
        configs = enumerate_configs(n, ell)
        trivial = configs[0]
        for g in configs:
            assert eval_direct(trivial, g, n) == 1
            assert eval_direct(g, trivial, n) == orbit_size(g, n)


def test_direct_single_point_example():
    h = config_of_tuple(WordTuple((1, 0), 1))
    g = config_of_tuple(WordTuple((1, 1), 1))
    assert eval_direct(h, g, 1) == -1
    assert eval_explicit(h, g, 1) == -1


def test_direct_independent_of_representative():
    # the character sum must not depend on which tuple represents g
    n, ell = 3, 2
    configs = enumerate_configs(n, ell)
    by_config = {}
    for words in itertools.product(range(1 << n), repeat=ell):
        by_config.setdefault(config_of_tuple(WordTuple(words, n)), []).append(words)
    h = configs[5]
    bucket_h = by_config[h]
    for g in configs[:8]:
        values = set()
        for x in by_config[g][:6]:
            acc = 0
            for y in bucket_h:
                parity = 0
                for xj, yj in zip(x, y):
                    parity ^= (xj & yj).bit_count()
                acc += 1 - 2 * (parity & 1)
            values.add(acc)
        assert len(values) == 1
        assert values.pop() == eval_direct(h, g, n)


def test_explicit_classical_specialization():
    w1 = SDConfig((0, 1))
    w2 = SDConfig((0, 2))
    assert eval_explicit(w1, w1, 4) == 2  # K_1(1) = n - 2
    assert eval_explicit(w2, w1, 4) == 0  # K_2(1) at n = 4
    for i in range(5):
        for j in range(5):
            assert eval_explicit(SDConfig((0, i)), SDConfig((0, j)), 4) == (
                classical_krawtchouk(i, j, 4)
            )


def test_direct_capacity_budget(monkeypatch):
    def no_enumeration(n, ell):
        raise AssertionError("tuples enumerated past the budget")

    monkeypatch.setattr(krawtchouk, "_tuples_by_config", no_enumeration)
    h = SDConfig((0, 1))
    with pytest.raises(CapacityError):
        eval_direct(h, h, 30)
    # n*l = 21 is the first size past the 2^20-tuple budget
    with pytest.raises(CapacityError):
        eval_direct(h, h, 21)


@pytest.mark.parametrize("n,ell", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (4, 2)])
def test_triple_agreement(n, ell):
    configs = enumerate_configs(n, ell)
    table = cached_table(n, ell)
    for a, h in enumerate(configs):
        for b, g in enumerate(configs):
            ve = eval_explicit(h, g, n)
            assert ve == table.values[a][b]
            assert ve == eval_direct(h, g, n)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table_2_1_by_hand():
    assert build_table(2, 1).values == ((1, 1, 1), (2, 0, -2), (1, -1, 1))


def test_table_1_2_is_character_matrix():
    assert build_table(1, 2).values == (
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
    )


def test_table_invariants():
    for n, ell in [(4, 1), (3, 2), (5, 2)]:
        table = cached_table(n, ell)
        configs = enumerate_configs(n, ell)
        sizes = [orbit_size(g, n) for g in configs]
        bound = 1 << (ell * n)
        assert list(table.values[0]) == [1] * table.size
        for i in range(table.size):
            assert table.values[i][0] == sizes[i]
            assert all(abs(v) <= bound for v in table.values[i])
        # transform of the trivial row: sum_g |g| K_h(g) = 0 for h nontrivial
        for i in range(1, table.size):
            assert sum(w * v for w, v in zip(sizes, table.values[i])) == 0


@pytest.mark.parametrize("n,ell", [(1, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
def test_recursion_variants_agree(n, ell):
    assert build_table(n, ell).values == build_table_alt(n, ell).values


def test_table_budget_errors():
    with pytest.raises(CapacityError):
        build_table(4, 5)
    with pytest.raises(CapacityError):
        build_table(300, 2)
    with pytest.raises(ParameterError):
        build_table(0, 1)


# ---------------------------------------------------------------------------
# identity sweeps
# ---------------------------------------------------------------------------


def test_orthogonality_small():
    report = verify_orthogonality(cached_table(3, 1))
    assert report.passed and report.checked == 10
    assert verify_orthogonality(cached_table(2, 2)).passed


def test_orthogonality_diagonal_value():
    # n=2, l=1, h = weight 1: 1*2^2 + 2*0 + 1*(-2)^2 = 8 = 2^2 * |h|
    table = cached_table(2, 1)
    sizes = [orbit_size(g, 2) for g in enumerate_configs(2, 1)]
    row = table.values[1]
    assert sum(w * v * v for w, v in zip(sizes, row)) == 8


def test_reflection_small():
    for n, ell in [(4, 1), (3, 2)]:
        assert verify_reflection(cached_table(n, ell)).passed
    # spot value: K_1(2) * |g| = 0 = K_2(1) * |h| at n = 4
    t = cached_table(4, 1)
    assert t.values[1][2] * orbit_size(SDConfig((0, 2)), 4) == 0
    assert t.values[2][1] * orbit_size(SDConfig((0, 1)), 4) == 0


# ---------------------------------------------------------------------------
# exports, cache, bench helper
# ---------------------------------------------------------------------------


def test_csv_export_shape_and_determinism():
    table = cached_table(2, 1)
    text = table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "h/g,0,1,2"
    assert lines[1] == "0,1,1,1"
    assert text == table_to_csv(table)


def test_cache_roundtrip(tmp_path):
    table = cached_table(3, 2)
    path = save_table(table, tmp_path)
    assert path.is_file()
    loaded = load_table(3, 2, tmp_path)
    assert loaded == table
    assert load_table(4, 2, tmp_path) is None
    # byte determinism of the cache file
    first = path.read_bytes()
    save_table(table, tmp_path)
    assert path.read_bytes() == first


def test_representative_is_valid_for_eval():
    for g in enumerate_configs(4, 2):
        assert config_of_tuple(representative_tuple(g, 4)) == g
