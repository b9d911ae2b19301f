"""Value evaluation: three routes, identities, exports, cache."""

import gzip
import itertools
import json
import random
import re

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
from krawlp.errors import CapacityError, ParameterError, canonical_json
from krawlp.krawtchouk import (
    KrawtchoukTable,
    build_table,
    cached_table,
    classical_krawtchouk,
    digits_nonnegative,
    eval_direct,
    eval_explicit,
    load_table,
    pack_columns,
    save_table,
    table_cache_path,
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
    def no_enumeration(positions):
        raise AssertionError("tuples enumerated past the budget")

    monkeypatch.setattr(krawtchouk, "tuple_census", no_enumeration)
    h = SDConfig((0, 1))
    with pytest.raises(CapacityError):
        eval_direct(h, h, 30)
    # n*l = 21 is the first size past the 2^20-tuple budget
    with pytest.raises(CapacityError):
        eval_direct(h, h, 21)


def test_direct_rejects_a_negative_blocklength():
    with pytest.raises(ParameterError):
        eval_direct(SDConfig((0, 1)), SDConfig((0, 1)), -1)


@pytest.mark.parametrize(
    "n,ell",
    # l >= 3 chains census positions whose signed word lists differ.
    [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (1, 4)],
)
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


@pytest.mark.parametrize("n,ell", [(2, 3), (3, 3), (5, 2), (6, 2)])
def test_table_matches_explicit_beyond_direct(n, ell):
    # All four sizes are within eval_direct's reach ((3,3) is 2^9 tuples),
    # but triple-agreement's every-entry sweep would take seconds at (3,3).
    # The upper triangle is compared with eval_explicit; the lower one
    # follows by reflection, K_g(h) |h| = K_h(g) |g|, from the same values.
    configs = enumerate_configs(n, ell)
    sizes = [orbit_size(g, n) for g in configs]
    table = build_table(n, ell).values
    for a, h in enumerate(configs):
        for b in range(a, len(configs)):
            value = eval_explicit(h, configs[b], n)
            assert table[a][b] == value, (a, b)
            assert table[b][a] * sizes[a] == value * sizes[b], (b, a)


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


def test_sweeps_report_exactly_what_one_wrong_entry_breaks():
    # One entry of the true (3,2) table is off by one.  Since the true table
    # is orthogonal, a pair's sum moves only when it involves row a0: by
    # |b0| K_other(b0) off the diagonal, by |b0| (2 K_a0(b0) + 1) on it.
    n, ell, a0, b0 = 3, 2, 2, 5
    true = build_table(n, ell).values
    values = [list(row) for row in true]
    values[a0][b0] += 1
    table = KrawtchoukTable(n, ell, tuple(map(tuple, values)))
    sizes = [orbit_size(g, n) for g in enumerate_configs(n, ell)]
    size = len(sizes)
    scale = 1 << (ell * n)
    want = []
    for a in range(size):
        for b in range(a, size):
            if a == b == a0:
                target = scale * sizes[a0]
                got = target + sizes[b0] * (2 * true[a0][b0] + 1)
            elif a0 in (a, b):
                target = 0
                got = sizes[b0] * true[b if a == a0 else a][b0]
            else:
                continue
            if got != target:
                want.append(f"(h={a}, h'={b}): got {got}, want {target}")
    report = verify_orthogonality(table)
    assert report.checked == size * (size + 1) // 2 == 210
    assert len(want) > 2
    assert report.violations == tuple(want)
    report = verify_reflection(table)
    assert report.checked == 210
    assert report.violations == (
        f"(h={a0}, g={b0}): {true[a0][b0] + 1}*{sizes[b0]} != {true[b0][a0]}*{sizes[a0]}",
    )


def _pairwise_orthogonality(table):
    # Reference sweep: each pair's sum as its own plain-Python dot product.
    sizes = [orbit_size(g, table.n) for g in enumerate_configs(table.n, table.ell)]
    scale = 1 << (table.ell * table.n)
    violations = []
    checked = 0
    for a, row_a in enumerate(table.values):
        for b in range(a, table.size):
            s = sum(w * x * y for w, x, y in zip(sizes, row_a, table.values[b]))
            want = scale * sizes[a] if a == b else 0
            checked += 1
            if s != want:
                violations.append(f"(h={a}, h'={b}): got {s}, want {want}")
    return krawtchouk.CheckReport("orthogonality", checked, tuple(violations))


def _edited(table, edits):
    values = [list(row) for row in table.values]
    for a, g, delta in edits:
        values[a][g] += delta
    return KrawtchoukTable(table.n, table.ell, tuple(map(tuple, values)))


@pytest.mark.parametrize("n, ell", [(3, 2), (4, 2), (2, 3), (5, 1)])
def test_packed_orthogonality_matches_pairwise_sums(n, ell):
    table = cached_table(n, ell)
    size = table.size
    rng = random.Random(n * 10 + ell)
    cases = [
        table,
        _edited(table, [(size // 2, size // 3, 1 << 70)]),  # wider than any true entry
        _edited(table, [(a, 0, 1) for a in range(size)]),  # column 0 is not |h|
    ]
    for _ in range(12):
        edits = [
            (rng.randrange(size), rng.randrange(size), rng.choice((1, -1, 7, -(1 << 40))))
            for _ in range(rng.randint(1, 3))
        ]
        cases.append(_edited(table, edits))
    for case in cases:
        assert verify_orthogonality(case) == _pairwise_orthogonality(case)


def test_packed_orthogonality_sees_a_diagonal_plus_one_above_a_negative_sum():
    # Row 5 of the (5,1) table gets slot 5 = want + 1 while slot 4, the
    # highest below it, is negative: a floor shift of row 5's packed sum
    # by 5 slots would read exactly want.
    table = _edited(cached_table(5, 1), [(5, 0, 1), (5, 1, 1), (5, 5, 3), (4, 0, -3)])
    report = _pairwise_orthogonality(table)
    assert "(h=5, h'=5): got 33, want 32" in report.violations
    assert "(h=4, h'=5): got -1, want 0" in report.violations
    assert verify_orthogonality(table) == report


def test_packed_orthogonality_matches_pairwise_sums_across_windows():
    # (5,2) has 56 rows: windows start at rows 16, 32 and 48, so the edits
    # sit on both sides of every window start.
    table = cached_table(5, 2)
    assert table.size == 56 and krawtchouk.ORTHOGONALITY_WINDOW == 16
    size = table.size
    rng = random.Random(52)
    cases = [
        table,
        _edited(table, [(a, rng.randrange(size), 1) for a in (15, 16, 31, 32, 48)]),
        _edited(table, [(a, rng.randrange(size), -3) for a in (15, 16, 31, 32, 48)]),
        _edited(table, [(31, 17, 1 << 200)]),
        _edited(table, [(16, 40, -(1 << 200)), (32, 3, 5)]),
    ]
    for _ in range(10):
        rows = rng.choices((15, 16, 31, 32, 48), k=rng.randint(1, 4))
        edits = [(a, rng.randrange(size), rng.choice((1, -1, -7, 1 << 30))) for a in rows]
        cases.append(_edited(table, edits))
    for case in cases:
        assert verify_orthogonality(case) == _pairwise_orthogonality(case)


def test_packed_orthogonality_sees_a_diagonal_plus_one_above_a_window_start():
    # Row 16 of the (5,2) table opens the second window.  Its diagonal
    # reads want + 1 while its sum against row 15, the digit just below
    # the window start, is negative: a floor shift of row 16's sum past
    # the rows before the window would read exactly want.
    table = _edited(cached_table(5, 2), [(16, 0, 1), (16, 2, 2), (15, 0, -9)])
    report = _pairwise_orthogonality(table)
    assert "(h=16, h'=16): got 10241, want 10240" in report.violations
    assert "(h=15, h'=16): got -9, want 0" in report.violations
    assert verify_orthogonality(table) == report


def test_packed_orthogonality_recounts_only_rows_that_fail(monkeypatch):
    # The packed test is the fast path: a true table recounts no row, and
    # a row is recounted only if some pair of it fails.  A wrong shift or
    # slot offset would still report correctly, through recounts.
    recounted = []
    recount = krawtchouk.row_sums

    def spy(rows, support):
        # A recount of row a sums the rows a, a+1, ... at row a.
        recounted.append(table.size - len(rows))
        return recount(rows, support)

    monkeypatch.setattr(krawtchouk, "row_sums", spy)
    for n, ell in [(5, 2), (4, 2), (2, 3), (5, 1)]:
        assert verify_orthogonality(cached_table(n, ell)).passed
    assert recounted == []
    table = _edited(cached_table(5, 2), [(16, 0, 1), (16, 2, 2), (15, 0, -9)])
    report = verify_orthogonality(table)
    involved = {int(h) for v in report.violations for h in re.findall(r"h'?=(\d+)", v)}
    assert recounted and set(recounted) <= involved


@pytest.mark.parametrize("size", [1, 2, 3, 16, 17, 33])
def test_pack_columns_is_the_signed_digit_sum(size):
    rng = random.Random(size)
    digits = (0, 1, -1, 5, -(1 << 6), (1 << 200), -(1 << 200) + 3)

    def entry():
        return rng.choice(digits) if rng.random() < 0.5 else rng.randint(-99, 99)

    values = tuple(tuple(entry() for _ in range(size)) for _ in range(size))
    top = max(abs(v) for row in values for v in row)
    for bound in (top, top + rng.randrange(1 << 70), top << 9):
        width, tops, columns = pack_columns(values, bound)
        # The least whole-byte width with two bits above the bound.
        assert width % 8 == 0 and width - 8 < bound.bit_length() + 2 <= width
        assert tops == sum(1 << (width * b + width - 1) for b in range(size))
        assert columns == [
            sum(values[b][g] << (width * b) for b in range(size)) for g in range(size)
        ]


# Signed base-2^6 digits, least significant first: at width 6 each digit
# lies in [-32, 32).
DIGIT_CASES = [
    [0],
    [0, 0, 0],
    [-1, 1],  # a -1 borrows from the positive digit above it
    [-1, 5, 0],
    [3, -1, 2],
    [-32],
    [31],
    [-32, 31],
    [31, -32],
    [31, 31, 31],
    [0, -32, 31, 0],
    [-1],
    [0, 0, -1],
]


@pytest.mark.parametrize("digits", DIGIT_CASES, ids=str)
def test_digits_nonnegative_at_the_digit_edges(digits):
    width = 6
    s = sum(d << (width * h) for h, d in enumerate(digits))
    tops = sum(1 << (width * h + width - 1) for h in range(len(digits)))
    assert digits_nonnegative(s, tops) is all(d >= 0 for d in digits)


def test_transform_packing_packs_every_column_once():
    table = cached_table(3, 2)
    width, tops, columns = table.transform_packing
    big = max(abs(v) for row in table.values for v in row)
    # 2^(2 l n) big, plus two bits, rounded up to whole bytes.
    assert width == -(-((big << 12).bit_length() + 2) // 8) * 8
    assert tops == sum(1 << (width * h + width - 1) for h in range(table.size))
    for g, col in enumerate(columns):
        assert col == sum(table.values[h][g] << (width * h) for h in range(table.size))
    assert table.transform_packing is table.transform_packing


def test_orthogonality_at_level_three():
    report = verify_orthogonality(cached_table(3, 3))
    assert report.passed and report.checked == 120 * 121 // 2


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


@pytest.mark.parametrize("n, ell", [(1, 1), (3, 2), (2, 3)])
def test_cache_file_is_the_canonical_json_of_the_whole_payload(tmp_path, n, ell):
    # save_table encodes the rows one at a time; the bytes must be those of
    # one canonical_json call over the payload.
    table = cached_table(n, ell)
    want = gzip.compress(canonical_json(_payload(table)).encode("ascii"), compresslevel=6, mtime=0)
    assert save_table(table, tmp_path).read_bytes() == want


@pytest.mark.parametrize(
    "n,ell", [(n, ell) for ell in (1, 2) for n in range(1, 5)] + [(4, 3), (1, 4)]
)
def test_cache_roundtrip_gives_back_every_true_table(tmp_path, n, ell):
    table = cached_table(n, ell)
    save_table(table, tmp_path)
    assert load_table(n, ell, tmp_path) == table


def test_level_9_cache_loads(tmp_path):
    # Caches written at gzip's default level 9 stay readable.
    table = cached_table(3, 2)
    _write_cache(table_cache_path(tmp_path, 3, 2), _payload(table))
    assert load_table(3, 2, tmp_path) == table


def _write_cache(path, payload):
    with gzip.open(path, "wb") as gz:
        gz.write(json.dumps(payload).encode("ascii"))


def _payload(table, **changes):
    payload = {"format": 1, "n": table.n, "l": table.ell, "values": [list(r) for r in table.values]}
    payload.update(changes)
    return payload


def _swapped(values, axes, a, b):
    # The values with rows a and b swapped ("rows"), columns a and b
    # ("columns"), or both ("labels"), as lists.
    rows = [list(r) for r in values]
    if axes in ("rows", "labels"):
        rows[a], rows[b] = rows[b], rows[a]
    if axes in ("columns", "labels"):
        for r in rows:
            r[a], r[b] = r[b], r[a]
    return rows


# Swaps at (3, 2) that keep both sums, as (axes, a, b).
SWAPS = {
    "rows-swapped": ("rows", 4, 5),
    "columns-swapped": ("columns", 4, 7),
    "labels-swapped": ("labels", 4, 7),
}


def _corrupt(kind, path):
    table = build_table(3, 2)
    if kind == "all-7s":
        _write_cache(path, _payload(table, values=[[7] * table.size] * table.size))
    elif kind == "wrong-n":
        # a true table, but of (4, 2), under the (3, 2) file name
        _write_cache(path, _payload(build_table(4, 2)))
    elif kind == "wrong-n-label":
        _write_cache(path, _payload(table, n=4))
    elif kind == "row-0":
        values = [list(r) for r in table.values]
        values[0][5] = 2
        _write_cache(path, _payload(table, values=values))
    elif kind == "column-0":
        values = [list(r) for r in table.values]
        values[3][0] += 1
        _write_cache(path, _payload(table, values=values))
    elif kind in ("off-sample", "diagonal"):
        # one entry off the trivial row and column
        values = [list(r) for r in table.values]
        values[1][2 if kind == "off-sample" else 1] += 1
        _write_cache(path, _payload(table, values=values))
    elif kind == "row-off":
        values = [list(r) for r in table.values]
        values[1] = [values[1][0]] + [v + 1 for v in values[1][1:]]
        _write_cache(path, _payload(table, values=values))
    elif kind in SWAPS:
        # whole rows, whole columns or both axes of two configurations
        # swapped: every column sum and weighted row sum is kept
        _write_cache(path, _payload(table, values=_swapped(table.values, *SWAPS[kind])))
    elif kind == "float-values":
        # 1.0 == 1, so only a type check tells these from a true table
        _write_cache(path, _payload(table, values=[[float(v) for v in r] for r in table.values]))
    elif kind == "bool-values":
        # the trivial row as JSON true, which loads as True == 1
        values = [list(r) for r in table.values]
        values[0] = [True] * table.size
        _write_cache(path, _payload(table, values=values))
    elif kind == "not-a-dict":
        _write_cache(path, [1, 2, 3])
    elif kind == "no-values":
        payload = _payload(table)
        del payload["values"]
        _write_cache(path, payload)
    elif kind == "values-not-rows":
        _write_cache(path, _payload(table, values=[1] * table.size))
    elif kind == "ragged":
        _write_cache(path, _payload(table, values=[list(r) for r in table.values][:-1]))
    elif kind == "not-json":
        with gzip.open(path, "wb") as gz:
            gz.write(b'{"format": 1, "n": 3,')
    elif kind == "non-ascii":
        with gzip.open(path, "wb") as gz:
            gz.write(b'{"format": 1, "n": 3, "l": 2, "values": "\xff"}')
    elif kind == "truncated":
        save_table(table, path.parent)
        path.write_bytes(path.read_bytes()[:-20])
    elif kind == "not-gzip":
        path.write_bytes(b"not a gzip file")
    elif kind == "bad-deflate":
        # the 10-byte gzip header kept, the low bit of every later byte
        # flipped: gzip reads the header and zlib rejects the body
        save_table(table, path.parent)
        data = path.read_bytes()
        path.write_bytes(data[:10] + bytes(b ^ 1 for b in data[10:]))


CORRUPTIONS = [
    "all-7s",
    "wrong-n",
    "wrong-n-label",
    "row-0",
    "column-0",
    "row-off",
    "rows-swapped",
    "columns-swapped",
    "labels-swapped",
    "off-sample",
    "diagonal",
    "float-values",
    "bool-values",
    "not-a-dict",
    "no-values",
    "values-not-rows",
    "ragged",
    "not-json",
    "non-ascii",
    "truncated",
    "not-gzip",
    "bad-deflate",
]


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_load_treats_a_wrong_cache_as_a_miss(tmp_path, kind):
    path = table_cache_path(tmp_path, 3, 2)
    _corrupt(kind, path)
    assert path.is_file()
    assert load_table(3, 2, tmp_path) is None


def test_load_misses_every_single_wrong_entry(tmp_path):
    # Each entry changed alone breaks its column's sum, wherever it sits.
    table = build_table(2, 2)
    for a, b in itertools.product(range(table.size), repeat=2):
        for delta in (1, -2):
            values = [list(r) for r in table.values]
            values[a][b] += delta
            save_table(KrawtchoukTable(2, 2, tuple(map(tuple, values))), tmp_path)
            assert load_table(2, 2, tmp_path) is None, (a, b, delta)


def test_load_misses_every_swap_within_a_column(tmp_path):
    # A swap keeps its column's sum; the weighted row sums catch it.
    table = build_table(2, 2)
    swaps = 0
    for g in range(table.size):
        for a, b in itertools.combinations(range(table.size), 2):
            if table.values[a][g] == table.values[b][g]:
                continue
            values = [list(r) for r in table.values]
            values[a][g], values[b][g] = values[b][g], values[a][g]
            save_table(KrawtchoukTable(2, 2, tuple(map(tuple, values))), tmp_path)
            assert load_table(2, 2, tmp_path) is None, (a, b, g)
            swaps += 1
    assert swaps > 0


@pytest.mark.parametrize("n,ell", [(2, 2), (4, 1)])
def test_load_misses_every_row_column_and_label_swap(tmp_path, n, ell):
    # Swaps keep every sum; the unit rows and columns catch them.
    table = build_table(n, ell)
    swaps = 0
    for axes in ("rows", "columns", "labels"):
        for a, b in itertools.combinations(range(table.size), 2):
            values = _swapped(table.values, axes, a, b)
            if values == [list(r) for r in table.values]:
                continue
            save_table(KrawtchoukTable(n, ell, tuple(map(tuple, values))), tmp_path)
            assert load_table(n, ell, tmp_path) is None, (axes, a, b)
            swaps += 1
    assert swaps > 0


def test_unit_configurations_follow_the_trivial_one():
    # load_table reads e_J (one coordinate in cell J, the rest in cell 0)
    # as element J of the canonical order.
    for n, ell in [(1, 1), (1, 3), (2, 2), (5, 2), (6, 3), (3, 4)]:
        configs = enumerate_configs(n, ell)
        for j in range(1, 1 << ell):
            assert configs[j].entries == tuple((t & j).bit_count() & 1 for t in range(1 << ell))


def test_representative_is_valid_for_eval():
    for g in enumerate_configs(4, 2):
        assert config_of_tuple(representative_tuple(g, 4)) == g
