"""Configuration arithmetic: conversions, enumeration, orbits, forbidden sets."""

import itertools
import json
from fractions import Fraction
from math import comb

import pytest

from krawlp import configs
from krawlp.configs import (
    SDConfig,
    VennConfig,
    WordTuple,
    config_from_json,
    config_index,
    config_of_tuple,
    config_to_json,
    enumerate_configs,
    forbidden_configs,
    orbit_size,
    representative_tuple,
    sd_to_venn,
    venn_of_tuple,
    venn_to_sd,
)
from krawlp.errors import (
    CapacityError,
    InvalidInputError,
    NotAConfigurationError,
    ParameterError,
)


def _all_tuples(n, ell):
    return itertools.product(range(1 << n), repeat=ell)


# ---------------------------------------------------------------------------
# config_of_tuple / venn_of_tuple
# ---------------------------------------------------------------------------


def test_config_of_zero_tuple_is_trivial():
    for n, ell in [(1, 1), (3, 2), (2, 3)]:
        g = config_of_tuple(WordTuple((0,) * ell, n))
        assert g.is_trivial
        assert g.entries == (0,) * (1 << ell)


def test_config_of_tuple_by_hand():
    g = config_of_tuple(WordTuple.from_strings(["10", "01"]))
    assert g.entries == (0, 1, 1, 2)
    g = config_of_tuple(WordTuple.from_strings(["1101"]))
    assert g.entries == (0, 3)


def test_venn_of_tuple_by_hand():
    v = venn_of_tuple(WordTuple.from_strings(["10", "01"]))
    assert v.entries == (0, 1, 1, 0)
    v = venn_of_tuple(WordTuple((0, 0), 3))
    assert v.entries == (3, 0, 0, 0)
    v = venn_of_tuple(WordTuple.from_strings(["1101"]))
    assert v.entries == (1, 3)


def test_mismatched_word_lengths_rejected():
    with pytest.raises(InvalidInputError):
        WordTuple.from_strings(["10", "011"])


def test_word_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        WordTuple((4,), 2)
    # seven words would need dense vectors of 2^7 subsets
    with pytest.raises(InvalidInputError):
        WordTuple((0,) * 7, 1)


# ---------------------------------------------------------------------------
# sd_to_venn / venn_to_sd
# ---------------------------------------------------------------------------


def test_sd_to_venn_level1_reduces_to_weight_split():
    v = sd_to_venn(SDConfig((0, 3)), 4)
    assert v.entries == (1, 3)


def test_sd_to_venn_cross_checked_against_tuple():
    # the Venn image of (0,1,1,2) must match the direct support partition
    assert sd_to_venn(SDConfig((0, 1, 1, 2)), 2) == venn_of_tuple(
        WordTuple.from_strings(["10", "01"])
    )


def test_sd_to_venn_trivial():
    v = sd_to_venn(SDConfig((0, 0, 0, 0)), 5)
    assert v.entries == (5, 0, 0, 0)


def test_venn_to_sd_by_hand():
    assert venn_to_sd(VennConfig((0, 1, 1, 0), 2)).entries == (0, 1, 1, 2)
    assert venn_to_sd(VennConfig((4, 0, 0, 0), 4)).is_trivial
    assert venn_to_sd(VennConfig((1, 3), 4)).entries == (0, 3)


def test_sd_to_venn_rejects_invalid_vectors():
    # weight vector violating the triangle structure: not in the image
    with pytest.raises(NotAConfigurationError):
        sd_to_venn(SDConfig((0, 1, 1, 3)), 3)
    # too much weight for the blocklength
    with pytest.raises(NotAConfigurationError):
        sd_to_venn(SDConfig((0, 3)), 2)


def test_roundtrip_on_all_configs():
    for n, ell in [(6, 1), (5, 2), (3, 3)]:
        for g in enumerate_configs(n, ell):
            assert venn_to_sd(sd_to_venn(g, n)) == g


def test_tuple_consistency_exhaustive():
    # venn_to_sd(venn_of_tuple(t)) == config_of_tuple(t) for every tuple
    for n, ell in [(3, 1), (3, 2), (2, 3)]:
        for words in _all_tuples(n, ell):
            t = WordTuple(words, n)
            assert venn_to_sd(venn_of_tuple(t)) == config_of_tuple(t)


def _venn_vectors_desc(n, ell):
    # Weak compositions of n into 2^l cells by stars and bars, largest first.
    m = 1 << ell
    out = []
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1,) + bars + (n + m - 1,)
        out.append(tuple(edges[k + 1] - edges[k] - 1 for k in range(m)))
    return sorted(out, reverse=True)


def _parity(t, j):
    return (t & j).bit_count() & 1


@pytest.mark.parametrize(
    "n,ell",
    [(n, ell) for ell in (1, 2, 3) for n in range(1, 7)]
    + [(1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (1, 6)],
)
def test_transforms_match_parity_formulas(n, ell):
    # sd(J) = sum over T with |T & J| odd of venn(T), and
    # venn(J) = n*[J = empty] + 2^(1-l) * sum over T of (-1)^(|T & J| - 1) sd(T).
    m = 1 << ell
    venns = _venn_vectors_desc(n, ell)
    sds = [tuple(sum(v[t] for t in range(m) if _parity(t, j)) for j in range(m)) for v in venns]
    assert [g.entries for g in enumerate_configs(n, ell)] == sds
    for v, sd in zip(venns, sds):
        inverse = tuple(
            n * (j == 0)
            + Fraction(sum(sd[t] * (1 if _parity(t, j) else -1) for t in range(m)), 1 << (ell - 1))
            for j in range(m)
        )
        assert inverse == v
        assert sd_to_venn(SDConfig(sd), n).entries == v
        assert venn_to_sd(VennConfig(v, n)).entries == sd


def test_transforms_at_level1():
    # One word: the single Venn split (zeros, ones) and its weight.
    assert [g.entries for g in enumerate_configs(3, 1)] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert sd_to_venn(SDConfig((0, 2)), 3).entries == (1, 2)
    assert venn_to_sd(VennConfig((1, 2), 3)).entries == (0, 2)
    with pytest.raises(NotAConfigurationError):
        sd_to_venn(SDConfig((0, 4)), 3)


# ---------------------------------------------------------------------------
# enumerate_configs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,ell,count", [(2, 1, 3), (1, 2, 4), (4, 2, 35)])
def test_enumeration_counts(n, ell, count):
    assert len(enumerate_configs(n, ell)) == count
    assert comb(n + (1 << ell) - 1, (1 << ell) - 1) == count


def test_enumeration_order_is_canonical():
    configs = enumerate_configs(4, 2)
    assert configs[0].is_trivial
    venns = [sd_to_venn(g, 4).entries for g in configs]
    assert venns == sorted(venns, reverse=True)
    assert len(set(configs)) == len(configs)
    # level 1 orders variables by increasing weight
    weights = [g.entries[1] for g in enumerate_configs(6, 1)]
    assert weights == list(range(7))


def test_enumeration_capacity_errors():
    with pytest.raises(CapacityError):
        enumerate_configs(3, 7)
    with pytest.raises(CapacityError):
        enumerate_configs(2000, 4)
    with pytest.raises(ParameterError):
        enumerate_configs(0, 1)


# ---------------------------------------------------------------------------
# orbit_size
# ---------------------------------------------------------------------------


def test_orbit_size_trivial_and_level1():
    for n in (1, 3, 6):
        assert orbit_size(SDConfig((0,) * 4), n) == 1
    assert orbit_size(SDConfig((0, 2)), 4) == 6  # C(4, 2)


def test_orbit_size_matches_exhaustive_count():
    for n, ell in [(2, 2), (3, 2), (4, 1)]:
        tally = {}
        for words in _all_tuples(n, ell):
            g = config_of_tuple(WordTuple(words, n))
            tally[g] = tally.get(g, 0) + 1
        for g in enumerate_configs(n, ell):
            assert tally[g] == orbit_size(g, n)
        assert sum(tally.values()) == 1 << (n * ell)


def test_orbit_classes_are_permutation_orbits():
    # classes of equal configuration coincide with simultaneous coordinate
    # permutation orbits
    for n, ell in [(3, 2), (4, 2)]:
        by_config = {}
        for words in _all_tuples(n, ell):
            by_config.setdefault(config_of_tuple(WordTuple(words, n)), set()).add(words)
        perms = list(itertools.permutations(range(n)))

        def permute(words, sigma):
            out = []
            for w in words:
                pw = 0
                for i in range(n):
                    pw |= ((w >> sigma[i]) & 1) << i
                out.append(pw)
            return tuple(out)

        for cls in by_config.values():
            rep = next(iter(cls))
            orbit = {permute(rep, sigma) for sigma in perms}
            assert orbit == cls


def test_orbit_size_sum_identity():
    for n, ell in [(7, 1), (5, 2), (4, 3)]:
        total = sum(orbit_size(g, n) for g in enumerate_configs(n, ell))
        assert total == 1 << (n * ell)


# ---------------------------------------------------------------------------
# forbidden_configs
# ---------------------------------------------------------------------------


def test_forbidden_by_inspection():
    forb = forbidden_configs(2, 2, 1)
    assert {g.entries for g in forb} == {(0, 1)}
    assert forbidden_configs(4, 1, 2) == frozenset()
    assert forbidden_configs(4, 0, 2) == frozenset()


def test_forbidden_linear_contains_general():
    for d in (2, 3):
        gen = forbidden_configs(4, d, 2, linear=False)
        lin = forbidden_configs(4, d, 2, linear=True)
        assert gen <= lin


def test_forbidden_flag_witness():
    # a config whose only short weight sits on the two-word XOR is only
    # excluded under the linear flag
    g = SDConfig((0, 3, 3, 2))
    sd_to_venn(g, 4)  # valid at n=4
    assert g not in forbidden_configs(4, 3, 2, linear=False)
    assert g in forbidden_configs(4, 3, 2, linear=True)
    # excluded in both: a short single-word weight
    h = SDConfig((0, 1, 1, 2))
    assert h in forbidden_configs(2, 2, 2, linear=False)
    assert h in forbidden_configs(2, 2, 2, linear=True)


def test_forbidden_accepts_full_range():
    assert forbidden_configs(3, 4, 1)  # d = n+1 forbids weights 1..n
    with pytest.raises(ParameterError):
        forbidden_configs(3, 5, 1)


# ---------------------------------------------------------------------------
# representatives and serialization
# ---------------------------------------------------------------------------


def test_representative_tuple_has_right_config():
    for n, ell in [(4, 2), (5, 2), (3, 3)]:
        for g in enumerate_configs(n, ell):
            t = representative_tuple(g, n)
            assert config_of_tuple(t) == g


def test_config_json_roundtrip():
    for g in enumerate_configs(3, 2):
        text = config_to_json(g, 3)
        data = json.loads(text)
        assert data["n"] == 3 and data["l"] == 2
        assert config_from_json(text) == g


def test_config_json_rejects_mismatch():
    text = json.dumps({"n": 2, "l": 1, "venn": [1, 1], "sd": [0, 2]})
    with pytest.raises(InvalidInputError):
        config_from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"n":2,"l":5,"venn":[1,1],"sd":[0,1]}',
        '{"n":2,"venn":[1,1],"sd":[0,1]}',
        '{"n":2,"l":1,"venn":[1,1],"sd":[0,"1"]}',
        '{"n":1,"l":1,"venn":[0,1],"sd":[0,1.0]}',
        '{"n":1,"l":1,"venn":[false,true],"sd":[false,true]}',
        '{"n":1,"l":1,"venn":[0,1.0],"sd":[0,1]}',
        '{"n":1.0,"l":1,"venn":[0,1],"sd":[0,1]}',
        '{"n":1,"l":true,"venn":[0,1],"sd":[0,1]}',
        "{",
    ],
    ids=[
        "list",
        "wrong-l",
        "no-l",
        "string-entry",
        "float-sd-entry",
        "bool-entries",
        "float-venn-entry",
        "float-n",
        "bool-l",
        "not-json",
    ],
)
def test_config_json_rejects_malformed(text):
    with pytest.raises(InvalidInputError):
        config_from_json(text)


@pytest.mark.parametrize("ell", [7, 9])
def test_conversions_stop_at_the_level_budget(monkeypatch, ell):
    # Above MAX_SUBSET_ELL the parity transform would compile 2^(2l-1)
    # terms; the conversions refuse before compiling anything.
    def no_compile(ell):
        raise AssertionError(f"parity transform compiled at l={ell}")

    monkeypatch.setattr(configs, "_build_parity_transform", no_compile)
    m = 1 << ell
    text = json.dumps({"n": 1, "l": ell, "venn": [1] + [0] * (m - 1), "sd": [0] * m})
    with pytest.raises(CapacityError):
        config_from_json(text)
    with pytest.raises(CapacityError):
        sd_to_venn(SDConfig((0,) * m), 1)


def test_config_index_matches_enumeration():
    idx = config_index(4, 2)
    for i, g in enumerate(enumerate_configs(4, 2)):
        assert idx[g.entries] == i
