"""The generated kernels of ``configs`` against the loops they replaced.

``_reference_sd_to_venn`` is the list-comprehension inverse (the parity
transform, doubled, minus the total) and ``_reference_census`` the
per-word census loop.  Random vectors, blocklengths and weighted word
lists at every level 1..6 must give the same Venn configuration or the
same exception type and message, and the same census items in the same
order, zero entries included.
"""

import random
from collections import Counter
from functools import reduce
from operator import or_

import pytest

from krawlp.configs import (
    MAX_SUBSET_ELL,
    SDConfig,
    VennConfig,
    WordTuple,
    config_of_tuple,
    sd_to_venn,
    tuple_census,
)
from krawlp.errors import InvalidInputError

LEVELS = range(1, MAX_SUBSET_ELL + 1)
BLOCKLENGTHS = range(-1, 10)


def _reference_sd_to_venn(g, n):
    if n < 1:
        raise InvalidInputError("blocklength must be positive")
    shift = g.ell - 1
    half = 1 << shift
    entries = g.entries
    m = len(entries)
    total = sum(entries)
    parity = [sum(entries[t] for t in range(m) if (t & j).bit_count() & 1) for j in range(m)]
    scaled = [2 * s - total for s in parity]
    scaled[0] += n * half
    if min(scaled) < 0 or reduce(or_, scaled) & (half - 1):
        raise InvalidInputError(f"weight vector {entries} is not a configuration at n={n}")
    return VennConfig(tuple([c >> shift for c in scaled]), n)


def _reference_census(positions):
    prefixes = [([0], 1)]
    for items in positions[:-1]:
        prefixes = [
            (xors + [x ^ u for x in xors], weight * mult)
            for xors, weight in prefixes
            for u, mult in items
        ]
    census = Counter()
    for xors, weight in prefixes:
        head = tuple(map(int.bit_count, xors))
        for u, mult in positions[-1]:
            census[head + tuple([(x ^ u).bit_count() for x in xors])] += weight * mult
    return census


def _outcome(call, *args):
    try:
        return call(*args)
    except InvalidInputError as exc:
        return type(exc), str(exc)


def _sd_vectors(rng, ell, count):
    # Tuples' sd entries (valid at their n and above), the same with one
    # entry moved by +-1 (a remainder, or a negative cell) and free vectors.
    m = 1 << ell
    for _ in range(count):
        n = rng.randint(1, 9)
        words = tuple(rng.getrandbits(n) for _ in range(ell))
        entries = list(config_of_tuple(WordTuple(words, n)).entries)
        kind = rng.randrange(3)
        if kind == 1:
            j = rng.randrange(1, m)
            entries[j] = max(0, entries[j] + rng.choice((-1, 1)))
        elif kind == 2:
            entries = [0] + [rng.randint(0, 9) for _ in range(m - 1)]
        yield SDConfig(tuple(entries))


@pytest.mark.parametrize("ell", LEVELS)
def test_inverse_kernel_matches_the_reference(ell):
    rng = random.Random(ell)
    seen = Counter()
    for g in _sd_vectors(rng, ell, 400 >> (ell // 2)):
        for n in BLOCKLENGTHS:
            want = _outcome(_reference_sd_to_venn, g, n)
            assert _outcome(sd_to_venn, g, n) == want
            if type(want) is not tuple:
                seen[VennConfig] += 1
            else:
                seen["blocklength" if "blocklength" in want[1] else "not a configuration"] += 1
    # every outcome is exercised at every level
    assert set(seen) == {VennConfig, "blocklength", "not a configuration"}


def _weighted_words(rng, count, signed):
    words = [rng.getrandbits(rng.randint(1, 9)) for _ in range(count)]
    if not signed:
        return [(w, rng.randint(1, 5)) for w in words]
    # a word drawn twice with opposite weights cancels to a zero count
    pairs = [(w, rng.choice((-1, 1)) * rng.randint(1, 5)) for w in words]
    u, m = pairs[0]
    return pairs + [(u, -m)]


@pytest.mark.parametrize("ell", LEVELS)
@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
def test_census_kernel_matches_the_reference(ell, signed):
    rng = random.Random(10 * ell + signed)
    width = max(1, 7 - ell)
    zeros = 0
    for _ in range(20):
        positions = [_weighted_words(rng, rng.randint(1, width), signed) for _ in range(ell)]
        census = tuple_census(positions)
        assert type(census) is Counter
        assert list(census.items()) == list(_reference_census(positions).items())
        zeros += list(census.values()).count(0)
    assert (zeros > 0) == signed
