"""The proof obligations of the proved constructors.

``iter_configs``, ``sd_to_venn``, ``venn_to_sd``, ``config_of_tuple`` and
``venn_of_tuple`` build their configurations without ``__post_init__``,
because their own arithmetic proves the fields.  Each object they build
must equal, and hash like, the public constructor applied to the same
fields, and the public constructor must accept those fields.
"""

import random

import pytest

from krawlp.configs import (
    MAX_SUBSET_ELL,
    SDConfig,
    VennConfig,
    WordTuple,
    config_of_tuple,
    iter_configs,
    sd_to_venn,
    venn_of_tuple,
    venn_to_sd,
)

LEVELS = [(n, ell) for ell in (1, 2, 3) for n in range(1, 7)] + [(n, 4) for n in (1, 2, 3)]


def _checked(config):
    # The public constructor on the same fields: it raises if a proof failed.
    if type(config) is SDConfig:
        public = SDConfig(config.entries)
    else:
        public = VennConfig(config.entries, config.n)
        assert sum(config.entries) == config.n
    assert config == public and public == config
    assert hash(config) == hash(public)
    return public


@pytest.mark.parametrize("n, ell", LEVELS, ids=lambda v: str(v))
def test_proved_level_matches_the_public_constructors(n, ell):
    for g in iter_configs(n, ell):
        _checked(g)
        v = _checked(sd_to_venn(g, n))
        assert v.n == n and v.ell == ell
        assert _checked(venn_to_sd(v)) == g


@pytest.mark.parametrize("ell", range(1, MAX_SUBSET_ELL + 1))
def test_proved_tuple_configs_match_the_public_constructors(ell):
    rng = random.Random(ell)
    for _ in range(200):
        n = rng.randint(1, 9)
        t = WordTuple(tuple(rng.getrandbits(n) for _ in range(ell)), n)
        g = _checked(config_of_tuple(t))
        v = _checked(venn_of_tuple(t))
        assert v.n == n
        assert sd_to_venn(g, n) == v and venn_to_sd(v) == g

