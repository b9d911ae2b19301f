"""Configuration round trip on random word tuples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from krawlp.configs import (  # noqa: E402
    MAX_SUBSET_ELL,
    WordTuple,
    config_index,
    config_of_tuple,
    sd_to_venn,
    venn_of_tuple,
    venn_to_sd,
)


@st.composite
def word_tuples(draw):
    # Every level the transforms accept; above l = 3, n <= 12 // l keeps
    # config_index at most C(65, 63) = 2080 configurations.
    ell = draw(st.integers(1, MAX_SUBSET_ELL))
    n = draw(st.integers(1, 8 if ell <= 3 else 12 // ell))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=ell, max_size=ell))
    return WordTuple(tuple(words), n)


@given(word_tuples())
def test_config_venn_round_trip(t):
    g = config_of_tuple(t)
    venn = sd_to_venn(g, t.n)
    assert venn == venn_of_tuple(t)
    assert venn_to_sd(venn) == g
    assert g.entries in config_index(t.n, t.ell)
