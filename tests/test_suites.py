"""Each verification suite reports a wrong value it is shown."""

import pytest

from krawlp import oracle, suites
from krawlp.configs import SDConfig
from krawlp.krawtchouk import KrawtchoukTable, build_table
from krawlp.lp import build_delsarte
from krawlp.suites import run_suite


def _row_0_negated(n, ell):
    values = build_table(n, ell).values
    return KrawtchoukTable(n, ell, (tuple(-v for v in values[0]),) + values[1:])


# suite, module and name patched, replacement, caps, first violation
BROKEN = [
    ("census", suites, "config_count", lambda n, ell: 0, (1, 1),
     "(n=1, l=1): 2 configs, want 0"),
    ("roundtrip", suites, "venn_to_sd", lambda venn: SDConfig((0, 0)), (1, 1),
     "(n=1, l=1): round trip moved (0, 1)"),
    ("triple-agreement", suites, "eval_explicit", lambda h, g, n: 0, (1, 1),
     "(n=1, l=1, h=0, g=0): direct 1, explicit 0, table 1"),
    ("orthogonality-reflection", suites, "cached_table", _row_0_negated, (1, 1),
     "(n=1, l=1) reflection: (h=0, g=1): -1*1 != 1*1"),
    ("macwilliams", oracle, "cached_table", _row_0_negated, (1, 1),
     "(n=1, l=1, |C|=1): identity at h=0: 1 != -1 (|C|=1, l=1)"),
    ("soundness", suites, "hierarchy_value", lambda n, d, ell, linear: 0, (1, 1),
     "(n=1, d=1, l=1) general: value 0 < 2^1"),
    ("soundness", suites, "max_code", lambda n, d: (5, None), (5, 1),
     "oracle A_2(5,3) = 5, want 4"),
    ("collapse", suites, "delsarte_value", lambda n, d: 3, (1, None),
     "(n=1, d=1): level-2 value 4 != (3)^2"),
    ("subadditivity", suites, "hierarchy_value",
     lambda n, d, ell, linear: 3 if ell == 2 else 1, (1, None),
     "(n=1, d=1): level-2 value 3 > (1)^2"),
    ("fourier-equivalence", suites, "fourier_value", lambda n, d, ell, linear: -1, (1, 1),
     "(n=1, d=1, l=1, linear=False): word-tuple -1 != configuration 2"),
    ("level1", suites, "build_delsarte", lambda n, d: build_delsarte(n, 1), (1, None),
     "(n=1, d=2, linear=False): rows differ from the weight LP"),
]


@pytest.mark.parametrize(
    "suite,module,name,wrong,caps,first", BROKEN, ids=[f"{c[0]}-{c[2]}" for c in BROKEN]
)
def test_suite_reports_a_wrong_value(monkeypatch, suite, module, name, wrong, caps, first):
    monkeypatch.setattr(module, name, wrong)
    result = run_suite(suite, *caps)
    assert result.passed is False
    assert result.violations[0] == first


def test_macwilliams_reports_a_negative_transform(monkeypatch):
    monkeypatch.setattr(oracle, "cached_table", _row_0_negated)
    result = run_suite("macwilliams", 1, 1)
    assert any(v.startswith("(n=1, l=1, |C|=1): inequality at h=0") for v in result.violations)


@pytest.mark.parametrize("suite", ["collapse", "subadditivity"])
def test_level_2_suites_check_nothing_below_level_2(suite):
    result = run_suite(suite, l_cap=1)
    assert result.passed and result.checked == 0
