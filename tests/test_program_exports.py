"""Byte-pinned program exports: every builder's json and lp-text output.

Each group is one (family, n, l, flag) over every d in 1..n+1; its digest
is the first 16 hex digits of one sha256 over the group's exports, json
then lp-text per d.  A change to a builder, a row order, a coefficient or
an export format shows here as a changed digest.
"""

import hashlib

import pytest

from krawlp.lp import build_delsarte, build_hierarchy_lp, export_lp
from krawlp.oracle import build_fourier_lp

EXPORT_DIGESTS = {
    ('delsarte', 1, 1, None): "78fc50f3da4b603e",
    ('delsarte', 2, 1, None): "b9532a5d86bfbd59",
    ('delsarte', 3, 1, None): "a537c26f05dbf581",
    ('delsarte', 4, 1, None): "b2cad8bdaff9230b",
    ('delsarte', 5, 1, None): "d233eced8dd91a20",
    ('delsarte', 6, 1, None): "a1601c15bd43879a",
    ('delsarte', 7, 1, None): "19a23f4abfe1e564",
    ('delsarte', 8, 1, None): "cc819b2c3675babe",
    ('krawtchouk', 1, 1, False): "fbd6a9d709fa3220",
    ('krawtchouk', 1, 1, True): "5b0f516ee27d706f",
    ('krawtchouk', 2, 1, False): "00ab592295b47d0c",
    ('krawtchouk', 2, 1, True): "9223d36872472a96",
    ('krawtchouk', 3, 1, False): "b851088a9c43096a",
    ('krawtchouk', 3, 1, True): "450ce0ce426f17c1",
    ('krawtchouk', 4, 1, False): "cbc873f08723f467",
    ('krawtchouk', 4, 1, True): "22cd672eb10bdffe",
    ('krawtchouk', 5, 1, False): "7466779adccd1c06",
    ('krawtchouk', 5, 1, True): "b2778e35a01e48dd",
    ('krawtchouk', 6, 1, False): "8b1ba7febfdcc680",
    ('krawtchouk', 6, 1, True): "f685b8d96e5d7414",
    ('krawtchouk', 7, 1, False): "07ef6ac1344e8f05",
    ('krawtchouk', 7, 1, True): "2ae48a7287aaeb79",
    ('krawtchouk', 8, 1, False): "b8f8ac5d1df21c84",
    ('krawtchouk', 8, 1, True): "c4e1e23246eb1c83",
    ('krawtchouk', 1, 2, False): "3c6b6dcef4cefa32",
    ('krawtchouk', 1, 2, True): "5728346be9579776",
    ('krawtchouk', 2, 2, False): "61431bd73cf783cc",
    ('krawtchouk', 2, 2, True): "c81cb88a3cc320b7",
    ('krawtchouk', 3, 2, False): "72e4a7c716f2e610",
    ('krawtchouk', 3, 2, True): "2983b1788be76663",
    ('krawtchouk', 4, 2, False): "85976eb8eb9ce715",
    ('krawtchouk', 4, 2, True): "21a54daacc1f0f77",
    ('krawtchouk', 5, 2, False): "c0b7dfbf04040e23",
    ('krawtchouk', 5, 2, True): "3cbf6ec29e6b1a09",
    ('krawtchouk', 1, 3, False): "88bfcc887072f322",
    ('krawtchouk', 1, 3, True): "74f93c89bc93c32a",
    ('krawtchouk', 2, 3, False): "a90b037ace0d21cf",
    ('krawtchouk', 2, 3, True): "493106b4f0460b37",
    ('fourier', 1, 1, False): "e7d71c33458dc533",
    ('fourier', 1, 1, True): "f240b7514d2a7b37",
    ('fourier', 2, 1, False): "90463eb59cb18039",
    ('fourier', 2, 1, True): "ddf722bb63396d73",
    ('fourier', 3, 1, False): "2e62df0709911efd",
    ('fourier', 3, 1, True): "76c967db8c87eaea",
    ('fourier', 4, 1, False): "e5479231b0e56d83",
    ('fourier', 4, 1, True): "4ae5505c008fbde1",
    ('fourier', 5, 1, False): "aa2915ad886039c0",
    ('fourier', 5, 1, True): "db6ffe1cd73c5aba",
    ('fourier', 6, 1, False): "906d94ecca8ad5d0",
    ('fourier', 6, 1, True): "a4226d52a3f16b61",
    ('fourier', 7, 1, False): "e78ddf61a1abebb6",
    ('fourier', 7, 1, True): "f0991c2ef5727c52",
    ('fourier', 8, 1, False): "630e4c0f404ff7b4",
    ('fourier', 8, 1, True): "43810477b37fd064",
    ('fourier', 1, 2, False): "4f19580932a254b1",
    ('fourier', 1, 2, True): "31be4ad6bf22bc11",
    ('fourier', 2, 2, False): "fc5e1db491fb4a56",
    ('fourier', 2, 2, True): "631cb2b1f216ec23",
    ('fourier', 3, 2, False): "613f070d60c53bd8",
    ('fourier', 3, 2, True): "ac753e703baba880",
    ('fourier', 4, 2, False): "118c4ebd3bc4a5f3",
    ('fourier', 4, 2, True): "04da2eac420787c4",
    ('fourier', 1, 3, False): "8676365bf897bb2b",
    ('fourier', 1, 3, True): "b28cb8cafcd91322",
    ('fourier', 2, 3, False): "c41960129fc05765",
    ('fourier', 2, 3, True): "bc18c2e56771daa2",
    ('fourier', 1, 4, False): "67c322d645e3f58f",
    ('fourier', 1, 4, True): "d4c6e379013af09e",
    ('fourier', 2, 4, False): "b42b7afa1737c3d2",
    ('fourier', 2, 4, True): "497a4977e3c7c65e",
    ('fourier', 1, 5, False): "11862f50e3fce5d0",
    ('fourier', 1, 5, True): "c3edc7d7a3c1f13c",
    ('fourier', 1, 6, False): "85de85a4f80068b1",
    ('fourier', 1, 6, True): "dbf689eef4900814",
    ('fourier', 1, 7, False): "8a82e772534d4ade",
    ('fourier', 1, 7, True): "541bde8f04a62b2b",
    ('fourier', 1, 8, False): "b767b3d2d9d59f37",
    ('fourier', 1, 8, True): "b3c0df41c3057b6d",
}


def _build(family, n, d, ell, linear):
    if family == "delsarte":
        return build_delsarte(n, d)
    if family == "fourier":
        return build_fourier_lp(n, d, ell, linear)
    return build_hierarchy_lp(n, d, ell, linear)


def test_export_grid_is_the_pinned_grid():
    # delsarte n <= 8; hierarchy l = 1 to n <= 8, l = 2 to n <= 5, l = 3
    # to n <= 2; fourier n*l <= 8; flags both ways where they apply.
    want = {("delsarte", n, 1, None) for n in range(1, 9)}
    want |= {
        ("krawtchouk", n, ell, linear)
        for ell, top in ((1, 8), (2, 5), (3, 2))
        for n in range(1, top + 1)
        for linear in (False, True)
    }
    want |= {
        ("fourier", n, ell, linear)
        for ell in range(1, 9)
        for n in range(1, 8 // ell + 1)
        for linear in (False, True)
    }
    assert set(EXPORT_DIGESTS) == want


@pytest.mark.parametrize(
    "key", sorted(EXPORT_DIGESTS, key=repr), ids=lambda key: "-".join(map(str, key))
)
def test_exports_match_pinned_digest(key):
    family, n, ell, linear = key
    digest = hashlib.sha256()
    for d in range(1, n + 2):
        lp = _build(family, n, d, ell, linear)
        for fmt in ("json", "lp-text"):
            digest.update(export_lp(lp, fmt))
    assert digest.hexdigest()[:16] == EXPORT_DIGESTS[key]
