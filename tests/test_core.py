import json
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlab.core import (
    _canonical_encoder,
    canonical_json,
    make_request,
    request_id,
    sign,
    validate_config,
    verify,
)


def test_validate_config_accepts_minimum_resilience():
    assert validate_config(4, 1).n == 4
    assert validate_config(10, 3).t == 3  # 10 >= 3*3+1
    assert validate_config(1, 0).n == 1


def test_validate_config_rejects_unsound():
    with pytest.raises(ValueError):
        validate_config(3, 1)
    with pytest.raises(ValueError):
        validate_config(0, 0)
    with pytest.raises(ValueError):
        validate_config(4, -1)


def test_weak_quorum_thresholds():
    # A weak quorum is any k >= weak_size parties.
    assert validate_config(4, 1).weak_size == 2
    assert validate_config(7, 2).weak_size == 3  # t+1


def test_strong_quorum_thresholds():
    # A strong quorum is any k >= strong_size parties.
    assert validate_config(4, 1).strong_size == 3
    assert validate_config(7, 2).strong_size == 5  # n-t


@pytest.mark.parametrize("n,t", [(4, 1), (5, 1), (7, 2)])
def test_weak_quorum_contains_honest_party(n, t):
    # Any (t+1)-subset intersects the honest set under any corruption of size <= t.
    parties = range(n)
    for quorum in combinations(parties, t + 1):
        for corrupt in combinations(parties, t):
            honest = set(parties) - set(corrupt)
            assert honest & set(quorum)


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_strong_quorums_intersect_in_weak_quorum(n, t):
    parties = range(n)
    size = n - t
    for a in combinations(parties, size):
        for b in combinations(parties, size):
            assert len(set(a) & set(b)) >= t + 1


def test_request_id_binds_market_and_payload():
    assert request_id("m", b"x") == request_id("m", b"x")
    assert request_id("m", b"x") != request_id("other", b"x")
    assert request_id("m", b"x") != request_id("m", b"y")
    r = make_request("m", b"m1")
    assert r.id == request_id("m", b"m1")
    assert r.name == "m1"


def test_attestation_verifies_only_genuine_content():
    att = sign(2, b"payload")
    assert verify(att, b"payload")
    assert not verify(att, b"payload2")
    other = sign(3, b"payload")
    assert other.digest != att.digest
    # an attestation claiming a different signer over the same bytes fails
    forged = type(att)(signer=1, digest=att.digest)
    assert not verify(forged, b"payload")


# -- canonical JSON ------------------------------------------------------------

ODD_TEXT = ['}, {', '": "', '"', "\\", "\x00\x1f\x7f", "caf\u00e9", "\u2028", "\U0001f600", ""]
_text = st.text() | st.sampled_from(ODD_TEXT)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-1)
            | st.floats(allow_nan=True, allow_infinity=True) | _text)
JSON_VALUES = st.recursive(
    _scalars, lambda inner: st.lists(inner) | st.dictionaries(_text, inner), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_matches_json_dumps(value):
    expected = json.dumps(value, sort_keys=True)
    assert canonical_json(value) == expected
    # Where the interpreter has no C encoder, json itself runs in pure Python.
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        assert _canonical_encoder(json.encoder.c_make_encoder)(value) == expected


def test_canonical_json_recovers_from_a_failed_encode():
    bad = [object()]
    # Left-over circular-reference markers would turn the second TypeError
    # into "Circular reference detected".
    for _ in range(2):
        with pytest.raises(TypeError):
            canonical_json(bad)
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular"):
        canonical_json(loop)
    assert canonical_json({"b": [loop[:0]], "a": 1}) == '{"a": 1, "b": [[]]}'
