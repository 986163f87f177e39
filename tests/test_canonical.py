"""Canonical JSON serialization and hashing."""
import hashlib
import json
import math

import pytest

from sdgflow.canonical import canonical_json_bytes, sha256_hex


def hash_json(obj):
    return sha256_hex(canonical_json_bytes(obj))


def test_keys_sorted_and_compact():
    assert canonical_json_bytes({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_nested_sorting():
    doc = {"z": {"d": [3, 1], "c": 2}, "a": [{"y": 0, "x": 1}]}
    assert canonical_json_bytes(doc) == b'{"a":[{"x":1,"y":0}],"z":{"c":2,"d":[3,1]}}'


def test_list_order_preserved():
    assert canonical_json_bytes([3, 1, 2]) == b"[3,1,2]"


def test_insertion_order_irrelevant():
    a = {"x": 1, "y": {"p": 1, "q": 2}}
    b = {"y": {"q": 2, "p": 1}, "x": 1}
    assert canonical_json_bytes(a) == canonical_json_bytes(b)
    assert hash_json(a) == hash_json(b)


def test_unicode_not_escaped():
    # ensure_ascii=False keeps non-ASCII text as UTF-8 bytes
    assert canonical_json_bytes({"k": "café"}) == '{"k":"café"}'.encode("utf-8")


def test_nan_rejected():
    with pytest.raises(ValueError):
        canonical_json_bytes({"x": math.nan})
    with pytest.raises(ValueError):
        canonical_json_bytes({"x": math.inf})


def test_sha256_known_vector():
    # sha256("abc") from the FIPS 180-2 test vectors
    assert (
        sha256_hex(b"abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_hash_json_matches_independent_recomputation():
    doc = {"nodes": [{"id": "a", "params": {"n": 3}}], "seed": 7, "meta": {"k": "v"}}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert canonical_json_bytes(doc) == blob.encode("utf-8")
    assert hash_json(doc) == hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_hash_is_hex_digest_of_canonical_bytes():
    doc = {"a": [1, 2, {"b": None, "c": True}]}
    assert hash_json(doc) == hashlib.sha256(canonical_json_bytes(doc)).hexdigest()
