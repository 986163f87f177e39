"""Canonical JSON bytes and content hashing.

Canonical form: UTF-8, object keys sorted ascending bytewise, no insignificant
whitespace, numbers in shortest round-trip decimal form. Two value-equal
documents always canonicalize to identical bytes, so SHA-256 over them is a
stable content address.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json_bytes(obj: Any) -> bytes:
    # json sorts keys by code point, which for UTF-8 equals bytewise order;
    # repr-based float formatting is the shortest round-trip form.
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
