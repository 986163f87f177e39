"""Deterministic per-node random stream derivation."""
import hashlib

import numpy as np
import pytest

from sdgflow.errors import InvalidSpec
from sdgflow.rng import SEED_MAX, RngStream, derive_stream

# First four uniforms of two streams, frozen when the derivation scheme was
# first implemented. Any change to the seed-to-stream mapping breaks replay
# of old runs and must show up here.
GOLDEN = {
    (0, "generate"): [
        0.034923649180923944,
        0.06594510563260036,
        0.9884943058105191,
        0.2820146964145728,
    ],
    (0, "privacy"): [
        0.465670886898814,
        0.4406312204201184,
        0.4096757216329008,
        0.44312400933623697,
    ],
    (1, "generate"): [
        0.3998074678925023,
        0.9977765018489313,
        0.6054192223472514,
        0.32869842625792034,
    ],
}


def test_golden_draws():
    for (seed, node_id), expected in GOLDEN.items():
        got = derive_stream(seed, node_id).generator.random(4)
        assert got.tolist() == expected, (seed, node_id)


def test_same_inputs_same_stream():
    a = derive_stream(42, "load").generator.random(100)
    b = derive_stream(42, "load").generator.random(100)
    assert np.array_equal(a, b)


def test_distinct_node_ids_distinct_streams():
    a = derive_stream(42, "generate").generator.random(8)
    b = derive_stream(42, "privacy").generator.random(8)
    assert not np.array_equal(a, b)


def test_distinct_seeds_distinct_streams():
    a = derive_stream(0, "generate").generator.random(8)
    b = derive_stream(1, "generate").generator.random(8)
    assert not np.array_equal(a, b)


def test_child_is_path_derivation():
    parent = derive_stream(7, "privacy")
    child = parent.child("overlap")
    direct = derive_stream(7, "privacy/overlap")
    assert isinstance(child, RngStream)
    assert child.node_id == "privacy/overlap"
    assert np.array_equal(child.generator.random(16), direct.generator.random(16))


def test_child_does_not_disturb_parent():
    a = derive_stream(7, "x")
    a.child("c1")
    a.child("c2")
    b = derive_stream(7, "x")
    assert np.array_equal(a.generator.random(8), b.generator.random(8))


def test_derivation_matches_documented_prf():
    # stream entropy = sha256(big-endian seed || ":" || node id)
    digest = hashlib.sha256((99).to_bytes(8, "big") + b":" + b"report").digest()
    ref = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(int.from_bytes(digest, "big")))
    )
    got = derive_stream(99, "report").generator.random(6)
    assert np.array_equal(got, ref.random(6))


def test_streams_statistically_unrelated():
    a = derive_stream(3, "a").generator.random(20_000)
    b = derive_stream(3, "b").generator.random(20_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
def test_out_of_range_seed_is_typed_error(seed):
    with pytest.raises(InvalidSpec, match="root_seed"):
        derive_stream(seed, "generate")


def test_largest_seed_derives():
    assert derive_stream(SEED_MAX, "generate").generator.random(2).shape == (2,)
