"""Deterministic per-node random streams.

Each pipeline node draws from a stream derived as PRF(root_seed, node_id):
SHA-256 over the big-endian seed bytes and the node id, fed to numpy's
SeedSequence as entropy. Adding or removing a node never perturbs any other
node's stream, and equal (seed, node_id) pairs reproduce bit-identical
sequences on any platform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .jsonfields import JsonChecks

SEED_MAX = 2**64 - 1  # a root seed is hashed as 8 big-endian bytes
_check = JsonChecks(InvalidSpec)


def check_seed(value, what: str = "seed") -> int:
    """The root seed rule, shared by documents, the CLI's --seed, `engine.run`
    and every RngStream: an int in [0, SEED_MAX]; raises InvalidSpec."""
    return _check.integer(value, what, minimum=0, maximum=SEED_MAX)


def _entropy_for(root_seed: int, node_id: str) -> int:
    digest = hashlib.sha256(
        root_seed.to_bytes(8, "big") + b":" + node_id.encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class RngStream:
    """A named, reproducible random stream bound to (root_seed, node_id)."""

    root_seed: int
    node_id: str
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        check_seed(self.root_seed, "root_seed")
        seq = np.random.SeedSequence(_entropy_for(self.root_seed, self.node_id))
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, label: str) -> "RngStream":
        """Derive an independent sub-stream, e.g. for partitions or permutations."""
        return derive_stream(self.root_seed, f"{self.node_id}/{label}")


def derive_stream(root_seed: int, node_id: str) -> RngStream:
    return RngStream(root_seed=root_seed, node_id=node_id)
