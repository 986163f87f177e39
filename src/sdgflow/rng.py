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

SEED_MAX = 2**64 - 1  # a root seed is hashed as 8 big-endian bytes


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
    generator: np.random.Generator = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not 0 <= self.root_seed <= SEED_MAX:
            raise InvalidSpec(f"root_seed must be an unsigned 64-bit integer, got {self.root_seed}")
        if self.generator is None:
            seq = np.random.SeedSequence(_entropy_for(self.root_seed, self.node_id))
            self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, label: str) -> "RngStream":
        """Derive an independent sub-stream, e.g. for partitions or permutations."""
        return derive_stream(self.root_seed, f"{self.node_id}/{label}")


def derive_stream(root_seed: int, node_id: str) -> RngStream:
    return RngStream(root_seed=root_seed, node_id=node_id)
