"""Deterministic substream derivation for parallel Monte Carlo work.

All randomness in the package flows from a single master seed.  Substreams
are keyed by integer paths through ``numpy``'s SeedSequence/Philox machinery,
so the mapping (seed, path) -> stream is stable across processes and worker
counts.  A stream is owned by exactly one consumer; streams are never shared.
"""
from __future__ import annotations

import numpy as np

# Path tags.  Keeping these in one place guarantees distinct consumers can
# never collide on a spawn key.
TAG_REPLAY_CHUNK = 1
TAG_HARNESS_SIM = 2
TAG_HARNESS_DEBIAS = 3
TAG_HARNESS_MSE = 4
TAG_THEORY = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator on a counter-based Philox stream keyed by (seed, path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def stream_key(seed: int, *path: int) -> tuple[int, ...]:
    """Identity of the stream (seed, path) would produce.

    Used by stream-accounting tests: two streams are disjoint iff their keys
    differ.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return tuple(int(w) for w in ss.generate_state(4))


def child_seed(seed: int, *path: int) -> int:
    """A 64-bit seed derived from (seed, path), for APIs that take plain seeds."""
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)
