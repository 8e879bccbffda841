"""Deterministic substream derivation for parallel Monte Carlo work.

All randomness in the package flows from a single master seed.  Substreams
are keyed by integer paths through ``numpy``'s SeedSequence, which seeds an
SFC64 generator, so the mapping (seed, path) -> stream is stable across
processes and worker counts.  A stream is owned by exactly one consumer;
streams are never shared.

Disjointness comes from the SeedSequence keys, not from the bit generator:
every consumer takes its own keyed stream and reads it from the start, so
nothing needs a counter-based generator's ``advance`` or jump-ahead.  SFC64
draws each normal, uniform and integer faster than the counter-based
Philox.
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
    """Generator on an SFC64 stream keyed by (seed, path).

    The key fixes the whole stream and no consumer seeks within one, so a
    counter-based generator such as Philox would add cost and nothing else.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.SFC64(ss))


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
