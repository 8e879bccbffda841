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

``task_map`` runs a list of such keyed tasks, in a process pool no larger
than the list.
"""
from __future__ import annotations

import concurrent.futures
import contextlib

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


def child_seed(seed: int, *path: int) -> int:
    """A 64-bit seed derived from (seed, path), for APIs that take plain seeds."""
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


@contextlib.contextmanager
def task_map(fn, tasks: list, workers: int):
    """An iterator of fn over tasks, in task order, as they finish.

    With at least two workers and two tasks it runs in a pool of
    min(workers, len(tasks)) processes, which lives until the block exits:
    under ``fork`` a pool starts all its processes at the first task.
    Otherwise it runs in this process, one task per step.
    """
    size = min(workers, len(tasks))
    if size < 2:
        yield map(fn, tasks)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=size) as pool:
        yield pool.map(fn, tasks)
