"""Bootstrap bias correction of adaptively collected sample means.

The procedure: build a bootstrap world from the log, replay B experiments
with the same K, T and policy against it, average each arm's replay sample
means, and report corrected means ``raw - (bootstrap average - raw)``.

``debias`` takes one log or a stack of W logs and returns one report whose
arrays are (K,) for a log and (W, K) for a stack.  A stack is corrected in
one pass: log w's B replays are rows w*B .. (w+1)*B - 1 of one replay batch
against a world with a leading log axis, and one log is the stack of one.
Rows are cut by ``chunk_bounds(rows, K)`` into the fewest balanced chunks
of at most ``max(CHUNK_ROWS, CHUNK_CELLS // K)`` rows (8192 at K = 2, 4096
at K >= 4), so a lockstep round's fixed cost is paid as few times as that
width allows; the plan depends only on W x B and K.  Chunk i draws from a
substream keyed (seed, chunk tag, i), its replay means are summed per log
into an ``ArmSummary`` (see ``simulator`` for its squares' centring), and
chunk records are added field by field in index order, so a report is
bit-identical at any worker count.
Replays where an arm was never pulled are excluded from that arm's average
(its replay sample mean is undefined); the per-arm number of
contributing replays is reported as ``b_effective``, and the bootstrap SE
is NaN where it is below 2.

Replays are unlogged ``run_batch`` calls, so ETC replays take the
simulator's sufficient-statistic path, with no per-round policy step; its
squares are discarded here.  Every other policy replays round by round.  A
one-log call replays with no ``row_log``, since its world's cell is the arm
itself.

One call runs at most ``MAX_REPLAYS`` replay rows (W x B).  The task list,
one entry per chunk, is built before the first replay and a process pool is
handed all of it at once, so a larger request is refused before any work.
At the limit the list has about 1.2e5 entries at K = 2 and at most
about 2.4e5 (MAX_REPLAYS / CHUNK_ROWS) at any K, and a replay that
steps rounds (UCB, TS, EG; about 40 ns per row-round at best) is already
hours of work at T = 1000.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapSpec, build_world
from .simulator import ArmSummary, BanditLog, json_floats, run_batch, summarize
from .streams import TAG_REPLAY_CHUNK, substream, task_map

CHUNK_CELLS = 16384  # replay rows x arms one chunk may hold
CHUNK_ROWS = 4096  # a chunk may always hold this many rows, whatever K
MAX_REPLAYS = 10**9  # replay rows (W x B) one call may run


@dataclass
class DebiasReport:
    """Per-arm results, (K,) for one log or (W, K) for a stack of W."""

    K: int
    B: int
    kind: str
    raw_means: np.ndarray
    estimated_bias: np.ndarray   # bootstrap average - raw; NaN where undefined
    corrected_means: np.ndarray  # raw - estimated_bias, exactly
    b_effective: np.ndarray      # replays contributing per arm
    bootstrap_se: np.ndarray     # MC standard error of the bootstrap average; NaN below 2 replays

    @property
    def zero_pull_replays(self) -> np.ndarray:
        return self.B - self.b_effective

    @property
    def undefined_arms(self) -> list[int]:
        """Arms of a one-log report that no replay pulled: their bias is undefined."""
        return [int(k) for k in np.flatnonzero(self.b_effective == 0)]

    def to_dict(self) -> dict:
        """The JSON form of a one-log report."""
        return {
            "K": self.K,
            "B": self.B,
            "bootstrap": self.kind,
            "raw_mean": json_floats(self.raw_means),
            "estimated_bias": json_floats(self.estimated_bias),
            "corrected_mean": json_floats(self.corrected_means),
            "b_effective": [int(b) for b in self.b_effective],
            "zero_pull_replays": [int(z) for z in self.zero_pull_replays],
            "bootstrap_se": json_floats(self.bootstrap_se),
            "undefined_arms": [a + 1 for a in self.undefined_arms],
        }


def chunk_bounds(rows: int, K: int) -> list[tuple[int, int]]:
    """(lo, hi) of each replay chunk: the fewest that keep each within
    ``max(CHUNK_ROWS, CHUNK_CELLS // K)`` rows, balanced."""
    count = -(-rows // max(CHUNK_ROWS, CHUNK_CELLS // K))
    return [(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def _replay_chunk(args) -> ArmSummary:
    """One chunk's replays per log, (W, K): how many pulled each arm, the sum
    of their means and of their squared deviations from the log's raw mean."""
    lo, hi, B, raw, T, policy, world, seed, index = args
    W, K = raw.shape
    row_log = np.arange(lo, hi) // B
    # A wide chunk's (rows, K) round temporaries sit just under glibc's initial 128 KiB
    # mmap threshold, so a fresh process would hand its freed heap top back to the kernel
    # between rounds and fault it in again.  Freeing one mapped 1 MiB block first raises
    # glibc's mmap and trim thresholds; under other allocators it is one untouched allocation.
    np.empty(1 << 17)
    rng = substream(seed, TAG_REPLAY_CHUNK, index)
    # One log's cell is the arm itself: the batch needs no log offset.
    out = run_batch(hi - lo, K, T, policy, world, rng, row_log=row_log if W > 1 else None)
    means = out.means  # NaN where an arm went unpulled in a replay
    defined = out.counts > 0
    cells = (row_log[:, None] * K + np.arange(K)).ravel()

    def per_log(x):
        return np.bincount(cells, weights=np.where(defined, x, 0.0).ravel(), minlength=W * K).reshape(W, K)

    counts = np.bincount(cells[defined.ravel()], minlength=W * K).reshape(W, K)
    return ArmSummary(counts, per_log(means), per_log((means - raw[row_log]) ** 2))


def debias(logs: BanditLog, spec: BootstrapSpec, seed: int, workers: int = 1) -> DebiasReport:
    """Run the bootstrap correction of one log or a stack; deterministic given (logs, spec, seed).

    The W x B replays of a stack run as one batch, with log w's replays in
    rows w*B .. (w+1)*B - 1; the report's arrays take the summary's shape.
    Raises ZeroCountArm if some log never pulled an arm, and ValueError
    for more than ``MAX_REPLAYS`` replays.
    """
    summary = summarize(logs)
    raw = summary.means.reshape(-1, logs.K)
    rows = len(raw) * spec.B
    if rows > MAX_REPLAYS:
        raise ValueError(f"{rows} replays (B = {spec.B} for each of {len(raw)} log(s)) "
                         f"exceed MAX_REPLAYS = {MAX_REPLAYS}")
    world = build_world(summary, logs, spec)  # raises ZeroCountArm
    # Boundaries depend only on the row and arm counts, never on the worker count.
    tasks = [(lo, hi, spec.B, raw, logs.T, logs.policy, world, int(seed), i)
             for i, (lo, hi) in enumerate(chunk_bounds(rows, logs.K))]
    total = ArmSummary(np.zeros(raw.shape, dtype=np.int64), np.zeros_like(raw), np.zeros_like(raw))
    with task_map(_replay_chunk, tasks, workers) as chunks:
        for chunk in chunks:  # fixed reduction order by chunk index
            total.counts += chunk.counts
            total.sums += chunk.sums
            total.squares += chunk.squares

    estimated_bias = total.means - raw
    # Squares about the raw mean, not E[x^2] - avg^2, which cancels at a large offset.
    n = np.maximum(total.counts, 1)
    var = total.squares / n - estimated_bias**2
    # One replay gives no spread: its SE is undefined, not 0.
    se = np.where(total.counts > 1, np.sqrt(np.maximum(var, 0.0) / n), np.nan)
    shape = summary.counts.shape  # (K,) for one log, (W, K) for a stack
    fields = (raw, estimated_bias, raw - estimated_bias, total.counts, se)
    return DebiasReport(logs.K, spec.B, spec.kind, *(x.reshape(shape) for x in fields))
