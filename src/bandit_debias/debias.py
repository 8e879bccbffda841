"""Bootstrap bias correction of adaptively collected sample means.

The procedure: build a bootstrap world from the log, replay B experiments
with the same K, T and policy against it, average each arm's replay sample
means, and report corrected means ``raw - (bootstrap average - raw)``.

Replays are grouped into fixed-size chunks; chunk i draws from a substream
keyed (seed, chunk tag, i) and chunk results are reduced in index order, so
the report is bit-identical at any worker count.  Replays where an arm was
never pulled are excluded from that arm's average (its replay sample mean
is undefined); the per-arm number of contributing replays is reported as
``b_effective``.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapSpec, build_world
from .simulator import BanditLog, json_floats, run_batch, summarize
from .streams import TAG_REPLAY_CHUNK, substream

CHUNK = 4096


@dataclass
class DebiasReport:
    K: int
    B: int
    kind: str
    raw_means: np.ndarray
    estimated_bias: np.ndarray   # bootstrap average - raw; NaN where undefined
    corrected_means: np.ndarray  # raw - estimated_bias, exactly
    b_effective: np.ndarray      # replays contributing per arm
    zero_pull_replays: np.ndarray
    bootstrap_se: np.ndarray     # MC standard error of the bootstrap average
    undefined_arms: list = field(default_factory=list)

    def to_dict(self) -> dict:
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
            "undefined_arms": [int(a) + 1 for a in self.undefined_arms],
        }


def _chunk_sizes(B: int) -> list[int]:
    # Boundaries depend only on B, never on the worker count.
    return [CHUNK] * (B // CHUNK) + ([B % CHUNK] if B % CHUNK else [])


def _replay_chunk(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    size, K, T, policy, world, seed, index = args
    rng = substream(seed, TAG_REPLAY_CHUNK, index)
    out = run_batch(size, K, T, policy, world, rng)
    means = out.means()  # NaN where an arm went unpulled in a replay
    defined = out.counts > 0
    s1 = np.where(defined, means, 0.0).sum(axis=0)
    s2 = np.where(defined, means * means, 0.0).sum(axis=0)
    return s1, s2, defined.sum(axis=0)


def debias(log: BanditLog, spec: BootstrapSpec, seed: int, workers: int = 1) -> DebiasReport:
    """Run the bootstrap correction; deterministic given (log, spec, seed)."""
    summary = summarize(log)
    world = build_world(summary, log, spec)  # raises ZeroCountArm
    sizes = _chunk_sizes(spec.B)
    tasks = [
        (size, log.K, log.T, log.policy, world, int(seed), i)
        for i, size in enumerate(sizes)
    ]
    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replay_chunk, tasks))
    else:
        results = [_replay_chunk(t) for t in tasks]

    sum_means = np.zeros(log.K)
    sum_sq = np.zeros(log.K)
    b_eff = np.zeros(log.K, dtype=np.int64)
    for s1, s2, n_def in results:  # fixed reduction order by chunk index
        sum_means += s1
        sum_sq += s2
        b_eff += n_def

    raw = summary.means.astype(np.float64)
    boot_avg = np.where(b_eff > 0, sum_means / np.maximum(b_eff, 1), np.nan)
    var = sum_sq / np.maximum(b_eff, 1) - boot_avg**2
    se = np.sqrt(np.maximum(var, 0.0) / np.maximum(b_eff, 1))
    estimated_bias = boot_avg - raw
    corrected = raw - estimated_bias
    undefined = [int(k) for k in np.flatnonzero(b_eff == 0)]
    return DebiasReport(
        K=log.K,
        B=spec.B,
        kind=spec.kind,
        raw_means=raw,
        estimated_bias=estimated_bias,
        corrected_means=corrected,
        b_effective=b_eff,
        zero_pull_replays=spec.B - b_eff,
        bootstrap_se=np.where(b_eff > 0, se, np.nan),
        undefined_arms=undefined,
    )
