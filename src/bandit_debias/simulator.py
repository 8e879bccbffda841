"""Bandit experiment engine and log persistence.

One engine serves both the real world and bootstrap replays.  Experiments
run in lockstep batches: each round is a few array ops across the batch, so
a debias call with B replays costs O(T) numpy operations, not O(B*T) Python
iterations.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import distributions as dist
from . import policies
from .policies import BatchPolicyState, PolicySpec
from .streams import substream


@dataclass
class BanditLog:
    """One experiment: action and reward sequences plus metadata.

    Actions are stored 0-indexed; the CSV wire format is 1-indexed.
    """

    K: int
    T: int
    actions: np.ndarray
    rewards: np.ndarray
    policy: PolicySpec
    seed: Optional[int] = None
    world: str = "real"

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        if len(self.actions) != self.T or len(self.rewards) != self.T:
            raise ValueError("action/reward sequences must have length T")
        if self.T and (self.actions.min() < 0 or self.actions.max() >= self.K):
            raise ValueError("actions out of range")
        if self.world not in ("real", "bootstrap"):
            raise ValueError(f"unknown world tag {self.world!r}")

    def truncated(self, horizon: int) -> "BanditLog":
        if not 0 < horizon <= self.T:
            raise ValueError(f"horizon {horizon} outside (0, {self.T}]")
        return BanditLog(
            K=self.K,
            T=horizon,
            actions=self.actions[:horizon].copy(),
            rewards=self.rewards[:horizon].copy(),
            policy=self.policy,
            seed=self.seed,
            world=self.world,
        )


@dataclass
class ArmSummary:
    """Per-arm sufficient statistics; variance uses the 1/n (MLE) convention."""

    counts: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def zero_count_arms(self) -> list[int]:
        return [int(k) for k in np.flatnonzero(self.counts == 0)]


@dataclass
class BatchOutcome:
    """Sufficient statistics of n lockstep experiments (plus optional logs)."""

    counts: np.ndarray  # (n, K)
    sums: np.ndarray
    sumsq: np.ndarray
    actions: Optional[np.ndarray] = None  # (n, T)
    rewards: Optional[np.ndarray] = None  # (n, T)

    def means(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), np.nan)

    def variances(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            m = self.sums / np.maximum(self.counts, 1)
            v = self.sumsq / np.maximum(self.counts, 1) - m * m
        return np.where(self.counts > 0, np.maximum(v, 0.0), np.nan)


def _draw_rewards(arms: Sequence[dist.RewardDistribution], chosen: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(len(chosen))
    for k, d in enumerate(arms):
        idx = np.flatnonzero(chosen == k)
        if idx.size:
            out[idx] = d.sample(rng, idx.size)
    return out


def run_batch(
    n: int,
    K: int,
    T: int,
    policy: PolicySpec,
    arms: Sequence[dist.RewardDistribution],
    rng: np.random.Generator,
    record_logs: bool = False,
) -> BatchOutcome:
    """Run n independent experiments in lockstep off one stream.

    Per round, the draw order is fixed (policy randomness, then reward
    draws arm-by-arm ascending), so the outcome is a pure function of the
    stream state.
    """
    _validate_config(K, T, policy, arms)
    state = BatchPolicyState(K=K, n=n)
    actions = np.empty((n, T), dtype=np.int64) if record_logs else None
    rewards = np.empty((n, T)) if record_logs else None
    for t0 in range(T):
        chosen = policies.select_batch(policy, state, rng)
        r = _draw_rewards(arms, chosen, rng)
        state.update(chosen, r)
        if record_logs:
            actions[:, t0] = chosen
            rewards[:, t0] = r
    return BatchOutcome(
        counts=state.counts,
        sums=state.sums,
        sumsq=state.sumsq,
        actions=actions,
        rewards=rewards,
    )


def _validate_config(K: int, T: int, policy: PolicySpec, arms: Sequence[dist.RewardDistribution]) -> None:
    if K < 1 or T < 1:
        raise ValueError("K and T must be positive")
    if len(arms) != K:
        raise ValueError(f"expected {K} arm distributions, got {len(arms)}")
    if isinstance(policy, policies.EtcSpec) and policy.m * K > T:
        raise ValueError(f"ETC needs m*K <= T, got m={policy.m}, K={K}, T={T}")


def run_experiment(
    K: int,
    T: int,
    policy: PolicySpec,
    arms: Sequence[dist.RewardDistribution],
    seed: int,
    world: str = "real",
) -> BanditLog:
    """One experiment, deterministic given the seed."""
    rng = substream(seed)
    out = run_batch(1, K, T, policy, arms, rng, record_logs=True)
    return BanditLog(
        K=K,
        T=T,
        actions=out.actions[0],
        rewards=out.rewards[0],
        policy=policy,
        seed=int(seed),
        world=world,
    )


def summarize(log: BanditLog) -> ArmSummary:
    counts = np.bincount(log.actions, minlength=log.K)
    sums = np.bincount(log.actions, weights=log.rewards, minlength=log.K)
    sumsq = np.bincount(log.actions, weights=log.rewards**2, minlength=log.K)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        var = sumsq / np.maximum(counts, 1) - means**2
    variances = np.where(counts > 0, np.maximum(var, 0.0), np.nan)
    return ArmSummary(counts=counts, means=means, variances=variances)


# --- persistence -----------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def meta_path_for(log_path: str) -> str:
    return log_path + ".meta.json"


def save_log(log: BanditLog, csv_path: str, meta_path: Optional[str] = None) -> str:
    """Write `t,arm,reward` CSV (1-indexed) plus the JSON sidecar; returns the sidecar path."""
    lines = ["t,arm,reward"]
    for t0 in range(log.T):
        lines.append(f"{t0 + 1},{int(log.actions[t0]) + 1},{float(log.rewards[t0])!r}")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    meta = {
        "K": log.K,
        "T": log.T,
        "policy": log.policy.to_dict(),
        "seed": log.seed,
        "world": log.world,
    }
    meta_path = meta_path or meta_path_for(csv_path)
    atomic_write_text(meta_path, json.dumps(meta, indent=2) + "\n")
    return meta_path


class CorruptLog(Exception):
    """A log CSV that does not hold one arm in 1..K and one finite reward for each round 1..T."""


def _column(rows: list, name: str, kind: type, dtype) -> np.ndarray:
    try:
        return np.array([kind(row[name]) for row in rows], dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # TypeError: a short row
        raise CorruptLog(f"unparsable {name!r} field: {exc}") from None


def load_log(csv_path: str, meta_path: str) -> BanditLog:
    with open(meta_path) as f:
        meta = json.load(f)
    policy = policies.spec_from_dict(meta["policy"])
    K, T = int(meta["K"]), int(meta["T"])
    with open(csv_path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    missing = sorted({"t", "arm", "reward"} - set(reader.fieldnames or ()))
    if missing:
        raise CorruptLog(f"missing column(s) {missing}")
    if len(rows) != T:
        raise CorruptLog(f"expected {T} rows, got {len(rows)}")
    t = _column(rows, "t", int, np.int64) - 1
    hits = np.bincount(t[(t >= 0) & (t < T)], minlength=T)
    if np.any(hits != 1):
        # T rows that miss the set 1..T leave at least one round out.
        raise CorruptLog(f"rounds are not 1..{T} once each: round {np.argmin(hits) + 1} is missing")
    actions = np.empty(T, dtype=np.int64)
    rewards = np.empty(T)
    actions[t] = _column(rows, "arm", int, np.int64) - 1
    rewards[t] = _column(rows, "reward", float, np.float64)
    bad_arm = np.flatnonzero((actions < 0) | (actions >= K))
    if bad_arm.size:
        raise CorruptLog(f"arm {actions[bad_arm[0]] + 1} at round {bad_arm[0] + 1} is outside 1..{K}")
    nonfinite = np.flatnonzero(~np.isfinite(rewards))
    if nonfinite.size:
        raise CorruptLog(f"non-finite reward at round {nonfinite[0] + 1}")
    return BanditLog(
        K=K,
        T=T,
        actions=actions,
        rewards=rewards,
        policy=policy,
        seed=meta.get("seed"),
        world=meta.get("world", "real"),
    )
