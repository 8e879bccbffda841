"""Bandit experiment engine and log persistence.

One engine serves both the real world and bootstrap replays.  Experiments
run in lockstep batches: each round is a few array ops across the batch, so
a debias call with B replays costs O(T) numpy operations, not O(B*T) Python
iterations.

A world is held as per-arm arrays and draws a whole round's rewards in one
vectorized step.  ``LawWorld`` tabulates reward laws (the real world, and
the Gaussian multiplier bootstrap world); ``ResampleWorld`` holds a log's
rewards grouped by arm (Efron's bootstrap world).  ``run_batch`` also takes
a plain sequence of laws and tabulates it once per call.

A world's contract is each arm's law, not a stream layout: row i of a round
takes the round's i-th draw, whichever arm it chose, so every row's reward
is an independent draw from its arm's law.
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    actions: Optional[np.ndarray] = None  # (n, T)
    rewards: Optional[np.ndarray] = None  # (n, T)

    def means(self) -> np.ndarray:
        return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), np.nan)


class LawWorld:
    """Per-arm reward laws tabulated for one vectorized draw per round.

    An arm with a law of positive variance and finite ``atoms()`` is finite:
    it draws one uniform u per row and takes the top atom whose upper tail
    mass exceeds u (the inverse survival function, so the highest atom takes
    the lowest uniforms, as ``Bernoulli.sample`` does).  Every other arm draws
    mean + sd * z from one standard normal z per row; a zero-variance arm
    is its mean.  Row i takes the round's i-th normal and i-th uniform.
    Normals are drawn only when a normal arm exists and uniforms only when a
    finite arm exists, normals first.  A lookup compares u with each of the
    arm's atoms, which suits laws with a handful of atoms.
    """

    def __init__(self, laws: Sequence[dist.RewardDistribution]):
        self.laws = tuple(laws)
        K = len(self.laws)
        self.mu = np.array([d.mean() for d in self.laws], dtype=np.float64)
        self.sd = np.array([math.sqrt(d.variance()) for d in self.laws])
        atoms = [d.atoms() if d.variance() > 0 else None for d in self.laws]
        self.finite = np.array([a is not None for a in atoms])
        width = max((len(a[0]) for a in atoms if a is not None), default=0)
        # Row k: arm k's atoms from the top down and their cumulative upper
        # tail masses, the last forced to 1; padding tails never reach u < 1.
        self.top_down = np.zeros((K, width))
        self.tails = np.full((K, width), 2.0)
        for k, a in enumerate(atoms):
            if a is not None:
                support, probs = a
                self.top_down[k, : len(support)] = support[::-1]
                self.tails[k, : len(support)] = np.cumsum(probs[::-1])
                self.tails[k, len(support) - 1] = 1.0

    def __len__(self) -> int:
        return len(self.laws)

    def __getitem__(self, k: int) -> dist.RewardDistribution:
        return self.laws[k]

    def draw(self, chosen: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rewards = None
        if not self.finite.all():
            rewards = self.mu[chosen] + self.sd[chosen] * rng.standard_normal(len(chosen))
        if self.finite.any():
            u = rng.random(len(chosen))
            atom = (u[:, None] >= self.tails[chosen]).sum(axis=1)
            drawn = self.top_down[chosen, atom]
            rewards = drawn if rewards is None else np.where(self.finite[chosen], drawn, rewards)
        return rewards


class ResampleWorld:
    """Efron's bootstrap world: each arm's observed rewards, grouped by arm.

    ``values`` holds arm 0's rewards in log order, then arm 1's, and so on;
    arm k's slice starts at ``offsets[k]`` and has ``counts[k] >= 1``
    entries.  Row i's draw is the round's i-th uniform, scaled to an index
    into the chosen arm's slice: a resample with replacement.
    """

    def __init__(self, actions: np.ndarray, rewards: np.ndarray, K: int):
        self.values = rewards[np.argsort(actions, kind="stable")]
        self.counts = np.bincount(actions, minlength=K)
        if not self.counts.all():
            raise ValueError(f"arm {np.argmin(self.counts) + 1} has no rewards to resample")
        self.offsets = np.cumsum(self.counts) - self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, k: int) -> dist.FiniteDiscrete:
        """Arm k's resampling law: its distinct rewards, weighted by multiplicity."""
        start = self.offsets[k]
        values, multiplicity = np.unique(self.values[start : start + self.counts[k]], return_counts=True)
        return dist.FiniteDiscrete(values, multiplicity / multiplicity.sum())

    def draw(self, chosen: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(len(chosen))
        # u < 1, so the rounded product stays below the count.
        return self.values[self.offsets[chosen] + (u * self.counts[chosen]).astype(np.int64)]


World = Union[LawWorld, ResampleWorld]


def run_batch(
    n: int,
    K: int,
    T: int,
    policy: PolicySpec,
    world: Union[World, Sequence[dist.RewardDistribution]],
    rng: np.random.Generator,
    record_logs: bool = False,
) -> BatchOutcome:
    """Run n independent experiments in lockstep off one stream.

    ``world`` is a world object or a sequence of K reward laws, which is
    tabulated as a ``LawWorld``.  Per round, the draw order is fixed (policy
    randomness, then the world's reward draws, taken by the rows in row
    order), so the outcome is a pure function of the stream state.
    """
    validate_config(K, T, policy, world)
    if not isinstance(world, (LawWorld, ResampleWorld)):
        world = LawWorld(world)
    state = BatchPolicyState(K=K, n=n)
    actions = np.empty((n, T), dtype=np.int64) if record_logs else None
    rewards = np.empty((n, T)) if record_logs else None
    for t0 in range(T):
        chosen = policies.select_batch(policy, state, rng)
        r = world.draw(chosen, rng)
        state.update(chosen, r)
        if record_logs:
            actions[:, t0] = chosen
            rewards[:, t0] = r
    return BatchOutcome(counts=state.counts, sums=state.sums, actions=actions, rewards=rewards)


def validate_config(K: int, T: int, policy: PolicySpec, world) -> None:
    if K < 1 or T < 1:
        raise ValueError("K and T must be positive")
    if len(world) != K:
        raise ValueError(f"expected {K} arm distributions, got {len(world)}")
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
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    # Centred squares: E[x^2] - mean^2 cancels catastrophically at a large offset.
    squares = np.bincount(log.actions, weights=(log.rewards - means[log.actions]) ** 2, minlength=log.K)
    variances = np.where(counts > 0, squares / np.maximum(counts, 1), np.nan)
    return ArmSummary(counts=counts, means=means, variances=variances)


# --- persistence -----------------------------------------------------------


def json_floats(values) -> list:
    """Floats for JSON output, with null for an undefined (non-finite) value."""
    return [float(x) if np.isfinite(x) else None for x in values]


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
