"""Bandit policies as resumable state machines.

Four algorithms: explore-then-commit (ETC), UCB, Gaussian Thompson sampling
(TS) and epsilon-greedy (EG).  Selection, state update and conditional
propensity scores share one vectorized core that operates on a leading batch
dimension, so simulating many experiments in lockstep costs a handful of
array ops per round.

Every propensity comes from ``propensity_batch``; ``propensity`` applies it
once to the prefix states of stacked logs, with no loop over rounds.  TS
with K != 2 has no closed form: its propensity is a fixed-size posterior
Monte Carlo on a substream keyed by the round, so it is reproducible.

Conventions fixed here (ties have positive probability for Bernoulli
rewards, so they must be pinned down):

* every argmax (ETC commit, UCB, EG greedy) breaks ties toward the lowest
  arm index;
* UCB treats an unpulled arm's bonus as +inf, forcing one pull of each arm
  in the first K rounds, lowest index first;
* EG's empirical mean of an unpulled arm is 0;
* TS uses a Gaussian prior/likelihood for all reward families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from .streams import substream

TS_PROPENSITY_DRAWS = 4096
# Fixed seed for the K>2 TS propensity Monte Carlo; a dedicated substream
# keeps the estimate deterministic and independent of caller streams.
_TS_PROPENSITY_SEED = 0x7A11E5


@dataclass(frozen=True)
class EtcSpec:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ETC exploration block m must be >= 1")

    name = "etc"

    def to_dict(self) -> dict:
        return {"name": "etc", "m": self.m}


@dataclass(frozen=True)
class UcbSpec:
    name = "ucb"

    def to_dict(self) -> dict:
        return {"name": "ucb"}


@dataclass(frozen=True)
class TsSpec:
    prior_mean: float = 0.0
    prior_variance: float = 1.0
    likelihood_variance: float = 1.0

    def __post_init__(self):
        if self.prior_variance <= 0 or self.likelihood_variance <= 0:
            raise ValueError("TS prior and likelihood variances must be > 0")

    name = "ts"

    def to_dict(self) -> dict:
        return {
            "name": "ts",
            "prior_mean": self.prior_mean,
            "prior_variance": self.prior_variance,
            "likelihood_variance": self.likelihood_variance,
        }


@dataclass(frozen=True)
class EgSpec:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")

    name = "eg"

    def to_dict(self) -> dict:
        return {"name": "eg", "epsilon": self.epsilon}


PolicySpec = Union[EtcSpec, UcbSpec, TsSpec, EgSpec]


def spec_from_dict(d: dict) -> PolicySpec:
    name = d.get("name")
    if name == "etc":
        return EtcSpec(int(d["m"]))
    if name == "ucb":
        return UcbSpec()
    if name == "ts":
        return TsSpec(
            float(d.get("prior_mean", 0.0)),
            float(d.get("prior_variance", 1.0)),
            float(d.get("likelihood_variance", 1.0)),
        )
    if name == "eg":
        return EgSpec(float(d["epsilon"]))
    raise ValueError(f"unknown policy name: {name!r}")


@dataclass
class BatchPolicyState:
    """State of ``n`` policy runs advanced in lockstep.

    Round index ``t`` is 1-based; sum(counts[i]) == t - 1 at the start of
    round t for every run i.  The rows of a ``prefix_state`` sit at
    different rounds; each row's round is sum(counts[i]) + 1.
    """

    K: int
    n: int
    t: int = 1
    counts: np.ndarray = field(default=None)  # (n, K) int64
    sums: np.ndarray = field(default=None)    # (n, K)
    sumsq: np.ndarray = field(default=None)   # (n, K)
    committed: np.ndarray = field(default=None)  # (n,) int64, -1 before commit

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.n, self.K), dtype=np.int64)
            self.sums = np.zeros((self.n, self.K))
            self.sumsq = np.zeros((self.n, self.K))
            self.committed = np.full(self.n, -1, dtype=np.int64)

    def means(self) -> np.ndarray:
        """Empirical means, 0 for unpulled arms."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), 0.0)

    def update(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        rows = np.arange(self.n)
        self.counts[rows, arms] += 1
        self.sums[rows, arms] += rewards
        self.sumsq[rows, arms] += rewards * rewards
        self.t += 1


def select_batch(spec: PolicySpec, state: BatchPolicyState, rng: np.random.Generator) -> np.ndarray:
    """Arm choices (n,) for the current round; draws from rng in a fixed order."""
    n, K, t = state.n, state.K, state.t
    if isinstance(spec, EtcSpec):
        horizon_explore = spec.m * K
        if t <= horizon_explore:
            return np.full(n, (t - 1) // spec.m, dtype=np.int64)
        stale = state.committed < 0
        if stale.any():
            state.committed = np.where(stale, np.argmax(state.means(), axis=1), state.committed)
        return state.committed.copy()
    if isinstance(spec, UcbSpec):
        unpulled = state.counts == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(math.log(t) / state.counts)
        scores = np.where(unpulled, np.inf, state.means() + bonus)
        return np.argmax(scores, axis=1)
    if isinstance(spec, TsSpec):
        pm, pv = _ts_posterior(spec, state)
        draws = pm + np.sqrt(pv) * rng.standard_normal((n, K))
        return np.argmax(draws, axis=1)
    if isinstance(spec, EgSpec):
        greedy = np.argmax(state.means(), axis=1)
        coin = rng.random(n)
        uniform_arm = rng.integers(0, K, size=n)
        return np.where(coin < spec.epsilon, uniform_arm, greedy)
    raise TypeError(f"unknown policy spec {spec!r}")


def propensity_batch(spec: PolicySpec, state: BatchPolicyState) -> Optional[np.ndarray]:
    """Conditional selection probabilities (n, K) of each row's current round.

    None for ETC/UCB (non-randomized policies).
    """
    if isinstance(spec, (EtcSpec, UcbSpec)):
        return None
    if isinstance(spec, EgSpec):
        greedy = np.argmax(state.means(), axis=1)
        out = np.full((state.n, state.K), spec.epsilon / state.K)
        out[np.arange(state.n), greedy] += 1.0 - spec.epsilon
        return out
    if isinstance(spec, TsSpec):
        pm, pv = _ts_posterior(spec, state)
        if state.K != 2:
            # Every row of round t uses the normals of substream(_TS_PROPENSITY_SEED, t).
            rounds = state.counts.sum(axis=1) + 1
            out = np.empty((state.n, state.K))
            for t in np.unique(rounds):
                z = substream(_TS_PROPENSITY_SEED, int(t)).standard_normal((TS_PROPENSITY_DRAWS, state.K))
                for i in np.flatnonzero(rounds == t):
                    wins = np.argmax(pm[i] + np.sqrt(pv[i]) * z, axis=1)
                    out[i] = np.bincount(wins, minlength=state.K) / TS_PROPENSITY_DRAWS
            return out
        gap = (pm[:, 0] - pm[:, 1]) / np.sqrt(pv[:, 0] + pv[:, 1])
        p1 = ndtr(gap)
        return np.stack([p1, 1.0 - p1], axis=1)
    raise TypeError(f"unknown policy spec {spec!r}")


def prefix_state(actions: np.ndarray, rewards: np.ndarray, K: int) -> BatchPolicyState:
    """State of every round of stacked logs (n, T) as n*T rows.

    Row i*T + t holds log i's counts and sums over rounds < t: a cumulative
    sum shifted by one round, so round t sees only its strict past.
    """
    n, T = actions.shape
    onehot = actions[:, :, None] == np.arange(K)
    r = np.where(onehot, rewards[:, :, None], 0.0)

    def strict_past(x: np.ndarray) -> np.ndarray:
        out = np.zeros((n, T, K), dtype=x.dtype)
        np.cumsum(x[:, :-1], axis=1, out=out[:, 1:])
        return out.reshape(n * T, K)

    return BatchPolicyState(
        K=K,
        n=n * T,
        counts=strict_past(onehot.astype(np.int64)),
        sums=strict_past(r),
        sumsq=strict_past(r * r),
        committed=np.full(n * T, -1, dtype=np.int64),
    )


def propensity(spec: PolicySpec, actions: np.ndarray, rewards: np.ndarray, K: int) -> Optional[np.ndarray]:
    """e_t(k) of stacked logs, shape (n, T, K); None for non-randomized policies."""
    probs = propensity_batch(spec, prefix_state(actions, rewards, K))
    return None if probs is None else probs.reshape(actions.shape + (K,))


def _ts_posterior(spec: TsSpec, state: BatchPolicyState) -> tuple[np.ndarray, np.ndarray]:
    prec = 1.0 / spec.prior_variance + state.counts / spec.likelihood_variance
    pv = 1.0 / prec
    pm = pv * (spec.prior_mean / spec.prior_variance + state.sums / spec.likelihood_variance)
    return pm, pv
