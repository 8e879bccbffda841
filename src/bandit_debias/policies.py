"""Bandit policies as resumable state machines.

Four algorithms: explore-then-commit (ETC), UCB, Gaussian Thompson sampling
(TS) and epsilon-greedy (EG).  Selection, state update and conditional
propensity scores share one vectorized core that operates on a leading batch
dimension, so simulating many experiments in lockstep costs a handful of
array ops per round.

Every propensity is a pure function of its row's counts and sums, computed by
``propensity_batch``; ``propensity`` applies it to the prefix states of
stacked logs in fixed blocks of ``_PROPENSITY_ROWS`` rows, which bounds the
working set.  TS with K != 2 uses an exact quadrature (``_ts_quadrature``).

Conventions fixed here (ties have positive probability for Bernoulli
rewards, so they must be pinned down):

* every row argmax (ETC, UCB, TS, EG greedy) is ``_argmax_rows``, one
  comparison pass per arm column with ties toward the lowest arm index, so
  it equals ``np.argmax(x, axis=1)`` on NaN-free scores;
* UCB treats an unpulled arm's bonus as +inf, forcing one pull of each arm
  in the first K rounds, lowest index first;
* ETC scores an arm with exactly m pulls by its mean and every other arm
  +inf: the lowest arm short of m pulls explores, the best mean commits
  once every arm has m, and the committed arm is then the only one above m;
* EG's empirical mean of an unpulled arm is 0;
* EG draws one uniform u per row: u < epsilon explores and plays arm
  floor(u / epsilon * K) (at most K - 1), otherwise the greedy arm plays;
* TS uses a Gaussian prior/likelihood for all reward families;
* TS with K = 2 draws one normal z per row and plays arm index 1 iff
  pm1 - pm0 > sqrt(pv0 + pv1) * z, the event of the two-draw argmax whose
  probability ``propensity_batch`` gives by ``ndtr``; other K draw K
  normals and take their ``_argmax_rows``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import log_ndtr, ndtr

from .streams import substream  # noqa: F401  (perfbench/tracing.py wraps policies.substream)

# _ts_quadrature: 8-node Gauss-Legendre (nodes +-t, weights w) per piece, breaking at pm + c * sd.
_GL_T = np.array([0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763])
_TS_BREAKS = np.array([-12.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 12.0])
# Prefix-state rows per propensity_batch call: the TS quadrature holds two
# rows x K x 8(9K - 1) arrays, 2.3 MiB per block at K=4.
_PROPENSITY_ROWS = 128


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
_DETERMINISTIC = (EtcSpec, UcbSpec)  # no internal randomization, so no propensities


def json_int(value, name: str) -> int:
    """An integer field of a JSON document: an int, or a float with an integral value.

    ``int()`` would truncate 2.7 to 2 and read ``true`` as 1; a bool, a
    non-integral number or a non-number is a ValueError naming the field.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def spec_from_dict(d: dict) -> PolicySpec:
    name = d.get("name")
    if name == "etc":
        return EtcSpec(json_int(d["m"], "m"))
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
    """State of ``n`` policy runs.

    ``t`` is each row's 1-based round, sum(counts[i]) + 1: an int for rows
    advanced in lockstep, an (n, 1) column for the rows of a
    ``prefix_state``, which sit at different rounds.  Either broadcasts
    against the (n, K) counts.
    """

    K: int
    n: int
    t: Union[int, np.ndarray] = 1
    counts: np.ndarray = field(default=None)  # (n, K) int64, C-contiguous
    sums: np.ndarray = field(default=None)    # (n, K), C-contiguous

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.n, self.K), dtype=np.int64)
            self.sums = np.zeros((self.n, self.K))

    def means(self) -> np.ndarray:
        """Empirical means, 0 for unpulled arms (whose sums are exactly 0)."""
        return self.sums / np.maximum(self.counts, 1)

    def update(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        # Flat indices into the row-major arrays: a third of the cost of
        # indexing them by (row, arm) pairs.
        cells = np.arange(0, self.n * self.K, self.K) + arms
        self.counts.reshape(-1)[cells] += 1
        self.sums.reshape(-1)[cells] += rewards
        self.t += 1


def select_batch(spec: PolicySpec, state: BatchPolicyState, rng: np.random.Generator) -> np.ndarray:
    """Arm choices (n,) for the current round; reads ``state`` only, draws from rng in a fixed order."""
    n, K = state.n, state.K
    if isinstance(spec, EtcSpec):
        return _argmax_rows(np.where(state.counts == spec.m, state.means(), np.inf))
    if isinstance(spec, UcbSpec):
        unpulled = state.counts == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(np.log(state.t) / state.counts)
        scores = np.where(unpulled, np.inf, state.means() + bonus)
        return _argmax_rows(scores)
    if isinstance(spec, TsSpec):
        pm, pv = _ts_posterior(spec, state)
        if K == 2:
            # The two-draw argmax plays arm 1 with probability
            # ndtr((pm1 - pm0) / sqrt(pv0 + pv1)): one normal decides it.
            gap = pm[:, 1] - pm[:, 0]
            return (gap > np.sqrt(pv[:, 0] + pv[:, 1]) * rng.standard_normal(n)).astype(np.int64)
        return _argmax_rows(pm + np.sqrt(pv) * rng.standard_normal((n, K)))
    if isinstance(spec, EgSpec):
        arms = _argmax_rows(state.means())
        u = rng.random(n)
        explore = u < spec.epsilon
        # Given u < epsilon, u / epsilon is uniform on [0, 1); a product that
        # rounds up to K is clipped.
        arms[explore] = np.minimum((u[explore] / spec.epsilon * K).astype(np.int64), K - 1)
        return arms
    raise TypeError(f"unknown policy spec {spec!r}")


def _argmax_rows(x: np.ndarray) -> np.ndarray:
    """Column of the largest entry in each row of (n, K) x, ties to the lowest.

    One pass per column: numpy's ``argmax(x, axis=1)`` reduces one short row
    at a time, several times slower on wide batches of few arms.
    """
    n, K = x.shape
    if K == 1:
        return np.zeros(n, dtype=np.int64)
    arm = (x[:, 1] > x[:, 0]).astype(np.int64)
    best = x[:, 0]
    for k in range(2, K):
        best = np.maximum(best, x[:, k - 1])
        arm[x[:, k] > best] = k
    return arm


def propensity_batch(spec: PolicySpec, state: BatchPolicyState) -> Optional[np.ndarray]:
    """Conditional selection probabilities (n, K) of each row's current round.

    None for ETC/UCB (non-randomized policies).
    """
    if isinstance(spec, _DETERMINISTIC):
        return None
    if isinstance(spec, EgSpec):
        greedy = _argmax_rows(state.means())
        out = np.full((state.n, state.K), spec.epsilon / state.K)
        out[np.arange(state.n), greedy] += 1.0 - spec.epsilon
        return out
    if isinstance(spec, TsSpec):
        pm, pv = _ts_posterior(spec, state)
        if state.K != 2:
            return _ts_quadrature(pm, np.sqrt(pv))
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
        t=np.tile(np.arange(1, T + 1), n)[:, None],
        counts=strict_past(onehot.astype(np.int64)),
        sums=strict_past(r),
    )


def propensity(spec: PolicySpec, actions: np.ndarray, rewards: np.ndarray, K: int) -> Optional[np.ndarray]:
    """e_t(k) of stacked logs, shape (n, T, K); None for non-randomized policies."""
    if isinstance(spec, _DETERMINISTIC):
        return None
    state = prefix_state(actions, rewards, K)
    out = np.empty((state.n, K))
    for lo in range(0, state.n, _PROPENSITY_ROWS):
        hi = min(lo + _PROPENSITY_ROWS, state.n)
        rows = BatchPolicyState(K=K, n=hi - lo, t=state.t[lo:hi], counts=state.counts[lo:hi], sums=state.sums[lo:hi])
        out[lo:hi] = propensity_batch(spec, rows)
    return out.reshape(actions.shape + (K,))


def _ts_posterior(spec: TsSpec, state: BatchPolicyState) -> tuple[np.ndarray, np.ndarray]:
    prec = 1.0 / spec.prior_variance + state.counts / spec.likelihood_variance
    pv = 1.0 / prec
    pm = pv * (spec.prior_mean / spec.prior_variance + state.sums / spec.likelihood_variance)
    return pm, pv


def _ts_quadrature(pm: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """P(arm k has the largest posterior draw) for (n, K) normal posteriors.

    Integrates phi_k(x) prod_{j != k} Phi((x - pm_j) / sd_j), the product in log space.
    """
    edges = np.sort((pm[:, :, None] + sd[:, :, None] * _TS_BREAKS).reshape(len(pm), 1, -1), axis=2)
    half = np.diff(edges, axis=2)[..., None] / 2  # (n, 1, pieces, 1)
    z = (edges[..., :-1, None] + half * (1 + np.r_[-_GL_T, _GL_T]) - pm[:, :, None, None]) / sd[:, :, None, None]
    log_cdf = log_ndtr(z)  # z: (n, K, pieces, nodes), reused in place below
    z *= z
    z *= 0.5
    z += log_cdf
    np.subtract(log_cdf.sum(axis=1, keepdims=True), z, out=z)
    np.exp(z, out=z)
    z *= half * np.r_[_GL_W, _GL_W]
    out = z.sum(axis=(2, 3)) / sd  # the factor 1/sqrt(2 pi) cancels below
    return out / out.sum(axis=1, keepdims=True)  # so a one-arm row is exactly 1.0
