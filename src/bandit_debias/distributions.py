"""Reward laws: sampling, moments, atoms and log-moment-generating-function access.

Three families are supported: Gaussian, Bernoulli and finite discrete.  All
are sub-Gaussian, so the cumulant machinery used by the large-deviation
oracles is finite everywhere.  ``atoms()`` gives a law's finite support as
``(support, probs)`` arrays, or None for a continuous Gaussian; the theory
oracles read lattice facts from it rather than from the law's class.
Instances are immutable and safe to share across workers; generators are
single-owner.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import logsumexp


@dataclass(frozen=True)
class Gaussian:
    mu: float
    var: float
    proxy: Optional[float] = None  # sub-Gaussian variance proxy override

    def __post_init__(self):
        if self.var < 0:
            raise ValueError(f"Gaussian variance must be >= 0, got {self.var}")

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.var

    def variance_proxy(self) -> float:
        return self.var if self.proxy is None else self.proxy

    def atoms(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        # A zero-variance Gaussian is a point mass; otherwise there are none.
        return (np.array([self.mu]), np.array([1.0])) if self.var == 0 else None

    def sample(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mu, math.sqrt(self.var), size)

    def log_mgf(self, h: float) -> float:
        return self.mu * h + 0.5 * self.var * h * h

    def log_mgf_derivatives(self, h: float) -> tuple[float, float]:
        return self.mu + self.var * h, self.var

    def to_dict(self) -> dict:
        d = {"type": "gaussian", "mean": self.mu, "variance": self.var}
        if self.proxy is not None:
            d["variance_proxy"] = self.proxy
        return d


@dataclass(frozen=True)
class Bernoulli:
    p: float
    proxy: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Bernoulli p must be in [0, 1], got {self.p}")

    def mean(self) -> float:
        return self.p

    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    def variance_proxy(self) -> float:
        # Hoeffding proxy for a law on [0, 1].
        return 0.25 if self.proxy is None else self.proxy

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0, 1.0]), np.array([1.0 - self.p, self.p])

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return float(rng.random() < self.p)
        return (rng.random(size) < self.p).astype(np.float64)

    def log_mgf(self, h: float) -> float:
        if h == 0.0 or self.p == 0.0:
            return 0.0
        if self.p == 1.0:
            return h
        # log(1-p + p*e^h), evaluated with a max shift for large |h|.
        return float(np.logaddexp(math.log1p(-self.p), math.log(self.p) + h))

    def log_mgf_derivatives(self, h: float) -> tuple[float, float]:
        if self.p in (0.0, 1.0):
            return self.p, 0.0
        # Tilted Bernoulli success probability.
        q = 1.0 / (1.0 + math.exp(-h) * (1.0 - self.p) / self.p)
        return q, q * (1.0 - q)

    def to_dict(self) -> dict:
        d = {"type": "bernoulli", "p": self.p}
        if self.proxy is not None:
            d["variance_proxy"] = self.proxy
        return d


@dataclass(frozen=True)
class FiniteDiscrete:
    support: tuple
    probs: tuple
    proxy: Optional[float] = None

    def __init__(self, support: Sequence[float], probs: Sequence[float], proxy: Optional[float] = None):
        support = tuple(float(x) for x in support)
        probs = tuple(float(p) for p in probs)
        if len(support) == 0 or len(support) != len(probs):
            raise ValueError("support and probs must be nonempty and equal-length")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(p < 0 for p in probs):
            raise ValueError("probs must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probs must sum to 1, got {sum(probs)}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "proxy", proxy)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot(self.probs, (np.asarray(self.support) - mu) ** 2))

    def variance_proxy(self) -> float:
        if self.proxy is not None:
            return self.proxy
        return (self.support[-1] - self.support[0]) ** 2 / 4.0

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.support), np.array(self.probs)

    def sample(self, rng: np.random.Generator, size=None):
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        u = rng.random(size if size is not None else 1)
        idx = np.searchsorted(cum, u, side="right")
        out = np.asarray(self.support)[np.minimum(idx, len(self.support) - 1)]
        return float(out[0]) if size is None else out

    def log_mgf(self, h: float) -> float:
        if h == 0.0:
            return 0.0
        x = np.asarray(self.support)
        logp = np.log(np.maximum(self.probs, 1e-300))
        return float(logsumexp(h * x + logp))

    def log_mgf_derivatives(self, h: float) -> tuple[float, float]:
        x = np.asarray(self.support)
        logw = h * x + np.log(np.maximum(self.probs, 1e-300))
        logw -= logsumexp(logw)
        w = np.exp(logw)
        d1 = float(np.dot(w, x))
        d2 = float(np.dot(w, x * x) - d1 * d1)
        return d1, max(d2, 0.0)

    def to_dict(self) -> dict:
        d = {"type": "discrete", "support": list(self.support), "probs": list(self.probs)}
        if self.proxy is not None:
            d["variance_proxy"] = self.proxy
        return d


RewardDistribution = Union[Gaussian, Bernoulli, FiniteDiscrete]


def from_dict(d: dict) -> RewardDistribution:
    """Parse the tagged-record form used by config files."""
    kind = d.get("type")
    proxy = d.get("variance_proxy")
    if kind == "gaussian":
        return Gaussian(float(d["mean"]), float(d["variance"]), proxy)
    if kind == "bernoulli":
        return Bernoulli(float(d["p"]), proxy)
    if kind == "discrete":
        return FiniteDiscrete(d["support"], d["probs"], proxy)
    raise ValueError(f"unknown distribution type: {kind!r}")

