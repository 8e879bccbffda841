"""Reward laws: sampling, moments, atoms and log-moment-generating-function access.

Three families are supported: Gaussian, Bernoulli and finite discrete.  All
are sub-Gaussian, so the cumulant machinery used by the large-deviation
oracles is finite everywhere.  ``atoms()`` gives a law's finite support as
``(support, probs)`` arrays, or None for a continuous Gaussian; the support
is the atoms of positive probability only, and the theory oracles read
lattice facts from it rather than from the law's class.  A finite law draws
by inverse survival (``survival_table``), by ``sample`` or in a world.  Each
law gives its cumulants only in its own centred coordinate,
``centred_log_mgf``, so that a law far from the origin loses no digits to its
offset; log E[exp(h X)] is h * mean() plus its first value.
Instances are immutable and safe to share across workers; generators are
single-owner.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .policies import json_float, json_list, json_optional, json_str, json_tag, read_record


def _finite(what: str, *values) -> None:
    """Reject a NaN or infinite parameter: it would sample NaN rewards, not fail."""
    for value in values:
        if value is not None and not math.isfinite(float(value)):
            raise ValueError(f"{what} must be finite, got {value}")


def _positive(support: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of positive probability: a zero-probability point is not support."""
    keep = probs > 0
    return support[keep], probs[keep]


def survival_table(atoms: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atoms top down, their probabilities and upper tails (the last 1): u draws the atom of the first tail above u."""
    support, probs = atoms
    return support[::-1], probs[::-1], np.append(np.cumsum(probs[:0:-1]), 1.0)


def _sample_atoms(law, rng: np.random.Generator, size=None):
    """``sample`` of a finite law: one uniform per draw, by inverse survival."""
    top_down, _, tails = survival_table(law.atoms())
    drawn = top_down[np.searchsorted(tails, rng.random(size), side="right")]
    return drawn if size is not None else float(drawn)


class _Law:
    """Each law defines ``centred_log_mgf(h)``: eta_c(h) = log E[exp(h (X - mean))] and its first two derivatives."""

    def to_dict(self) -> dict:
        """The tagged record that ``from_dict`` reads: the fields in order, under their record keys."""
        kind = next(kind for kind, (law, _) in _RECORDS.items() if law is type(self))
        values = [list(v) if isinstance(v, tuple) else v for v in (getattr(self, f.name) for f in fields(self))]
        keys = (*_RECORDS[kind][1], "variance_proxy")
        return {"type": kind, **{key: v for key, v in zip(keys, values) if v is not None}}


@dataclass(frozen=True)
class Gaussian(_Law):
    mu: float
    var: float
    proxy: Optional[float] = None  # sub-Gaussian variance proxy override

    def __post_init__(self):
        _finite("Gaussian mean, variance and variance_proxy", self.mu, self.var, self.proxy)
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

    def centred_log_mgf(self, h: float) -> tuple[float, float, float]:
        return 0.5 * self.var * h * h, self.var * h, self.var


@dataclass(frozen=True)
class Bernoulli(_Law):
    p: float
    proxy: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Bernoulli p must be in [0, 1], got {self.p}")
        _finite("variance_proxy", self.proxy)

    def mean(self) -> float:
        return self.p

    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    def variance_proxy(self) -> float:
        # Hoeffding proxy for a law on [0, 1].
        return 0.25 if self.proxy is None else self.proxy

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return _positive(np.array([0.0, 1.0]), np.array([1.0 - self.p, self.p]))

    sample = _sample_atoms

    def centred_log_mgf(self, h: float) -> tuple[float, float, float]:
        p = self.p
        if p in (0.0, 1.0):
            return 0.0, 0.0, 0.0
        # t is the tilted law's log-odds: q = 1/(1 + e^-t), and
        # log(1-p + p e^h) = log(1-p) + log(1 + e^t), each side of t = 0
        # written so that no exponential overflows.
        t = h + math.log(p) - math.log1p(-p)
        e = math.exp(-abs(t))
        q = 1.0 / (1.0 + e) if t >= 0 else e / (1.0 + e)
        eta = math.log1p(-p) + max(t, 0.0) + math.log1p(e) - p * h
        return eta, q - p, q * (1.0 - q)


@dataclass(frozen=True)
class FiniteDiscrete(_Law):
    support: tuple
    probs: tuple
    proxy: Optional[float] = None

    def __init__(self, support: Sequence[float], probs: Sequence[float], proxy: Optional[float] = None):
        support = tuple(float(x) for x in support)
        probs = tuple(float(p) for p in probs)
        if len(support) == 0 or len(support) != len(probs):
            raise ValueError("support and probs must be nonempty and equal-length")
        _finite("support points, probs and variance_proxy", *support, *probs, proxy)
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
        support = self.atoms()[0]
        return (support[-1] - support[0]) ** 2 / 4.0

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return _positive(np.array(self.support), np.array(self.probs))

    sample = _sample_atoms

    @cached_property
    def _centred(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms less the mean, and their log probabilities."""
        support, probs = self.atoms()
        return support - self.mean(), np.log(probs)

    def centred_log_mgf(self, h: float) -> tuple[float, float, float]:
        x, logp = self._centred
        # The tilted log-weights, shifted by the largest so that no exp overflows.
        a = h * x + logp
        top = a.argmax()
        w = np.exp(a - a[top])
        total = w.sum()
        w /= total
        # Deviations from that heaviest atom: under a steep tilt the tilted
        # mean sits next to it, and x - mean would cancel.
        u = x - x[top]
        shift = float(np.dot(w, u))
        return float(a[top] + math.log(total)), float(x[top]) + shift, float(np.dot(w, np.square(u - shift)))


RewardDistribution = Union[Gaussian, Bernoulli, FiniteDiscrete]


_RECORDS = {
    "gaussian": (Gaussian, {"mean": json_float, "variance": json_float}),
    "bernoulli": (Bernoulli, {"p": json_float}),
    "discrete": (FiniteDiscrete, {"support": json_list(json_float), "probs": json_list(json_float)}),
}


def from_dict(d: dict) -> RewardDistribution:
    """Parse the tagged-record form used by config files."""
    law, params = json_tag(d, "type", _RECORDS)
    parsers = {"type": json_str, **params, "variance_proxy": json_optional(json_float)}
    record = read_record(d, parsers, {"variance_proxy": None})
    return law(*(record[key] for key in params), d.get("variance_proxy"))  # as written: an int stays an int
