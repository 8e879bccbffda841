"""Baseline and comparison estimators: sample mean, IPW, AIPW.

IPW and AIPW require conditional propensity scores, which exist only for
internally randomized policies (epsilon-greedy, Thompson sampling).  Both
use uniform 1/T round weights:

    IPW_k  = (1/T) sum_t 1{a_t=k} r_t / e_t(k)
    AIPW_k = (1/T) sum_t [ mhat_t(k) + 1{a_t=k} (r_t - mhat_t(k)) / e_t(k) ]

where mhat_t(k) is arm k's running sample mean over rounds < t (0 before
its first pull), so the augmentation term is measurable with respect to
the history and unbiasedness is preserved under adaptive collection.

Propensities and plug-in means come from the logs' prefix states
(``policies.prefix_state``), so they use only the history and match what the
policy saw at run time.  Each estimator has one kernel over stacked logs;
the per-log functions wrap it.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import policies
from .simulator import BanditLog, json_floats, summarize

NAMES = ("mean", "ipw", "aipw")  # the estimators a plan cell or `evaluate` may name


class DivisionHazard(Exception):
    """Zero propensity on a chosen arm; the IPW weight is undefined."""

    def __init__(self, t: int, arm: int):
        self.t = t
        self.arm = arm
        super().__init__(f"propensity of chosen arm {arm + 1} at round {t + 1} is zero")


def propensity_trace(log: BanditLog) -> Optional[np.ndarray]:
    """Per-round per-arm e_t(k), shape (T, K); None if the policy is non-randomized."""
    props = policies.propensity(log.policy, log.actions[None, :], log.rewards[None, :], log.K)
    return None if props is None else props[0]


def plugin_mean_trace(log: BanditLog) -> np.ndarray:
    """Running per-arm means using only strictly earlier rounds; 0 before first pull."""
    return policies.prefix_state(log.actions[None, :], log.rewards[None, :], log.K).means()


def division_hazards(actions: np.ndarray, props: np.ndarray) -> np.ndarray:
    """Mask (n,) of stacked logs with a zero propensity on some chosen arm."""
    return (np.take_along_axis(props, actions[:, :, None], axis=2) == 0.0).any(axis=(1, 2))


def _chosen_propensities(actions: np.ndarray, props: np.ndarray) -> np.ndarray:
    """e_t(a_t) per log and round, (n, T); raises DivisionHazard on a zero."""
    chosen_p = np.take_along_axis(props, actions[:, :, None], axis=2)[:, :, 0]
    bad = np.argwhere(chosen_p == 0.0)
    if bad.size:
        i, t = bad[0]
        raise DivisionHazard(int(t), int(actions[i, t]))
    return chosen_p


def ipw_batch(actions: np.ndarray, rewards: np.ndarray, props: np.ndarray) -> np.ndarray:
    """IPW estimates per arm of stacked logs (n, T) with props (n, T, K); returns (n, K)."""
    T, K = props.shape[1:]
    chosen_p = _chosen_propensities(actions, props)
    contrib = (rewards / chosen_p)[:, :, None] * (actions[:, :, None] == np.arange(K))
    return contrib.sum(axis=1) / T


def aipw_batch(actions: np.ndarray, rewards: np.ndarray, props: np.ndarray) -> np.ndarray:
    """AIPW estimates per arm of stacked logs, plug-in means from the strict past; (n, K)."""
    n, T, K = props.shape
    chosen_p = _chosen_propensities(actions, props)
    mhat = policies.prefix_state(actions, rewards, K).means().reshape(n, T, K)
    onehot = actions[:, :, None] == np.arange(K)
    correction = onehot * ((rewards - np.where(onehot, mhat, 0.0).sum(axis=2)) / chosen_p)[:, :, None]
    return (mhat + correction).sum(axis=1) / T


def ipw_estimate(log: BanditLog, propensities: np.ndarray) -> np.ndarray:
    return ipw_batch(log.actions[None, :], log.rewards[None, :], np.asarray(propensities)[None])[0]


def aipw_estimate(log: BanditLog, propensities: np.ndarray) -> np.ndarray:
    return aipw_batch(log.actions[None, :], log.rewards[None, :], np.asarray(propensities)[None])[0]


def evaluate(log: BanditLog, estimators=NAMES) -> dict:
    """Estimate set for one log; IPW/AIPW keys present iff propensities exist."""
    out: dict = {}
    if "mean" in estimators:
        out["mean"] = json_floats(summarize(log).means)  # null for an unpulled arm
    needs_props = {"ipw", "aipw"} & set(estimators)
    if needs_props:
        props = propensity_trace(log)
        if props is None:
            out["propensities_defined"] = False
        else:
            out["propensities_defined"] = True
            if "ipw" in estimators:
                out["ipw"] = ipw_estimate(log, props).tolist()
            if "aipw" in estimators:
                out["aipw"] = aipw_estimate(log, props).tolist()
    return out
