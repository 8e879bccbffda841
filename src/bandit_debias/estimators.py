"""Baseline and comparison estimators: sample mean, IPW, AIPW.

IPW and AIPW require conditional propensity scores, which exist only for a
policy whose spec is ``randomized``: Thompson sampling, and epsilon-greedy
with epsilon > 0.  For any other policy they are not computed at all, and
``evaluate`` writes no IPW/AIPW keys.  Both use uniform 1/T round weights:

    IPW_k  = (1/T) sum_t 1{a_t=k} r_t / e_t(k)
    AIPW_k = (1/T) sum_t [ mhat_t(k) + 1{a_t=k} (r_t - mhat_t(k)) / e_t(k) ]

where mhat_t(k) is arm k's running sample mean over rounds < t (0 before
its first pull), so the augmentation term is measurable with respect to
the history and unbiasedness is preserved under adaptive collection.

Propensities and plug-in means come from the logs' prefix states
(``policies.prefix_blocks``), so they use only the history and match what the
policy saw at run time.  One walk over stacked logs, ``weighted_estimates``,
takes both from each block of rounds and computes every horizon, so it holds
no array that grows with T; ``plan`` and ``evaluate`` share it.  Every horizon's
sum is one running sum over rounds 1..h, added one round at a time, so a log
gets the same bits alone (``evaluate``) as in a stack of logs (``plan``).
"""
from __future__ import annotations

from dataclasses import replace
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
    """Per-round per-arm e_t(k), shape (T, K); None if the policy does not randomize."""
    props = policies.propensity(log.policy, log.actions[None, :], log.rewards[None, :], log.K)
    return None if props is None else props[0]


def plugin_mean_trace(log: BanditLog) -> np.ndarray:
    """Running per-arm means using only strictly earlier rounds; 0 before first pull."""
    return np.concatenate([s.means() for *_, s in policies.prefix_blocks(log.actions[None], log.rewards[None], log.K)])


def weighted_estimates(logs: BanditLog, names, horizons) -> tuple:
    """IPW/AIPW of stacked logs (n, T) at each horizon h.

    Returns each log's first round with a zero chosen-arm propensity (-1 if none) and
    {name: {h: (n, K)}} for the estimators ``names``, NaN on the logs with such a round.
    A policy that does not randomize, or ``names`` without ipw and aipw, gives all -1 and {}, with no walk.
    One walk of ``policies.prefix_blocks`` gives each block's propensities and AIPW's running
    means.  The per-round terms x come a block at a time, each block's first round taking the
    total of the rounds before it, and one running sum over each block's rounds gives every
    horizon: horizon h is ``(((0.0 + x_1) + x_2) + ... + x_h) / h``, so a log's bits depend on
    neither K, nor the logs stacked with it, nor the block size.
    """
    actions, rewards, K = logs.actions, logs.rewards, logs.K
    first_zero = np.full(len(actions), -1)
    tables = {name: {h: np.full((len(actions), K), np.nan) for h in horizons}
              for name in ("ipw", "aipw") if name in names and logs.policy.randomized}
    if not tables:
        return first_zero, tables
    totals = dict.fromkeys(tables, 0.0)
    for lo, hi, state in policies.prefix_blocks(actions, rewards, K):
        r = rewards[:, lo:hi]
        onehot = actions[:, lo:hi, None] == np.arange(K)
        p = policies.propensity_batch(logs.policy, state).reshape(onehot.shape)[onehot].reshape(r.shape)
        zero = p == 0.0
        first_zero = np.where((first_zero < 0) & zero.any(axis=1), lo + zero.argmax(axis=1), first_zero)
        p = np.where(zero, 1.0, p)  # a log with a zero is NaN at the end; meanwhile it divides by 1
        mhat = state.means().reshape(onehot.shape) if "aipw" in tables else None  # AIPW's running means
        for name, table in tables.items():
            x = ((r / p)[:, :, None] * onehot if name == "ipw" else
                 mhat + onehot * ((r - np.where(onehot, mhat, 0.0).sum(axis=2)) / p)[:, :, None])
            x[:, 0] += totals[name]
            np.cumsum(x, axis=1, out=x)  # an accumulate: one round at a time, whatever the layout
            for h in table.keys() & range(lo + 1, hi + 1):
                table[h][:] = x[:, h - lo - 1] / h
            totals[name] = x[:, -1]
    for estimate in (estimate for table in tables.values() for estimate in table.values()):
        estimate[first_zero >= 0] = np.nan
    return first_zero, tables


def _log_estimates(log: BanditLog, names) -> dict:
    """{name: (K,)} of one log at its horizon, {} if the policy does not randomize;
    raises DivisionHazard at its first zero chosen-arm propensity."""
    logs = replace(log, actions=log.actions[None], rewards=log.rewards[None])
    (t,), tables = weighted_estimates(logs, names, (log.T,))  # t: the one log's first zero round, or -1
    if t >= 0:
        raise DivisionHazard(int(t), int(log.actions[t]))
    return {name: table[log.T][0] for name, table in tables.items()}


def _one_estimate(log: BanditLog, name: str) -> np.ndarray:
    if not log.policy.randomized:
        raise ValueError(f"{log.policy!r} does not randomize, so its log has no propensities for {name.upper()}")
    return _log_estimates(log, (name,))[name]


def ipw_estimate(log: BanditLog) -> np.ndarray:
    return _one_estimate(log, "ipw")


def aipw_estimate(log: BanditLog) -> np.ndarray:
    return _one_estimate(log, "aipw")


def evaluate(log: BanditLog, estimators=NAMES) -> dict:
    """Estimate set for one log; IPW/AIPW keys present iff the policy randomizes.

    Raises DivisionHazard for a zero propensity on a chosen arm, and
    OverflowError, naming the arm, when finite rewards overflow an estimate.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below, with no warning
        summary = summarize(log)
        estimates = _log_estimates(log, estimators)
    out: dict = {"mean": json_floats(summary.means)} if "mean" in estimators else {}  # null for an unpulled arm
    if {"ipw", "aipw"} & set(estimators):
        out["propensities_defined"] = log.policy.randomized
    out.update((name, v.tolist()) for name, v in estimates.items())
    for v in ([summary.means] if "mean" in out else []) + list(estimates.values()):
        overflow = np.flatnonzero((summary.counts > 0) & ~np.isfinite(v))
        if overflow.size:
            raise OverflowError(f"arm {overflow[0] + 1} has a non-finite estimate; its rewards are too large")
    return out
