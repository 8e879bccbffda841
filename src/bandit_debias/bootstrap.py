"""Bootstrap-world reward sources built from an observed experiment log.

Two constructions, both held as per-arm arrays (see ``simulator``):

* Gaussian multiplier bootstrap (``mb``): arm k resamples as
  N(sample mean, MLE sample variance).  With Gaussian multiplier weights
  the weighted-recombination form collapses exactly to that normal law, so
  the world is a ``LawWorld`` of one Gaussian per arm: mean and standard
  deviation vectors, one normal draw per pull.  A zero-variance arm
  replays its mean.
* Efron's bootstrap (``efron``): each draw is a uniform pick, with
  replacement, from the arm's observed rewards.  The world is a
  ``ResampleWorld``: the log's rewards grouped by arm, drawn by one uniform
  index into the chosen arm's slice.  Draws are per-pull i.i.d. resamples,
  so a replay may pull an arm more often than the real log did.

Either world promises only the arm's bootstrap law: replay row i takes the
i-th draw of each round, and ``draw_sum`` gives the sum of j such draws at
once, for ETC replays.  The mb world also draws their centred sum of
squares; the Efron world returns NaN in its place, since ``debias`` reads
the sums alone.  A stack of logs gives one world with a leading
log axis, one bootstrap law per (log, arm).  Worlds pickle, so ``debias``
can ship them to pool workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Gaussian
from .simulator import ArmSummary, BanditLog, LawWorld, ResampleWorld, World

MULTIPLIER_GAUSSIAN = "mb"
EFRON = "efron"


class ZeroCountArm(Exception):
    """Bootstrap distribution undefined: the named arm was never pulled."""

    def __init__(self, arm: int):
        self.arm = arm
        super().__init__(f"arm {arm + 1} has zero pulls; bootstrap world undefined")


@dataclass(frozen=True)
class BootstrapSpec:
    kind: str
    B: int

    def __post_init__(self):
        if self.kind not in (MULTIPLIER_GAUSSIAN, EFRON):
            raise ValueError(f"bootstrap kind must be 'mb' or 'efron', got {self.kind!r}")
        if self.B < 1:
            raise ValueError("B must be >= 1")


def build_world(summary: ArmSummary, log: BanditLog, spec: BootstrapSpec) -> World:
    """Per-arm unlimited i.i.d. reward source for bootstrap replays of a log or a stack.

    Raises ZeroCountArm for an arm some log never pulled, and OverflowError
    for an arm whose rewards' squared deviations overflow: neither the mb
    world nor any bootstrap standard error is finite then.
    """
    for arm in summary.zero_count_arms:
        raise ZeroCountArm(arm)
    overflow = np.argwhere(~np.isfinite(summary.variances))
    if overflow.size:
        raise OverflowError(f"arm {overflow[0][-1] + 1} has a non-finite MLE variance; its rewards are too large")
    if spec.kind == MULTIPLIER_GAUSSIAN:
        # One Gaussian per (log, arm), in the summary's shape.
        return LawWorld(np.frompyfunc(Gaussian, 2, 1)(summary.means, summary.variances))
    return ResampleWorld(log.actions, log.rewards, log.K)
