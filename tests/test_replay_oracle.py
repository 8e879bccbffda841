"""An exact oracle for replays of every policy on two-arm lattice worlds.

When both arms' rewards lie on one lattice {0, h, 2h, ...}, a run's state
after t rounds is (n1, s1, s2): arm 1's pulls and each arm's reward total in
lattice steps, with n2 = t - n1.  Dynamic programming over rounds gives the
exact law of the terminal state.  All live states sit in one
``BatchPolicyState`` per round; the policy's choice probabilities come from
``select_batch`` (UCB and ETC, which draw nothing) or ``propensity_batch``
(TS, EG), and equal states merge by ``np.unique``.  The choice rule is the
code under test's own, so the oracle checks what lies downstream of it:

* ``run_batch``'s world draws, state updates and per-arm summary, on a
  Bernoulli and a three-atom world;
* ``debias --bootstrap efron`` on 0/1 logs.  A 0/1 log's Efron world is the
  pair of Bernoulli laws at the log's own means, so the oracle there gives
  each arm's bias at B = infinity and its zero-pull probability; ETC replays
  take ``run_batch``'s sufficient-statistic path, which the oracle steps
  round by round.  A stack of such logs must give the same report at one
  and two workers, and each of its rows must pass the same check.
"""
import json
import pickle

import numpy as np
import pytest

from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.cli import dispatch
from bandit_debias.debias import debias
from bandit_debias.distributions import Bernoulli, FiniteDiscrete
from bandit_debias.policies import (
    BatchPolicyState, EgSpec, EtcSpec, TsSpec, UcbSpec, propensity_batch, select_batch,
)
from bandit_debias.simulator import BanditLog, LawWorld, run_batch, run_experiment, save_log
from bandit_debias.streams import substream

BERNOULLI = [Bernoulli(0.3), Bernoulli(0.6)]
THREE_ATOM = [FiniteDiscrete([0, 0.5, 1], [0.5, 0.2, 0.3]), FiniteDiscrete([0, 0.5, 1], [0.2, 0.3, 0.5])]
SPECS = {"ucb": UcbSpec(), "ts": TsSpec(), "eg": EgSpec(0.1), "etc": EtcSpec(3)}
LOG_T, B = 20, 20_000


def terminal_law(spec, laws, T, step=1.0):
    """The terminal states' (n1, sum1, sum2) columns and their probabilities, for
    laws whose atoms are multiples of ``step``."""
    arms = []
    for law in laws:
        support, probs = law.atoms()
        steps = np.rint(support / step).astype(np.int64)
        assert np.array_equal(steps * step, support) and steps.min() >= 0
        arms.append((steps, probs))
    base = T * max(int(steps.max()) for steps, _ in arms) + 1  # one more than the largest total
    n1 = s1 = s2 = np.zeros(1, dtype=np.int64)
    prob = np.ones(1)
    for t in range(T):
        counts = np.column_stack([n1, t - n1]).astype(np.float64)
        state = BatchPolicyState(2, len(prob), t + 1, counts, np.column_stack([s1, s2]) * step)
        if spec.randomized:
            choice = propensity_batch(spec, state)
        else:
            choice = np.eye(2)[select_batch(spec, state, substream(0))]
        children = [(n1 + (k == 0), s1 + r * (k == 0), s2 + r * (k == 1), prob * choice[:, k] * p)
                    for k in (0, 1) for r, p in zip(*arms[k])]
        n1, s1, s2, prob = (np.concatenate(part) for part in zip(*children))
        live = prob > 0
        key = (n1[live] * base + s1[live]) * base + s2[live]
        _, where, inverse = np.unique(key, return_index=True, return_inverse=True)
        n1, s1, s2 = (x[live][where] for x in (n1, s1, s2))
        prob = np.bincount(inverse, weights=prob[live])
    return n1, s1 * step, s2 * step, prob


def arm_moments(spec, laws, T, step=1.0):
    """Per arm, (P(n_k = 0), E[mean_k | n_k > 0], Var[mean_k | n_k > 0]) under the terminal law."""
    n1, sum1, sum2, prob = terminal_law(spec, laws, T, step)
    assert prob.sum() == pytest.approx(1.0, abs=1e-12)
    moments = []
    for pulls, total in [(n1, sum1), (T - n1, sum2)]:
        pulled = pulls > 0
        p_zero = prob[~pulled].sum()
        mean = np.divide(total, pulls, out=np.zeros(len(pulls)), where=pulled)
        exact = prob[pulled] @ mean[pulled] / (1 - p_zero)
        moments.append((p_zero, exact, prob[pulled] @ (mean[pulled] - exact) ** 2 / (1 - p_zero)))
    return moments


def assert_zero_pulls(zeros, rows, p_zero, what):
    """Zero-pull runs within 4 SE, plus one run where a rare event is nearly
    Poisson; none at all where the oracle has none."""
    expected = rows * p_zero
    assert abs(zeros - expected) <= 4 * np.sqrt(expected * (1 - p_zero)) + (p_zero > 0), (what, zeros, expected)


def assert_matches_the_oracle(spec, raw, bias, se, zeros):
    """One log's Efron report (B replays) against the oracle at the log's own means."""
    assert np.all((0 < raw) & (raw < 1)), raw  # both arms random, so every SE is positive
    for k, (p_zero, exact, _) in enumerate(arm_moments(spec, [Bernoulli(q) for q in raw], LOG_T)):
        assert abs(bias[k] - (exact - raw[k])) <= 4 * se[k], (k, bias[k], exact - raw[k], se[k])
        assert_zero_pulls(zeros[k], B, p_zero, k)


@pytest.mark.parametrize("spec, laws, T, step, rows", [
    *[(spec, BERNOULLI, 30, 1.0, 200_000) for spec in (UcbSpec(), TsSpec(), EgSpec(0.1))],
    *[(spec, THREE_ATOM, 20, 0.5, 100_000) for spec in (UcbSpec(), TsSpec(), EgSpec(0.1))],
], ids=["ucb", "ts", "eg", "ucb-three-atom", "ts-three-atom", "eg-three-atom"])
def test_run_batch_matches_the_exact_terminal_law(spec, laws, T, step, rows):
    out = run_batch(rows, 2, T, spec, LawWorld(laws), substream(34))
    for k, (p_zero, exact, spread) in enumerate(arm_moments(spec, laws, T, step)):
        seen = out.counts[:, k] > 0
        z_mean = (out.means[seen, k].mean() - exact) / np.sqrt(spread / seen.sum())
        assert abs(z_mean) <= 4, (k, z_mean)
        assert_zero_pulls(rows - seen.sum(), rows, p_zero, k)


@pytest.mark.parametrize("name", SPECS)
def test_efron_debias_matches_the_oracle(name, tmp_path):
    path = str(tmp_path / "log.csv")
    save_log(run_experiment(2, LOG_T, SPECS[name], BERNOULLI, seed=36), path)
    out = tmp_path / "report.json"
    argv = ["debias", "--log", path, "--meta", path + ".meta.json", "--bootstrap", "efron", "--B", str(B)]
    assert dispatch([*argv, "--seed", "41", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["B"] == B
    fields = ("raw_mean", "estimated_bias", "bootstrap_se", "zero_pull_replays")
    assert_matches_the_oracle(SPECS[name], *(np.array(report[field]) for field in fields))


@pytest.mark.parametrize("name", SPECS)
def test_efron_debias_of_a_stack_matches_the_oracle_at_one_and_two_workers(name):
    logs = [run_experiment(2, LOG_T, SPECS[name], BERNOULLI, seed=seed) for seed in (40, 52, 53)]
    stack = BanditLog(K=2, T=LOG_T, actions=np.stack([log.actions for log in logs]),
                      rewards=np.stack([log.rewards for log in logs]), policy=SPECS[name])
    reports = [debias(stack, BootstrapSpec("efron", B), seed=42, workers=workers) for workers in (1, 2)]
    assert pickle.dumps(reports[0]) == pickle.dumps(reports[1])
    report = reports[0]
    for row in zip(report.raw_means, report.estimated_bias, report.bootstrap_se, report.zero_pull_replays):
        assert_matches_the_oracle(SPECS[name], *row)
