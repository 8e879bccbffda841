"""An exact oracle for UCB, TS and epsilon-greedy runs on a two-arm Bernoulli world.

On 0/1 rewards a run's state after t rounds is (n1, s1, s2): arm 1's pulls
and each arm's reward total, with n2 = t - n1.  Dynamic programming over
rounds gives the exact law of the terminal state.  All live states sit in
one ``BatchPolicyState`` per round; the policy's choice probabilities come
from ``select_batch`` (UCB, which draws nothing) or ``propensity_batch``
(TS, EG), and equal states merge by ``np.unique``.  The choice rule is the
code under test's own, so the oracle checks what lies downstream of it in
``run_batch``: the world's draws, the state updates and the per-arm
summary.
"""
import numpy as np
import pytest

from bandit_debias.distributions import Bernoulli
from bandit_debias.policies import BatchPolicyState, EgSpec, TsSpec, UcbSpec, propensity_batch, select_batch
from bandit_debias.simulator import LawWorld, run_batch
from bandit_debias.streams import substream

Q, T = (0.3, 0.6), 30


def terminal_law(spec, q, T):
    """The terminal states' (n1, s1, s2) columns and their probabilities."""
    n1 = s1 = s2 = np.zeros(1, dtype=np.int64)
    prob = np.ones(1)
    for t in range(T):
        counts = np.column_stack([n1, t - n1]).astype(np.float64)
        state = BatchPolicyState(2, len(prob), t + 1, counts, np.column_stack([s1, s2]).astype(np.float64))
        if spec.randomized:
            choice = propensity_batch(spec, state)
        else:
            choice = np.eye(2)[select_batch(spec, state, substream(0))]
        children = [(n1 + (k == 0), s1 + r * (k == 0), s2 + r * (k == 1), prob * choice[:, k] * (q[k] if r else 1 - q[k]))
                    for k in (0, 1) for r in (0, 1)]
        n1, s1, s2, prob = (np.concatenate(part) for part in zip(*children))
        live = prob > 0
        key = (n1[live] * (T + 1) + s1[live]) * (T + 1) + s2[live]
        _, where, inverse = np.unique(key, return_index=True, return_inverse=True)
        n1, s1, s2 = (x[live][where] for x in (n1, s1, s2))
        prob = np.bincount(inverse, weights=prob[live])
    return n1, s1, s2, prob


@pytest.mark.parametrize("spec", [UcbSpec(), TsSpec(), EgSpec(0.1)], ids=["ucb", "ts", "eg"])
def test_run_batch_matches_the_exact_terminal_law(spec):
    n1, s1, s2, prob = terminal_law(spec, Q, T)
    assert prob.sum() == pytest.approx(1.0, abs=1e-12)
    rows = 200_000
    out = run_batch(rows, 2, T, spec, LawWorld([Bernoulli(q) for q in Q]), substream(34))
    for k, (pulls, total) in enumerate([(n1, s1), (T - n1, s2)]):
        pulled = pulls > 0
        p_zero = prob[~pulled].sum()
        mean = np.divide(total, pulls, out=np.zeros(len(pulls)), where=pulled)
        exact = prob[pulled] @ mean[pulled] / (1 - p_zero)
        spread = prob[pulled] @ (mean[pulled] - exact) ** 2 / (1 - p_zero)
        seen = out.counts[:, k] > 0
        z_mean = (out.means[seen, k].mean() - exact) / np.sqrt(spread / seen.sum())
        assert abs(z_mean) <= 4, (k, z_mean)
        # Zero-pull replays within 4 SE, plus one replay where a rare event is
        # nearly Poisson; none at all where the oracle has none.
        zeros, expected = rows - seen.sum(), rows * p_zero
        assert abs(zeros - expected) <= 4 * np.sqrt(expected * (1 - p_zero)) + (p_zero > 0), (k, zeros, expected)
