"""An independent reference for the choices of ETC, UCB and greedy.

A plain per-experiment loop, written from the rules the ``policies``
docstring states and sharing no code with ``select_batch``:

* ETC: m pulls of each arm in turn, lowest arm first, then commit to the
  best mean of those pulls;
* UCB: an unpulled arm first (the lowest), then the largest
  mean + sqrt(log t / n_k);
* epsilon-greedy with epsilon = 0: the largest mean, 0 for an unpulled arm;

ties to the lowest arm.  Fed each round the reward the log holds, it must
play every arm that ``run_batch`` logged.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandit_debias.policies import EgSpec, EtcSpec, UcbSpec
from bandit_debias.simulator import BanditLog, PolicyMismatch, check_policy, run_batch
from bandit_debias.streams import substream


class ScriptedWorld:
    """A world that hands out a fixed table: row i's reward in round t from
    arm k is table[i, t, k]."""

    def __init__(self, table: np.ndarray):
        self.table, self.round = table, 0

    def __len__(self) -> int:
        return self.table.shape[2]

    def draw(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rewards = self.table[np.arange(len(cells)), self.round, cells]
        self.round += 1
        return rewards


def reference_arms(spec, actions, rewards, K: int) -> list:
    """The arm the policy plays each round of one log, fed the log's own
    actions and rewards as its history."""
    counts, sums, played = [0] * K, [0.0] * K, []
    for t, (action, reward) in enumerate(zip(actions, rewards), start=1):
        if isinstance(spec, EtcSpec):
            if t == spec.m * K + 1:  # every arm has had its m pulls: commit for good
                committed = max(range(K), key=lambda k: sums[k] / spec.m)
            arm = (t - 1) // spec.m if t <= spec.m * K else committed
        elif isinstance(spec, UcbSpec):
            unpulled = [k for k in range(K) if counts[k] == 0]
            log_t = float(np.log(t))  # numpy's log, as the policy takes it
            arm = unpulled[0] if unpulled else max(range(K), key=lambda k: sums[k] / counts[k] + math.sqrt(log_t / counts[k]))
        else:
            arm = max(range(K), key=lambda k: sums[k] / counts[k] if counts[k] else 0.0)
        played.append(arm)  # max keeps the first, lowest, of tied arms
        counts[action] += 1
        sums[action] += reward
    return played


@st.composite
def reward_tables(draw):
    """(n, T, K) rewards: a tie-heavy lattice or arbitrary floats."""
    K = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    T = draw(st.integers(1, 40))
    value = draw(st.sampled_from([
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(-2, 2).map(float),
        st.floats(-10, 10, allow_nan=False),
    ]))
    return np.array(draw(st.lists(value, min_size=n * T * K, max_size=n * T * K))).reshape(n, T, K)


@st.composite
def cases(draw):
    """A policy the reference covers and an (n, T, K) reward table; ETC's m*K fits in T."""
    table = draw(reward_tables())
    _, T, K = table.shape
    etc = [st.integers(1, T // K).map(EtcSpec)] if T >= K else []
    return draw(st.one_of(st.sampled_from([UcbSpec(), EgSpec(0.0)]), *etc)), table


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_reference_replays_the_logged_arms(case):
    spec, table = case
    n, T, K = table.shape
    out = run_batch(n, K, T, spec, ScriptedWorld(table), substream(1), record_logs=True)
    assert np.array_equal(out.rewards, np.take_along_axis(table, out.actions[..., None], axis=2)[..., 0])
    for actions, rewards in zip(out.actions, out.rewards):
        assert reference_arms(spec, actions, rewards, K) == actions.tolist()


@settings(max_examples=100, deadline=None)
@given(case=cases(), data=st.data())
def test_check_policy_rejects_a_flipped_log_where_the_reference_does(case, data):
    spec, table = case
    n, T, K = table.shape
    out = run_batch(1, K, T, spec, ScriptedWorld(table[:1]), substream(1), record_logs=True)
    actions, rewards = out.actions[0].copy(), out.rewards[0]
    if K > 1:
        t = data.draw(st.integers(0, T - 1))
        actions[t] = (actions[t] + data.draw(st.integers(1, K - 1))) % K
    expected = reference_arms(spec, actions, rewards, K)
    first = next((t for t in range(T) if expected[t] != actions[t]), None)
    log = BanditLog(K=K, T=T, actions=actions, rewards=rewards, policy=spec)
    if first is None:
        check_policy(log)
    else:
        with pytest.raises(PolicyMismatch, match=f"^round {first + 1}: "):
            check_policy(log)
