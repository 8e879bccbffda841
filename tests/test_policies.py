import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from bandit_debias import policies
from bandit_debias.distributions import Bernoulli, Gaussian
from bandit_debias.estimators import plugin_mean_trace, weighted_estimates
from bandit_debias.policies import (
    BatchPolicyState,
    EgSpec,
    EtcSpec,
    TsSpec,
    UcbSpec,
    propensity,
    propensity_batch,
    select_batch,
    spec_from_dict,
)
from bandit_debias.simulator import BanditLog, run_experiment
from bandit_debias.streams import substream


def play(moves, K=2):
    """Feed (arm, reward) pairs through a one-run batch state."""
    state = BatchPolicyState(K=K, n=1)
    for arm, reward in moves:
        pull(state, arm, reward)
    return state


def pull(state, arm, reward):
    state.update(np.array([arm]), np.array([reward]))


def one_block(actions, rewards, K):
    """The prefix state of stacked logs (n, T) as ``prefix_blocks`` gives it in one block: row i*T + t
    holds log i's counts and sums over rounds < t."""
    with mock.patch.object(policies, "_PREFIX_ROWS", actions.size):
        ((_, _, state),) = policies.prefix_blocks(actions, rewards, K)
    return state


def pick(spec, state, rng):
    return int(select_batch(spec, state, rng)[0])


def test_etc_commits_to_higher_mean():
    spec = EtcSpec(m=1)
    state = play([(0, 1.0), (1, 0.0)])
    rng = substream(0)
    for _ in range(5):
        arm = pick(spec, state, rng)
        assert arm == 0
        pull(state, arm, 1.0)


def test_etc_exploration_schedule():
    spec = EtcSpec(m=3)
    state = BatchPolicyState(K=2, n=1)
    rng = substream(0)
    seen = []
    for t in range(1, 7):
        arm = pick(spec, state, rng)
        seen.append(arm + 1)
        pull(state, arm, 0.0)
    assert seen == [math.ceil(t / 3) for t in range(1, 7)]


def test_etc_choice_is_a_function_of_the_state():
    # After the commit round, ETC plays the arm pulled more than m times,
    # whatever the means say now, and selection writes nothing to the state.
    spec = EtcSpec(m=3)
    state = _state([[3, 5], [6, 3]], [[9.0, 0.0], [0.0, 9.0]])
    state.t = 9
    before = (state.counts.copy(), state.sums.copy(), state.t)
    for _ in range(2):
        assert select_batch(spec, state, substream(0)).tolist() == [1, 0]
    assert np.array_equal(state.counts, before[0]) and np.array_equal(state.sums, before[1])
    assert state.t == before[2]


def test_ucb_forced_round_robin():
    spec = UcbSpec()
    state = BatchPolicyState(K=3, n=1)
    rng = substream(0)
    for expected in (0, 1, 2):
        arm = pick(spec, state, rng)
        assert arm == expected
        pull(state, arm, 5.0)


def test_ucb_plays_an_unpulled_arm_past_round_K():
    # t is an int above K, yet row 0 never pulled arm 0: the unpulled arm
    # still goes first, with no divide-by-zero warning (warnings fail the suite).
    state = _state([[0, 8], [3, 5]], [[0.0, 80.0], [3.0, 0.0]])
    state.t = 9
    assert select_batch(UcbSpec(), state, substream(0)).tolist() == [0, 0]


def test_ucb_all_pulled_flag_reads_the_counts_not_t():
    # Rows stepped past round K, row 0 never on arm 1: a flag taken from t
    # would score that arm 0 / 0, and the NaN loses to arm 0.
    state = BatchPolicyState(K=3, n=2)
    for arms in ([0, 0], [2, 1], [0, 2], [2, 0]):
        state.update(np.array(arms), np.array([1.0, 0.5]))
    assert state.t == 5 > state.K and not state._every_arm_pulled()
    assert select_batch(UcbSpec(), state, substream(0)).tolist() == [1, 1]
    state.update(np.array([1, 1]), np.array([0.0, 0.0]))
    assert state._every_arm_pulled()


@st.composite
def lockstep_ucb_states(draw):
    """(counts, sums, t) of lockstep rows at round t, zero counts and exact ties included."""
    K = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    counts = np.array(draw(st.lists(st.integers(0, 12), min_size=n * K, max_size=n * K))).reshape(n, K)
    counts[:, 0] += counts.sum(axis=1).max() - counts.sum(axis=1)  # every row at the same round
    # Means on a coarse lattice: equal counts and means tie exactly.
    means = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n * K, max_size=n * K)))
    return counts, counts * means.reshape(n, K), int(counts[0].sum()) + 1


@settings(max_examples=200, deadline=None)
@given(lockstep_ucb_states())
def test_ucb_unmasked_score_matches_masked_path(case):
    """A lockstep state, int t, takes the unmasked score when every count is
    positive.  The masked path scores the same rows with t as a column, as
    a prefix state does, plus one row with an unpulled arm that forces the mask."""
    counts, sums, t = case
    n, K = counts.shape
    arms = select_batch(UcbSpec(), BatchPolicyState(K, n, t, counts.astype(float), sums), substream(0))
    hand_built = select_batch(UcbSpec(), BatchPolicyState(K, n, t, counts.copy(), sums), substream(0))
    masked = BatchPolicyState(K, n + 1, np.full((n + 1, 1), t),
                              np.vstack([counts, np.zeros(K)]), np.vstack([sums, np.zeros(K)]))
    assert np.array_equal(arms, select_batch(UcbSpec(), masked, substream(0))[:n])
    assert np.array_equal(arms, hand_built)  # int64 counts select the same arms


def test_update_counts_and_running_mean():
    state = play([(0, 1.0), (0, 3.0)])
    assert state.counts[0, 0] == 2
    assert state.sums[0, 0] / state.counts[0, 0] == 2.0
    assert state.t == 3  # round index after two pulls


def test_ts_conjugate_posterior():
    spec = TsSpec()  # prior N(0,1), likelihood variance 1
    state = play([(0, 2.0)])
    mean, var = policies._ts_posterior(spec, state)
    assert mean[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert var[0, 0] == pytest.approx(0.5, abs=1e-12)
    # unpulled arm keeps the prior
    assert mean[0, 1] == 0.0
    assert var[0, 1] == 1.0


# Rewards whose running sums reach +0.0 from both sides, and -0.0 itself.
SUM_REWARDS = st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.5, -1.5, 0.1, -0.1, 3.0, 1e-300])


@st.composite
def stepped_states(draw):
    """A state stepped by ``update`` from zero counts: integer counts, 0 included, and running sums."""
    K, n, rounds = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 8))
    state = BatchPolicyState(K=K, n=n)
    for _ in range(rounds):
        arms = draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n))
        state.update(np.array(arms), np.array(draw(st.lists(SUM_REWARDS, min_size=n, max_size=n))))
    return state


@pytest.mark.parametrize("spec", [TsSpec(), TsSpec(0.5, 1.0, 1.0), TsSpec(0.0, 1.0, 2.0)],
                         ids=["default", "prior-mean", "likelihood-variance"])
@settings(max_examples=100, deadline=None)
@given(state=stepped_states())
def test_ts_posterior_skips_are_bit_exact(spec, state):
    # The posterior skips a division by a unit likelihood variance and an
    # addition of a zero prior mean; both must give the full arithmetic's bits.
    before = state.counts.tobytes(), state.sums.tobytes()
    pm, pv = policies._ts_posterior(spec, state)
    lv = spec.likelihood_variance
    full_pv = 1.0 / (state.counts / lv + 1.0 / spec.prior_variance)
    full_pm = ((state.sums / lv) + spec.prior_mean / spec.prior_variance) * full_pv
    assert pv.tobytes() == full_pv.tobytes() and pm.tobytes() == full_pm.tobytes()
    assert (state.counts.tobytes(), state.sums.tobytes()) == before  # the state's arrays are not written


def test_means_match_the_guarded_division_across_the_all_pulled_flag():
    rng = substream(42)
    state, seen = BatchPolicyState(K=3, n=6), set()
    for _ in range(40):
        seen.add(state._every_arm_pulled())
        assert state.means().tobytes() == (state.sums / np.maximum(state.counts, 1)).tobytes()
        state.update(rng.integers(0, 3, 6), rng.standard_normal(6))
    assert seen == {False, True}
    hand_built = _state(state.counts, state.sums)  # int64 counts, every arm pulled
    assert hand_built._every_arm_pulled()
    assert hand_built.means().tobytes() == (hand_built.sums / np.maximum(hand_built.counts, 1)).tobytes()


def test_ts_posterior_variance_decreasing():
    spec = TsSpec()
    state = BatchPolicyState(K=1, n=1)
    last = np.inf
    for _ in range(5):
        pull(state, 0, 0.3)
        _, var = policies._ts_posterior(spec, state)
        assert var[0, 0] < last
        last = var[0, 0]


def test_eg_propensity_closed_form():
    spec = EgSpec(0.05)
    state = play([(0, 0.0), (1, 1.0)])  # greedy arm is 2
    probs = propensity_batch(spec, state)[0]
    assert probs[1] == pytest.approx(0.975, abs=1e-12)
    assert probs[0] == pytest.approx(0.025, abs=1e-12)


def test_ts_symmetric_propensity():
    probs = propensity_batch(TsSpec(), BatchPolicyState(K=2, n=1))[0]
    assert probs[0] == pytest.approx(0.5, abs=1e-9)
    assert probs[1] == pytest.approx(0.5, abs=1e-9)


def test_deterministic_policies_have_no_propensity(monkeypatch):
    state = play([(0, 1.0), (1, 0.0)])
    actions, rewards = np.array([[0, 1]]), np.array([[1.0, 0.0]])
    # The answer needs no prefix state, so no block of one is built.
    monkeypatch.setattr(policies, "prefix_blocks", None)
    for spec in (EtcSpec(1), UcbSpec()):
        assert propensity_batch(spec, state) is None
        assert propensity(spec, actions, rewards, 2) is None
        assert weighted_estimates(BanditLog(2, 2, actions, rewards, spec), ("ipw", "aipw"), (2,)) is None


@pytest.mark.parametrize("spec", [EgSpec(0.3), TsSpec()])
def test_propensities_sum_to_one(spec):
    state = play([(0, 1.0), (1, 0.4), (1, 0.9)])
    assert propensity_batch(spec, state)[0].sum() == pytest.approx(1.0, abs=1e-9)


def _replicated_batch(state, n):
    batch = BatchPolicyState(K=state.K, n=n)
    batch.counts[:] = state.counts
    batch.sums[:] = state.sums
    batch.t = state.t
    return batch


@pytest.mark.parametrize("spec", [EgSpec(0.05), EgSpec(0.4), TsSpec()])
def test_selection_frequency_matches_propensity(spec):
    """10^5 selections from a frozen state, 4 binomial SEs."""
    state = play([(0, 1.0), (1, 0.4), (0, 0.8), (1, 0.6)])
    n = 10**5
    batch = _replicated_batch(state, n)
    chosen = select_batch(spec, batch, substream(123))
    probs = propensity_batch(spec, state)[0]
    for k in range(2):
        p = probs[k]
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(chosen == k) - p) <= 4 * se


def _state(counts, sums):
    """A batch state whose rows hold the given per-arm counts and sums."""
    counts, sums = np.atleast_2d(counts), np.atleast_2d(sums)
    return BatchPolicyState(
        K=counts.shape[1], n=len(counts), counts=counts.astype(np.int64), sums=sums.astype(float),
    )


def _check_group_frequencies(spec, groups, n, seed):
    """One selection over n copies of each row of ``groups``: every arm's
    frequency in each row group within 4 binomial SEs of propensity_batch."""
    batch = _state(np.repeat(groups.counts, n, axis=0), np.repeat(groups.sums, n, axis=0))
    chosen = select_batch(spec, batch, substream(seed)).reshape(groups.n, n)
    for g, probs in enumerate(propensity_batch(spec, groups)):
        for k, p in enumerate(probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(chosen[g] == k) - p) <= 4 * se, (g, k, np.mean(chosen[g] == k), p)


def test_ts_two_arm_selection_law_on_mixed_rows():
    # Distinct posteriors in one batch, each row's one-normal choice checked
    # against its own closed form: a tie, small and large counts, a starved
    # arm 2 (posterior sd 1 against 0.03), and a gap of 16 posterior sds.
    groups = _state(
        [[0, 0], [3, 1], [50, 50], [200, 5], [998, 0], [500, 500]],
        [[0.0, 0.0], [2.4, 0.6], [30.0, 28.0], [120.0, 4.0], [499.0, 0.0], [500.0, 0.0]],
    )
    _check_group_frequencies(TsSpec(), groups, 20_000, seed=71)
    _check_group_frequencies(TsSpec(0.5, 2.0, 0.5), groups, 20_000, seed=72)


def test_ts_three_arm_selection_law():
    # K != 2 keeps one normal per arm and the row argmax.
    groups = _state([[0, 0, 0], [5, 2, 1], [998, 1, 1]], [[0.0, 0.0, 0.0], [3.0, 1.0, 0.2], [998.0, 0.8, 1.2]])
    _check_group_frequencies(TsSpec(), groups, 20_000, seed=73)


@pytest.mark.parametrize("epsilon", [0.05, 1.0])
def test_eg_three_arm_selection_law(epsilon):
    # One uniform per row: u < epsilon explores, and u / epsilon scaled to K
    # arms must reach every arm, greedy or not.
    groups = _state([[0, 0, 0], [2, 1, 1], [1, 3, 2]], [[0.0, 0.0, 0.0], [1.0, 0.9, 2.0], [0.5, 3.0, 1.0]])
    _check_group_frequencies(EgSpec(epsilon), groups, 20_000, seed=74)


def test_eg_without_exploration_plays_greedy_silently():
    state = _state([[0, 0, 0], [2, 1, 1], [1, 3, 2], [4, 4, 4]], [[0.0] * 3, [1.0, 0.9, 2.0], [0.5, 3.0, 1.0], [2.0] * 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chosen = select_batch(EgSpec(0.0), state, substream(75))
    assert chosen.tolist() == [0, 2, 1, 0]


def _quad_propensity(pm, sd):
    """P(arm k is the max) of independent normals by adaptive quadrature over x."""
    breaks = np.unique(pm[:, None] + sd[:, None] * np.array([-12.0, -6, -3, -1, 0, 1, 3, 6, 12]))

    def density(x, k):
        cdfs = special.ndtr((x - pm) / sd)
        others = np.prod(np.delete(cdfs, k))
        return math.exp(-0.5 * ((x - pm[k]) / sd[k]) ** 2) / (sd[k] * math.sqrt(2 * math.pi)) * others

    def mass(k):
        pieces = zip(breaks, breaks[1:])
        return sum(integrate.quad(density, a, b, args=(k,), epsabs=1e-12, epsrel=1e-10)[0] for a, b in pieces)

    return np.array([mass(k) for k in range(len(pm))])


def _check_against_quad(spec, state):
    probs = propensity_batch(spec, state)
    pm, pv = policies._ts_posterior(spec, state)
    for row, m, v in zip(probs, pm, pv):
        assert np.abs(row - _quad_propensity(m, np.sqrt(v))).max() < 1e-6
        assert abs(row.sum() - 1.0) < 1e-6
        assert np.all(row > 0)


def test_ts_three_arm_propensity_sums_to_one():
    # One arm pulled 998 times, two starved: posterior sds 0.032, 0.71, 0.71.
    # A narrow arm's CDF is a near-step that a single global rule cannot resolve.
    _check_against_quad(TsSpec(), _state([998, 1, 1], [998.0, 0.8, 1.2]))
    _check_against_quad(TsSpec(), play([(0, 1.0), (1, 0.4), (2, 0.9)], K=3))


def test_ts_propensity_matches_quad_with_starved_arms():
    rng = np.random.default_rng(8)
    for K in rng.integers(3, 6, size=20):
        counts = rng.integers(0, 1000, K)
        counts[rng.integers(K)] = rng.integers(0, 3)
        sums = counts * rng.uniform(0, 1, K) + rng.normal(0, 1, K)
        spec = TsSpec(rng.normal(), rng.uniform(0.5, 2), rng.uniform(0.5, 2))
        _check_against_quad(spec, _state(counts, sums))


def test_ts_quadrature_matches_two_arm_closed_form():
    rng = np.random.default_rng(9)
    state = _state(rng.integers(0, 500, (200, 2)), rng.normal(0, 30, (200, 2)))
    pm, pv = policies._ts_posterior(TsSpec(), state)
    closed_form = propensity_batch(TsSpec(), state)
    assert np.abs(policies._ts_quadrature(pm, np.sqrt(pv)) - closed_form).max() < 1e-10


def test_ts_one_arm_propensity_is_exactly_one():
    state = _state(np.arange(6)[:, None], np.linspace(-3, 3, 6)[:, None])
    assert np.all(propensity_batch(TsSpec(), state) == 1.0)


@settings(max_examples=50, deadline=None)
@given(
    shift=st.integers(-800, 800).map(lambda k: k / 8.0),
    rewards=st.lists(
        st.integers(-40, 40).map(lambda k: k / 8.0), min_size=4, max_size=4
    ),
)
def test_argmax_shift_invariance(shift, rewards):
    # Values on a dyadic grid keep every sum exactly representable, so the
    # invariance is exact. Arbitrary floats can break it through rounding,
    # e.g. a subnormal reward absorbed by a shift of 1.0 fabricates a tie.
    moves = [(0, rewards[0]), (1, rewards[1]), (0, rewards[2]), (1, rewards[3])]
    shifted = [(a, r + shift) for a, r in moves]
    s1, s2 = play(moves), play(shifted)
    etc = EtcSpec(2)
    rng = substream(0)
    assert pick(etc, s1, rng) == pick(etc, s2, rng)
    eg = EgSpec(0.0)
    assert pick(eg, s1, substream(1)) == pick(eg, s2, substream(1))


def step_by_step(spec, actions, rewards, K):
    """Reference trace: each log replayed round by round through a one-run state."""
    props, means = [], []
    for row_actions, row_rewards in zip(actions, rewards):
        state = BatchPolicyState(K=K, n=1)
        for arm, reward in zip(row_actions, row_rewards):
            props.append(propensity_batch(spec, state)[0])
            means.append(state.means()[0])
            pull(state, arm, reward)
    shape = actions.shape + (K,)
    return np.reshape(props, shape), np.reshape(means, shape)


@st.composite
def stacked_logs(draw):
    K = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    T = draw(st.integers(1, 25))
    actions = draw(st.lists(st.integers(0, K - 1), min_size=n * T, max_size=n * T))
    rewards = draw(st.lists(st.floats(-50, 50, allow_nan=False), min_size=n * T, max_size=n * T))
    return K, np.array(actions).reshape(n, T), np.array(rewards).reshape(n, T)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.one_of(
        st.floats(0, 1).map(EgSpec),
        st.builds(TsSpec, st.floats(-2, 2), st.floats(0.1, 4), st.floats(0.1, 4)),
    ),
    logs=stacked_logs(),
    rows=st.integers(1, 30),
)
def test_prefix_state_propensities_match_step_by_step(spec, logs, rows):
    # Exact equality, down to the sign of a zero: the prefix state adds
    # rewards in round order from +0.0, as the one-run state does, in one
    # block or carried across blocks, and each row's propensity depends on
    # that row alone.
    K, actions, rewards = logs
    n, T = actions.shape
    state = one_block(actions, rewards, K)
    assert np.array_equal(state.t, state.counts.sum(axis=1, keepdims=True) + 1)  # each row's own round
    with mock.patch.object(policies, "_PREFIX_ROWS", rows):
        blocks = list(policies.prefix_blocks(actions, rewards, K))
    assert [lo for lo, _, _ in blocks] == list(range(0, T, -(-rows // n)))
    for part in ("t", "counts", "sums"):
        walked = np.concatenate([getattr(b, part).reshape(n, hi - lo, -1) for lo, hi, b in blocks], axis=1)
        assert walked.tobytes() == getattr(state, part).tobytes()
    ref_props, ref_means = step_by_step(spec, actions, rewards, K)
    assert np.array_equal(propensity(spec, actions, rewards, K), ref_props)
    for i in range(len(actions)):
        log = BanditLog(K=K, T=actions.shape[1], actions=actions[i], rewards=rewards[i], policy=spec)
        assert plugin_mean_trace(log).tobytes() == ref_means[i].tobytes()


def test_spec_serialization_round_trip():
    for spec in (EtcSpec(10), UcbSpec(), TsSpec(0.0, 1.0, 1.0), EgSpec(0.05)):
        assert spec_from_dict(spec.to_dict()) == spec
    assert spec_from_dict({"name": "etc", "m": 10}) == EtcSpec(10)
    with pytest.raises((ValueError, KeyError)):
        spec_from_dict({"name": "softmax"})


def test_spec_validation():
    with pytest.raises(ValueError):
        EtcSpec(0)
    with pytest.raises(ValueError):
        EgSpec(1.5)
    with pytest.raises(ValueError):
        TsSpec(prior_variance=-1.0)


@pytest.mark.parametrize("spec", [TsSpec(), TsSpec(0.5, 2.0, 0.5), EgSpec(0.1)], ids=["ts", "ts-prior", "eg"])
@pytest.mark.parametrize("K", [2, 3])
def test_blocked_propensity_equals_one_shot(spec, K):
    # 3 logs x 100 rounds = 300 prefix-state rows.  At 64 rows a block holds ceil(64 / 3) = 22 rounds,
    # so the walk takes 5 blocks; the TS quadrature at K = 3 runs each in slices of at most 52 rows.
    rng = substream(40, K)
    actions = rng.integers(0, K, size=(3, 100))
    rewards = rng.standard_normal((3, 100))
    one_shot = propensity_batch(spec, one_block(actions, rewards, K)).reshape(3, 100, K)
    with mock.patch.object(policies, "_PREFIX_ROWS", 64):
        assert [lo for lo, _, _ in policies.prefix_blocks(actions, rewards, K)] == [0, 22, 44, 66, 88]
        assert propensity(spec, actions, rewards, K).tobytes() == one_shot.tobytes()


def test_long_ts_log_propensity_memory_is_bounded():
    import tracemalloc

    log = run_experiment(4, 2000, TsSpec(), [Bernoulli(p) for p in (0.3, 0.4, 0.5, 0.6)], seed=5)
    tracemalloc.start()
    try:
        props = propensity(log.policy, log.actions[None], log.rewards[None], 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert props.shape == (1, 2000, 4)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@st.composite
def score_tables(draw):
    """Tie-heavy (n, K) scores: small integers as floats, and infinities."""
    K = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    entry = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.inf, -np.inf]))
    return np.array(draw(st.lists(entry, min_size=n * K, max_size=n * K))).reshape(n, K)


@settings(max_examples=100, deadline=None)
@given(x=score_tables())
def test_argmax_rows_matches_numpy(x):
    # Ties go to the lowest column, as numpy's argmax does on NaN-free rows.
    arms = policies._argmax_rows(x)
    assert arms.dtype == np.int64
    assert np.array_equal(arms, np.argmax(x, axis=1))


# The normal CDF runs on numpy alone; scipy.special is the reference here only.
# The constants are Phi(x) and log Phi(x) to 20 digits (mpmath at 50 digits).
# At -36.7 and 36.7, x^2 / 2 is not a float: one exp(-x^2 / 2) would be off
# by 5e-14 there.
NDTR_CONSTANTS = [
    (-37.0, 5.7255712225245768227e-300), (-36.7, 3.6515293028034179725e-295), (-20.0, 2.7536241186062336951e-89),
    (-8.3, 5.2055697448902540246e-17), (-5.0, 2.8665157187919391167e-7),
    (-1.0, 0.15865525393145705141), (0.5, 0.69146246127401310364), (3.0, 0.99865010196836990547),
    (8.0, 0.9999999999999993779),
]
LOG_NDTR_CONSTANTS = [
    (-1e6, -500000000014.73444909), (-1000.0, -500007.82669481218431), (-37.0, -689.0305855768905936),
    (-3.0, -6.6077262215103495433), (0.25, -0.51298407540943043213), (2.0, -0.023012909328963488465),
    (10.0, -7.619853024160526066e-24), (12.3, -4.5287069561587846514e-35), (36.7, -3.6515293028034179725e-295),
    (37.0, -5.7255712225245768227e-300),
]


def _cdf_grid(lo, hi):
    """An even grid on [lo, hi] and uniform draws from it, with each form's end points."""
    ends = [0.67448975, math.sqrt(32.0)]
    edges = [s * e for e in ends for s in (-1, 1)] + [np.nextafter(s * e, 0.0) for e in ends for s in (-1, 1)]
    x = np.concatenate([np.linspace(lo, hi, 200_001), np.random.default_rng(3).uniform(lo, hi, 20_000), edges])
    return x[(x >= lo) & (x <= hi)]


def test_ndtr_matches_scipy_and_constants():
    # scipy's own error near -37 is 2e-13 (erfc of x / sqrt 2 inherits the rounding of x / sqrt 2).
    x = _cdf_grid(-37.0, 37.0)
    np.testing.assert_allclose(policies.ndtr(x), special.ndtr(x), rtol=5e-13, atol=0)
    x, exact = np.array(NDTR_CONSTANTS).T
    np.testing.assert_allclose(policies.ndtr(x), exact, rtol=1e-15, atol=0)


def test_log_ndtr_matches_scipy_and_constants():
    x = np.concatenate([-np.logspace(np.log10(20.0), 6, 10_000), _cdf_grid(-20.0, 20.0)])
    np.testing.assert_allclose(policies.log_ndtr(x), special.log_ndtr(x), rtol=1e-13, atol=0)
    # Past 20, log Phi = log1p(-Q) is about -Q, where scipy's erfc errs by up to 2.4e-13, and past
    # 37.5 it is subnormal: compare within scipy's error, then to the constants.
    x = _cdf_grid(20.0, 38.0)
    np.testing.assert_allclose(policies.log_ndtr(x), special.log_ndtr(x), rtol=5e-13, atol=np.finfo(float).tiny)
    x, exact = np.array(LOG_NDTR_CONSTANTS).T
    np.testing.assert_allclose(policies.log_ndtr(x), exact, rtol=1e-15, atol=0)


def test_normal_cdf_special_values_and_shapes():
    x = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    np.testing.assert_array_equal(policies.ndtr(x), [1.0, 0.0, np.nan, 0.5, 0.5])
    np.testing.assert_array_equal(policies.log_ndtr(x), [0.0, -np.inf, np.nan, np.log(0.5), np.log(0.5)])
    assert policies.log_ndtr(-1e200) == -np.inf  # -x^2 / 2 overflows, as the true value does
    assert np.ndim(policies.ndtr(1.5)) == 0 and policies.ndtr(1.5) == policies.ndtr(np.array([1.5]))[0]
    grid = np.linspace(-40.0, 40.0, 24).reshape(2, 3, 4)
    np.testing.assert_array_equal(policies.log_ndtr(grid), policies.log_ndtr(grid.ravel()).reshape(2, 3, 4))


@pytest.mark.parametrize("K", [2, 3, 4])
def test_ts_propensities_match_scipy_reference(K, monkeypatch):
    """Propensities of TS logs with the numpy CDFs against the same code on scipy.special's."""
    worlds = [
        (TsSpec(), [Bernoulli(p) for p in np.linspace(0.3, 0.6, K)]),
        (TsSpec(0.5, 2.0, 0.5), [Gaussian(m, 1.0) for m in np.linspace(0.0, 1.0, K)]),
    ]
    for spec, arms in worlds:
        logs = [run_experiment(K, 300, spec, arms, seed=seed) for seed in range(3)]
        actions, rewards = np.stack([log.actions for log in logs]), np.stack([log.rewards for log in logs])
        ours = propensity(spec, actions, rewards, K)
        with monkeypatch.context() as m:
            m.setattr(policies, "ndtr", special.ndtr)
            m.setattr(policies, "log_ndtr", special.log_ndtr)
            reference = propensity(spec, actions, rewards, K)
        np.testing.assert_allclose(ours, reference, rtol=1e-13, atol=0)


@pytest.mark.parametrize("rows", [1, 7, None], ids=["rows1", "rows7", "default"])
@pytest.mark.parametrize("spec, K", [(TsSpec(), 2), (TsSpec(0.5, 2.0, 0.5), 4), (EgSpec(0.1), 3)],
                         ids=["ts-k2", "ts-k4", "eg-k3"])
def test_propensity_bytes_do_not_depend_on_the_block_size(spec, K, rows, monkeypatch, zero_propensities):
    """Each row's propensity is its own, and each weighted table a running sum
    carried across blocks, so any block size gives the same bytes."""
    rng = substream(41, K)
    actions = rng.integers(0, K, size=(3, 40))
    rewards = rng.standard_normal((3, 40))
    logs = BanditLog(K, 40, actions, rewards, spec)
    zero_propensities(21, slice(1, 2))  # log 1's round 21, in the propensities too; at 7 rows, 3-round blocks

    def outputs() -> list:
        first_zero, tables = weighted_estimates(logs, ("ipw", "aipw"), (1, 3, 4, 5, 7, 8, 20, 21, 39, 40))
        assert first_zero.tolist() == [-1, 20, -1]
        return [propensity(spec, actions, rewards, K)] + [t for table in tables.values() for t in table.values()]

    default = outputs()
    if rows is not None:
        monkeypatch.setattr(policies, "_PREFIX_ROWS", rows)
        monkeypatch.setattr(policies, "_QUADRATURE_ELEMENTS", rows * K * (9 * K - 1) * 8)
    assert [x.tobytes() for x in outputs()] == [x.tobytes() for x in default]
