import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.debias import CHUNK_CELLS, CHUNK_ROWS, MAX_REPLAYS, chunk_bounds, debias
from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec
from bandit_debias.simulator import BanditLog, run_experiment, summarize
from bandit_debias.theory import EtcGaussianParams, etc_bias_gaussian, etc_bias_general


def test_degenerate_log_zero_estimated_bias():
    """Point-mass arms: every replay reproduces the log exactly, bias estimate 0."""
    log = run_experiment(2, 100, EtcSpec(10), [Gaussian(1, 0), Gaussian(1.5, 0)], seed=0)
    rep = debias(log, BootstrapSpec("mb", 50), seed=1)
    assert np.all(rep.estimated_bias == 0.0)
    assert np.all(rep.corrected_means == rep.raw_means)
    assert np.all(rep.bootstrap_se == 0.0)
    assert rep.b_effective.tolist() == [50, 50]
    assert rep.zero_pull_replays.tolist() == [0, 0]


@pytest.mark.parametrize("kind", ["mb", "efron"])
def test_report_identity_exact(kind):
    log = run_experiment(2, 100, EtcSpec(10), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=7)
    rep = debias(log, BootstrapSpec(kind, 200), seed=2)
    # corrected = raw - estimated_bias holds bitwise by construction
    assert np.array_equal(rep.corrected_means, rep.raw_means - rep.estimated_bias)
    boot_avg = rep.raw_means + rep.estimated_bias
    np.testing.assert_allclose(rep.corrected_means, 2 * rep.raw_means - boot_avg,
                               rtol=0, atol=1e-12)


def test_mb_estimate_matches_closed_form():
    """For ETC with Gaussian worlds the bootstrap estimates a quantity with a
    closed form: the two-arm commit-or-not bias at the fitted parameters."""
    log = run_experiment(2, 100, EtcSpec(10), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=12)
    s = summarize(log)
    rep = debias(log, BootstrapSpec("mb", 10_000), seed=3)
    for k in range(2):
        truth = etc_bias_gaussian(
            EtcGaussianParams(float(s.means[0]), float(s.means[1]),
                              float(s.variances[0]), float(s.variances[1]), 10, 100),
            k + 1)
        z = (rep.estimated_bias[k] - truth) / rep.bootstrap_se[k]
        assert abs(z) < 3, f"arm {k + 1}: z={z:.2f}"


GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("p1, p2, m, T, seed", [
    ((0.1, 0.3, 0.2, 0.15, 0.25), (0.2, 0.2, 0.2, 0.2, 0.2), 10, 40, 1),
    ((0.3, 0.2, 0.2, 0.2, 0.1), (0.1, 0.2, 0.2, 0.2, 0.3), 15, 60, 2),
    ((0.25, 0.25, 0.0, 0.25, 0.25), (0.4, 0.1, 0.0, 0.1, 0.4), 8, 40, 3),
])
def test_efron_estimate_matches_exact_oracle(p1, p2, m, T, seed):
    """The Efron world of a two-arm ETC log on a lattice is the pair of the
    log's empirical laws, whose ETC bias etc_bias_general gives exactly."""
    log = run_experiment(2, T, EtcSpec(m), [FiniteDiscrete(GRID, p1), FiniteDiscrete(GRID, p2)], seed=seed)
    empirical = []
    for k in range(2):
        values, counts = np.unique(log.rewards[log.actions == k], return_counts=True)
        empirical.append(FiniteDiscrete(values, counts / counts.sum()))
    exact = etc_bias_general(empirical, m, T)
    rep = debias(log, BootstrapSpec("efron", 200_000), seed=0)
    for k in range(2):
        z = (rep.estimated_bias[k] - exact[k]) / rep.bootstrap_se[k]
        assert abs(z) < 4, f"arm {k + 1}: z={z:.2f}"


@pytest.mark.parametrize("kind", ["mb", "efron"])
def test_workers_bit_identical(kind):
    # Pool workers receive the world pickled.
    log = run_experiment(2, 60, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)
    spec = BootstrapSpec(kind, 2 * (CHUNK_CELLS // 2) + 1)  # spans three chunks
    assert len(chunk_bounds(spec.B, 2)) == 3
    a = debias(log, spec, seed=5, workers=1)
    b = debias(log, spec, seed=5, workers=4)
    assert np.array_equal(a.estimated_bias, b.estimated_bias)
    assert np.array_equal(a.corrected_means, b.corrected_means)
    assert np.array_equal(a.bootstrap_se, b.bootstrap_se)


def test_chunk_plan_is_the_fewest_balanced_chunks():
    for K in (1, 2, 3, 4, 8, 10**5):
        width = max(CHUNK_ROWS, CHUNK_CELLS // K)  # 8192 rows at K = 2, 4096 from K = 4 on
        for rows in (1, 4095, 4096, 4097, 8191, 8192, 8193, 10_000, 50_000, 123_457):
            bounds = chunk_bounds(rows, K)
            sizes = [hi - lo for lo, hi in bounds]
            assert (len(bounds) - 1) * width < rows <= len(bounds) * width  # no fewer chunks fit
            assert bounds[0][0] == 0 and bounds[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= width
    assert chunk_bounds(10_000, 2) == [(0, 5000), (5000, 10_000)]
    assert chunk_bounds(5000, 4) == [(0, 2500), (2500, 5000)]
    assert chunk_bounds(5000, 8) == [(0, 2500), (2500, 5000)]
    assert [hi - lo for lo, hi in chunk_bounds(50_000, 2)] == [7142] + [7143] * 6
    assert chunk_bounds(0, 2) == []
    # However many arms, the task list built before the first replay stays within the 4096-row plan's.
    assert len(chunk_bounds(MAX_REPLAYS, 10**5)) == -(-MAX_REPLAYS // CHUNK_ROWS)


def test_seed_changes_estimate():
    log = run_experiment(2, 60, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)
    spec = BootstrapSpec("mb", 100)
    a = debias(log, spec, seed=5)
    b = debias(log, spec, seed=6)
    assert not np.array_equal(a.estimated_bias, b.estimated_bias)


def _crafted_eg_log():
    """An epsilon-0 greedy log where arm 2 was pulled once with a terrible reward.

    Replays fit arm 2 as a point mass far below arm 1, so with epsilon=0 no
    replay ever revisits it after its (never-scheduled) forced pull: greedy
    starts at arm 1 by the tie rule and stays.
    """
    log = run_experiment(2, 30, EgSpec(0.0), [Gaussian(5, 0.01), Gaussian(0, 1)], seed=1)
    log.actions[29] = 1
    log.rewards[29] = -10.0
    return log


def test_undefined_bias_arm():
    log = _crafted_eg_log()
    rep = debias(log, BootstrapSpec("mb", 200), seed=9)
    assert rep.undefined_arms == [1]
    assert np.isnan(rep.estimated_bias[1]) and np.isnan(rep.corrected_means[1])
    assert rep.b_effective[1] == 0
    assert rep.zero_pull_replays[1] == 200
    assert np.isfinite(rep.estimated_bias[0])


def test_partial_zero_pull_replays_counted():
    # epsilon small: some replays skip arm 2, the rest keep it; averages use b_effective.
    # A hand-made log: arm 1 pulled 28 times around mean 1, arm 2 twice (rounds 10 and 22).
    actions = np.zeros(30, dtype=np.int64)
    actions[[9, 21]] = 1
    rewards = np.empty(30)
    rewards[actions == 0] = 1.0 + np.linspace(-1.0, 1.0, 28)
    rewards[actions == 1] = [1.0, 2.0]
    log = BanditLog(K=2, T=30, actions=actions, rewards=rewards, policy=EgSpec(0.05))
    s = summarize(log)
    assert s.counts.tolist() == [28, 2]
    rep = debias(log, BootstrapSpec("mb", 400), seed=11)
    assert np.all(rep.b_effective + rep.zero_pull_replays == 400)
    assert np.all(rep.b_effective > 0)
    assert rep.zero_pull_replays.sum() > 0  # some replays skip an arm entirely
    assert np.all(np.isfinite(rep.estimated_bias))


def test_to_dict_json_clean():
    rep = debias(_crafted_eg_log(), BootstrapSpec("mb", 50), seed=0)
    d = rep.to_dict()
    assert d["estimated_bias"][1] is None
    assert d["undefined_arms"] == [2]  # reported 1-indexed
    assert isinstance(d["b_effective"][0], int)
    assert d["bootstrap"] == "mb"


@pytest.mark.parametrize(
    "kind, bias, corrected",
    [
        ("mb", [-0.3183384916611395, -0.0027807550583056617], [0.8472858532921866, 1.5139388487194474]),
        ("efron", [-0.3014521382740433, -0.0017350059930067996], [0.8303994999050905, 1.5128930996541485]),
    ],
)
def test_golden_report(kind, bias, corrected):
    # Pinned values: a one-log report must not move when the replay core changes.
    log = run_experiment(2, 100, TsSpec(), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=7)
    rep = debias(log, BootstrapSpec(kind, 5000), seed=2)
    assert rep.estimated_bias.tolist() == bias
    assert rep.corrected_means.tolist() == corrected


def test_bootstrap_se_survives_a_large_offset():
    # Rewards shifted by 1e8 replay the same experiments shifted by 1e8.
    log = run_experiment(2, 100, EtcSpec(10), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=12)
    shifted = BanditLog(K=2, T=100, actions=log.actions, rewards=log.rewards + 1e8, policy=log.policy)
    spec = BootstrapSpec("mb", 2000)
    base, far = debias(log, spec, seed=3), debias(shifted, spec, seed=3)
    assert np.all(base.bootstrap_se > 0)
    np.testing.assert_allclose(far.bootstrap_se, base.bootstrap_se, rtol=1e-3, atol=0)


@pytest.mark.parametrize("kind", ["mb", "efron"])
def test_stacked_logs_replay_their_own_worlds(kind):
    # Two logs 1e3 apart; each log's replays straddle a chunk boundary, which
    # takes three balanced chunks.  A row replayed against the other log's
    # world would move its average by ~1e3.
    log = run_experiment(2, 60, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)
    stack = BanditLog(K=2, T=60, actions=np.stack([log.actions] * 2),
                      rewards=np.stack([log.rewards, log.rewards + 1e3]), policy=log.policy)
    B = 9000
    inner = [lo for lo, _ in chunk_bounds(2 * B, 2)[1:]]
    assert any(0 < lo < B for lo in inner) and any(B < lo < 2 * B for lo in inner)
    rep = debias(stack, BootstrapSpec(kind, B), seed=5)
    assert rep.raw_means.shape == rep.corrected_means.shape == rep.bootstrap_se.shape == (2, 2)
    np.testing.assert_allclose(rep.raw_means, summarize(log).means + [[0.0], [1e3]], rtol=0, atol=1e-9)
    assert rep.b_effective.tolist() == [[B, B], [B, B]]
    assert rep.zero_pull_replays.tolist() == [[0, 0], [0, 0]]
    assert np.all(np.abs(rep.estimated_bias) < 0.5)


_LAWS = st.one_of(
    st.builds(Bernoulli, st.floats(0.1, 0.9)),
    st.builds(Gaussian, st.floats(-1.0, 1.0), st.floats(0.25, 4.0)),
    st.builds(FiniteDiscrete, st.just(GRID), st.sampled_from([(0.1, 0.3, 0.2, 0.15, 0.25), (0.4, 0.1, 0.0, 0.1, 0.4)])),
)


@pytest.mark.parametrize("kind", ["mb", "efron"])
@pytest.mark.parametrize("policy", [UcbSpec(), TsSpec(), EgSpec(0.0), EgSpec(0.2), EtcSpec(3)],
                         ids=["ucb", "ts", "eg0", "eg0.2", "etc3"])
# Greedy EG often leaves an arm unpulled, so many draws are filtered; each case still runs 30 examples.
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(arms=st.lists(_LAWS, min_size=2, max_size=3), T=st.integers(12, 40), log_seed=st.integers(0, 2**31))
def test_replay_bias_is_never_positive(policy, kind, arms, T, log_seed):
    """Sign oracle: every policy's replay bias is <= 0 up to Monte Carlo error.

    Shin, Ramdas and Rinaldo, "Are sample means in multi-armed bandits
    positively or negatively biased?" (NeurIPS 2019), call a sampling rule
    optimistic when, with the rule's own randomness and every other reward
    held fixed, the pull count of arm k never falls as one of arm k's
    rewards rises.  At a fixed horizon an optimistic rule biases every
    arm's sample mean downwards, in any world of i.i.d. arms, so in every
    bootstrap world too.  Each policy here meets that condition as stated,
    with its tie rule (ties go to the lowest arm) included: raising a
    reward of arm k raises only arm k's score, and a tie rule by index can
    turn a tie that arm k lost into a win but never a win into a loss.

    * UCB: the score is arm k's mean plus a bonus of t and its count; an
      unpulled arm's +inf score is fixed.
    * TS: the score is arm k's posterior mean plus its posterior sd (a
      function of its count) times a normal that each round draws whatever
      the data, so the normal is part of the rule's own randomness.  The
      two-arm rule ``gap > sd * z`` gives a tie to arm 1.
    * EG, at epsilon 0 and above: the explore coin and the explored arm
      come from a uniform drawn every round; the greedy arm is the argmax
      of the means, an unpulled arm's 0 included.
    * ETC: the exploration blocks are fixed, and the commit is the argmax
      of the exploration means.

    The theorem is about the sample mean where it is defined.  TS and EG
    can leave an arm unpulled in a replay, and ``debias`` drops such a
    replay from that arm's average (``b_effective``), a case the theorem
    does not cover; the check holds there too.  An arm the log pulled once
    has a point-mass world, whose estimate is rounding noise with
    ``bootstrap_se`` 0, and is skipped.
    """
    if isinstance(policy, EtcSpec):
        T = max(T, policy.m * len(arms))
    log = run_experiment(len(arms), T, policy, arms, seed=log_seed)
    assume((summarize(log).counts > 0).all())  # else no bootstrap world
    rep = debias(log, BootstrapSpec(kind, 4000), seed=1)
    for bias, se in zip(rep.estimated_bias, rep.bootstrap_se):
        if se > 0:
            assert bias <= 4 * se, f"estimated_bias {bias:.3g} is {bias / se:.2f} bootstrap_se"
