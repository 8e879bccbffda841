import numpy as np
import pytest

from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.debias import CHUNK, debias
from bandit_debias.distributions import Gaussian
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec
from bandit_debias.simulator import BanditLog, run_experiment, summarize
from bandit_debias.theory import EtcGaussianParams, etc_bias_gaussian


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


@pytest.mark.parametrize("kind", ["mb", "efron"])
def test_workers_bit_identical(kind):
    # Pool workers receive the world pickled.
    log = run_experiment(2, 60, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)
    spec = BootstrapSpec(kind, 9000)  # spans three chunks
    a = debias(log, spec, seed=5, workers=1)
    b = debias(log, spec, seed=5, workers=4)
    assert np.array_equal(a.estimated_bias, b.estimated_bias)
    assert np.array_equal(a.corrected_means, b.corrected_means)
    assert np.array_equal(a.bootstrap_se, b.bootstrap_se)


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
        ("mb", [-0.31169272812271936, -0.0038861171611881407], [0.8406400897537665, 1.5150442108223299]),
        ("efron", [-0.31074035022965973, 0.00010431113594555619], [0.8396877118607069, 1.5110537825251962]),
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
    # Two logs 1e3 apart; log 2's replays straddle a chunk boundary.  A row
    # replayed against the other log's world would move its average by ~1e3.
    log = run_experiment(2, 60, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)
    stack = BanditLog(K=2, T=60, actions=np.stack([log.actions] * 2),
                      rewards=np.stack([log.rewards, log.rewards + 1e3]), policy=log.policy)
    B = 3000
    assert B < CHUNK < 2 * B
    rep = debias(stack, BootstrapSpec(kind, B), seed=5)
    assert rep.raw_means.shape == rep.corrected_means.shape == rep.bootstrap_se.shape == (2, 2)
    np.testing.assert_allclose(rep.raw_means, summarize(log).means + [[0.0], [1e3]], rtol=0, atol=1e-9)
    assert rep.b_effective.tolist() == [[B, B], [B, B]]
    assert rep.zero_pull_replays.tolist() == [[0, 0], [0, 0]]
    assert np.all(np.abs(rep.estimated_bias) < 0.5)
