import numpy as np
import pytest

from bandit_debias.bootstrap import BootstrapSpec, ZeroCountArm, build_world
from bandit_debias.distributions import Gaussian
from bandit_debias.policies import EgSpec, EtcSpec
from bandit_debias.simulator import LawWorld, ResampleWorld, run_experiment, summarize
from bandit_debias.streams import substream


def _log(seed=0, policy=EtcSpec(10), arms=None, T=100):
    arms = arms or [Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)]
    log = run_experiment(len(arms), T, policy, arms, seed=seed)
    return log, summarize(log)


def _pulls(arm, n):
    return np.full(n, arm, dtype=np.int64)


def test_mb_world_matches_mle_fit():
    log, s = _log()
    world = build_world(s, log, BootstrapSpec("mb", 10))
    assert isinstance(world, LawWorld) and len(world) == 2
    assert not world.finite.any()
    assert np.array_equal(world.mu, s.means)
    assert np.array_equal(world.sd, np.sqrt(s.variances))
    for k in range(2):
        assert world[k] == Gaussian(float(s.means[k]), float(s.variances[k]))


def test_mb_degenerate_log_gives_point_mass():
    log, s = _log(arms=[Gaussian(2.0, 0.0), Gaussian(3.0, 0.0)])
    world = build_world(s, log, BootstrapSpec("mb", 5))
    rng = substream(1)
    assert np.all(world.draw(_pulls(0, 100), rng) == 2.0)
    assert np.all(world.draw(_pulls(1, 100), rng) == 3.0)


def test_efron_support_is_observed_rewards():
    log, s = _log(seed=3)
    world = build_world(s, log, BootstrapSpec("efron", 10))
    assert isinstance(world, ResampleWorld) and len(world) == 2
    assert np.array_equal(world.counts, s.counts)
    for k in range(2):
        observed = log.rewards[log.actions == k]  # in log order
        start = world.offsets[k]
        assert np.array_equal(world.values[start : start + world.counts[k]], observed)
        draws = world.draw(_pulls(k, 5000), substream(9))
        assert set(draws.tolist()) <= set(observed.tolist())
        assert world[k].mean() == pytest.approx(s.means[k], rel=1e-12)
        assert world[k].variance() == pytest.approx(s.variances[k], rel=1e-12)


def test_efron_resample_frequencies():
    # two distinct values with known multiplicities: check empirical rates
    log, _ = _log(seed=0, T=20, policy=EtcSpec(10))
    log.actions[:] = 0
    log.rewards[:] = [0.0] * 15 + [1.0] * 5
    log = log.__class__(K=1, T=20, actions=np.zeros(20, dtype=np.int64),
                        rewards=log.rewards.copy(), policy=log.policy,
                        seed=log.seed, world=log.world)
    s = summarize(log)
    world = build_world(s, log, BootstrapSpec("efron", 10))
    n = 200_000
    draws = world.draw(_pulls(0, n), substream(4))
    p_hat = draws.mean()
    se = np.sqrt(0.25 * 0.75 / n)
    assert abs(p_hat - 0.25) < 4 * se


def test_mb_sampling_moments():
    log, s = _log(seed=5)
    world = build_world(s, log, BootstrapSpec("mb", 10))
    draws = world.draw(_pulls(1, 1_000_000), substream(6))
    sd = np.sqrt(s.variances[1])
    assert abs(draws.mean() - s.means[1]) < 4 * sd / 1000
    assert abs(draws.var() - s.variances[1]) < 0.01 * s.variances[1]


@pytest.mark.parametrize("kind", ["mb", "efron"])
def test_zero_count_arm_raises(kind):
    # epsilon 0 greedy with pessimistic start never touches arm 2
    log, s = _log(seed=1, policy=EgSpec(0.0), arms=[Gaussian(5, 0.01), Gaussian(0, 1)])
    assert 1 in s.zero_count_arms
    with pytest.raises(ZeroCountArm) as exc:
        build_world(s, log, BootstrapSpec(kind, 10))
    assert exc.value.arm == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec("jackknife", 10)
    with pytest.raises(ValueError):
        BootstrapSpec("mb", 0)
    BootstrapSpec("efron", 1)
