import json
from pathlib import Path

import numpy as np
import pytest

from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec
from bandit_debias.simulator import (
    LawWorld,
    ResampleWorld,
    load_log,
    meta_path_for,
    run_batch,
    run_experiment,
    save_log,
    summarize,
)
from bandit_debias.streams import stream_key, substream


DEGENERATE = [Gaussian(1.0, 0.0), Gaussian(1.5, 0.0)]


def test_etc_degenerate_commits_to_better_arm():
    log = run_experiment(2, 100, EtcSpec(10), DEGENERATE, seed=0)
    assert log.actions[:10].tolist() == [0] * 10
    assert log.actions[10:20].tolist() == [1] * 10
    assert log.actions[20:].tolist() == [1] * 80


def test_etc_exploration_only_boundary():
    log = run_experiment(2, 20, EtcSpec(10), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=3)
    s = summarize(log)
    assert s.counts.tolist() == [10, 10]
    for k in range(2):
        mask = log.actions == k
        assert s.means[k] == pytest.approx(log.rewards[mask].mean(), abs=1e-12)


def test_etc_schedule_invariant():
    for seed in range(5):
        log = run_experiment(3, 40, EtcSpec(4), [Bernoulli(0.2)] * 3, seed=seed)
        expect = [t // 4 for t in range(12)]
        assert log.actions[:12].tolist() == expect
        assert len(set(log.actions[12:].tolist())) == 1


def test_etc_raw_bias_monte_carlo():
    arms = [Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)]
    out = run_batch(1000, 2, 100, EtcSpec(10), arms, substream(2024))
    bias = out.means().mean(axis=0) - np.array([1.0, 1.5])
    assert abs(bias[0] + 0.042) < 0.02
    assert abs(bias[1] + 0.042) < 0.02


def test_summarize_mle_moments():
    log = run_experiment(2, 100, EtcSpec(10), DEGENERATE, seed=0)
    log.rewards[:2] = [1.0, 3.0]
    log.actions[:2] = [0, 0]
    s = summarize(log)
    mask = log.actions == 0
    assert s.means[0] == pytest.approx(log.rewards[mask].mean())
    assert s.variances[0] == pytest.approx(log.rewards[mask].var())  # divide by n
    assert s.counts.sum() == 100


def test_summarize_variances_survive_a_large_offset():
    # E[x^2] - mean^2 cancels catastrophically at an offset of 1e8.
    log = run_experiment(2, 100, EtcSpec(10), [Gaussian(1e8, 1.0), Gaussian(1e8, 1.0)], seed=3)
    s = summarize(log)
    for k in range(2):
        assert s.variances[k] == pytest.approx(log.rewards[log.actions == k].var(), rel=1e-6)


def test_single_observation_variance_zero():
    log = run_experiment(2, 2, EtcSpec(1), DEGENERATE, seed=0)
    s = summarize(log)
    assert np.all(s.variances == 0.0)
    assert np.all(s.counts == 1)


def test_run_experiment_deterministic():
    a = run_experiment(2, 50, TsSpec(), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=11)
    b = run_experiment(2, 50, TsSpec(), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=11)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)


def test_neighbor_seeds_use_disjoint_streams():
    # stream identity accounting, not statistics
    assert stream_key(5) != stream_key(6)
    assert stream_key(5, 1) != stream_key(5, 2)
    assert stream_key(5, 1, 0) != stream_key(6, 1, 0)


@pytest.mark.parametrize("policy", [EtcSpec(5), UcbSpec(), TsSpec(), EgSpec(0.1)])
def test_counts_sum_to_horizon(policy):
    log = run_experiment(2, 60, policy, [Bernoulli(0.3), Bernoulli(0.6)], seed=4)
    assert summarize(log).counts.sum() == 60
    assert log.actions.min() >= 0 and log.actions.max() < 2


def test_invalid_etc_config_rejected():
    with pytest.raises(ValueError):
        run_experiment(2, 15, EtcSpec(10), DEGENERATE, seed=0)
    with pytest.raises(ValueError):
        run_experiment(3, 50, EtcSpec(10), DEGENERATE, seed=0)  # |arms| != K


def test_csv_round_trip_bit_exact(tmp_path):
    log = run_experiment(2, 40, EgSpec(0.05), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=9)
    path = str(tmp_path / "log.csv")
    save_log(log, path)
    again = load_log(path, meta_path_for(path))
    assert np.array_equal(log.actions, again.actions)
    assert np.array_equal(log.rewards, again.rewards)  # repr round trip, no loss
    assert again.K == log.K and again.T == log.T
    assert again.policy == log.policy
    s1, s2 = summarize(log), summarize(again)
    assert np.array_equal(s1.means, s2.means, equal_nan=True)
    assert np.array_equal(s1.variances, s2.variances, equal_nan=True)


def test_log_file_format(tmp_path):
    log = run_experiment(2, 5, EtcSpec(2), DEGENERATE, seed=1)
    path = str(tmp_path / "log.csv")
    save_log(log, path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "t,arm,reward"
    assert lines[1].startswith("1,1,")  # 1-indexed
    meta = json.loads(Path(meta_path_for(path)).read_text())
    assert meta["K"] == 2 and meta["T"] == 5 and meta["world"] == "real"
    assert meta["policy"] == {"name": "etc", "m": 2}


def test_truncated_log():
    log = run_experiment(2, 50, EgSpec(0.2), [Bernoulli(0.3), Bernoulli(0.6)], seed=8)
    short = log.truncated(20)
    assert short.T == 20
    assert np.array_equal(short.actions, log.actions[:20])
    with pytest.raises(ValueError):
        log.truncated(51)


def test_batch_matches_scalar_runs():
    """The lockstep engine and run_experiment agree on summary laws.

    Not bit-wise (stream layouts differ) but distributionally: identical
    deterministic arms force identical action paths for ETC.
    """
    out = run_batch(4, 2, 30, EtcSpec(5), DEGENERATE, substream(77), record_logs=True)
    for row in out.actions:
        assert row.tolist() == [0] * 5 + [1] * 25


GAUSSIAN_LAWS = [Gaussian(1.0, 1.0), Gaussian(1.5, 2.0), Gaussian(-0.5, 0.0)]
BERNOULLI_LAWS = [Bernoulli(0.3), Bernoulli(0.6), Bernoulli(0.5)]
MIXED_LAWS = [Gaussian(1.0, 2.0), Bernoulli(0.3), FiniteDiscrete((0.0, 0.5, 2.0), (0.2, 0.5, 0.3))]
REPEATED = np.round(substream(5).standard_normal(60), 1)  # 60 rewards with repeated values


def _world(name):
    if name == "resample":
        return ResampleWorld(np.arange(60) % 3, REPEATED, 3)
    return LawWorld({"gaussian": GAUSSIAN_LAWS, "bernoulli": BERNOULLI_LAWS, "mixed": MIXED_LAWS}[name])


@pytest.mark.parametrize("name", ["gaussian", "bernoulli", "mixed", "resample"])
def test_draws_are_row_local(name):
    # Row i takes the round's i-th draw: under the same stream, its reward
    # depends on its own arm only, not on the arms the other rows chose.
    world, picks = _world(name), substream(4)
    for trial in range(20):
        a = picks.integers(0, 3, size=257)
        b = picks.integers(0, 3, size=257)
        agree = picks.random(257) < 0.5
        b[agree] = a[agree]
        ra, rb = world.draw(a, substream(3, trial)), world.draw(b, substream(3, trial))
        assert np.array_equal(ra[agree], rb[agree])


@pytest.mark.parametrize("laws", [GAUSSIAN_LAWS, BERNOULLI_LAWS], ids=["gaussian", "bernoulli"])
def test_constant_arm_draws_match_law_sample(laws):
    # A round in which every row pulls arm k draws exactly what arm k's law samples.
    world = LawWorld(laws)
    for k, law in enumerate(laws):
        drawn = world.draw(np.full(257, k), substream(3, k))
        assert np.array_equal(drawn, law.sample(substream(3, k), 257))


def test_resample_world_laws_are_observed_rewards():
    actions = np.arange(60) % 3
    world = _world("resample")
    for k in range(3):
        law = world[k]
        assert isinstance(law, FiniteDiscrete)
        support, multiplicity = np.unique(REPEATED[actions == k], return_counts=True)
        assert law.support == tuple(support.tolist())
        assert law.probs == tuple((multiplicity / 20).tolist())
        drawn = world.draw(np.full(257, k), substream(6))
        assert set(drawn.tolist()) <= set(law.support)


@pytest.mark.parametrize("law", [Bernoulli(1.0), Bernoulli(0.0), FiniteDiscrete((0.7,), (1.0,))],
                         ids=["bernoulli1", "bernoulli0", "one-atom"])
def test_zero_variance_finite_law_draws_its_value(law):
    # A finite law of zero variance takes the normal path as mean + 0 * z.
    value = law.mean()
    alone = LawWorld([law])
    assert not alone.finite.any()
    assert np.all(alone.draw(np.zeros(100, dtype=np.int64), substream(1)) == value)
    for other in (Gaussian(1.0, 1.0), Bernoulli(0.3)):
        chosen = substream(2).integers(0, 2, size=100)
        drawn = LawWorld([other, law]).draw(chosen, substream(3))
        assert np.all(drawn[chosen == 1] == value)


def test_mixed_law_world_moments():
    """Continuous, Bernoulli and finite arms in one run: per-arm moments within 4 SE."""
    laws = MIXED_LAWS
    out = run_batch(2000, 3, 30, EgSpec(1.0), laws, substream(8), record_logs=True)
    for k, law in enumerate(laws):
        x = out.rewards[out.actions == k]
        mu, var = law.mean(), law.variance()
        fourth = np.mean((x - mu) ** 4)
        assert abs(x.mean() - mu) < 4 * np.sqrt(var / x.size), k
        assert abs(x.var() - var) < 4 * np.sqrt((fourth - var**2) / x.size), k
    for k in (1, 2):
        assert set(out.rewards[out.actions == k].tolist()) <= set(laws[k].atoms()[0].tolist())
