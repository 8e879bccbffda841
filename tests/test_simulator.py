import json
from pathlib import Path

import numpy as np
import pytest

from bandit_debias import policies
from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.debias import debias
from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec
from bandit_debias.simulator import (
    ArmSummary,
    BanditLog,
    LawWorld,
    PolicyMismatch,
    ResampleWorld,
    check_policy,
    load_log,
    meta_path_for,
    run_batch,
    run_experiment,
    save_log,
    summarize,
)
from bandit_debias.streams import substream


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
    bias = out.means.mean(axis=0) - np.array([1.0, 1.5])
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


def test_summarize_reads_a_logged_batch_into_its_record():
    arms, spec = [Bernoulli(0.2), Gaussian(0.5, 1.0), Bernoulli(0.9)], TsSpec()
    out = run_batch(50, 3, 4, spec, arms, substream(5), record_logs=True)
    s = summarize(BanditLog(3, 4, out.actions, out.rewards, spec))
    assert isinstance(out, ArmSummary) and isinstance(s, ArmSummary) and out.squares is None
    assert np.array_equal(s.counts, out.counts)
    np.testing.assert_allclose(s.sums, out.sums, rtol=1e-12, atol=1e-15)
    unpulled = s.counts == 0
    assert unpulled.any() and not unpulled.all()
    for stat in (s.means, s.variances, out.means):
        assert np.array_equal(np.isnan(stat), unpulled)
    assert s.zero_count_arms == sorted({int(k) for k in np.nonzero(unpulled)[1]})


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
    def first_draws(seed, *path):
        return substream(seed, *path).integers(0, 2**63, size=4)

    assert not np.array_equal(first_draws(5), first_draws(6))
    assert not np.array_equal(first_draws(5, 1), first_draws(5, 2))
    assert not np.array_equal(first_draws(5, 1, 0), first_draws(6, 1, 0))


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


def test_zero_probability_atoms_are_never_drawn():
    """A law draws as its positive-probability atoms alone, per round and as ETC sums."""
    phantom = [FiniteDiscrete((-1.0, 0.0, 0.5, 1.0, 2.0), (0.0, 0.3, 0.0, 0.7, 0.0)), Gaussian(0.5, 1.0)]
    plain = [FiniteDiscrete((0.0, 1.0), (0.3, 0.7)), Gaussian(0.5, 1.0)]
    cells = substream(1).integers(0, 2, size=4000)
    a, b = LawWorld(phantom), LawWorld(plain)
    assert np.array_equal(a.draw(cells, substream(2)), b.draw(cells, substream(2)))
    for j in (1, 7, 200):
        for x, y in zip(a.draw_sum(cells, j, substream(3)), b.draw_sum(cells, j, substream(3))):
            assert np.array_equal(x, y)


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


# --- the unlogged ETC path: per-arm sums in place of the round loop ---------

ZERO_ONE = (np.arange(40) % 5 < 2).astype(float)  # 0/1 rewards: exploration means tie often
LATTICE = FiniteDiscrete((0.0, 0.25, 0.5, 0.75, 1.0), (0.1, 0.2, 0.3, 0.25, 0.15))
ETC_CASES = {
    "mb": (2, 40, 5, LawWorld([Gaussian(1.0, 1.0), Gaussian(1.3, 2.0)]), None),
    "bernoulli": (2, 40, 5, LawWorld([Bernoulli(0.4), Bernoulli(0.5)]), None),
    "resample-ties": (2, 40, 5, ResampleWorld(np.arange(40) % 2, ZERO_ONE, 2), None),
    "stacked": (2, 40, 5, LawWorld(np.array([[Gaussian(0.0, 1.0), Gaussian(0.2, 1.0)],
                                             [Gaussian(5.0, 1.0), Gaussian(4.8, 4.0)]], dtype=object)),
                np.arange(3000) % 2),
    "k3-mixed": (3, 36, 4, LawWorld(MIXED_LAWS), None),
    "explore-only": (2, 10, 5, LawWorld([Gaussian(1.0, 1.0), Gaussian(1.3, 2.0)]), None),
    "criterion-8": (2, 40, 5, LawWorld([Bernoulli(0.3), Gaussian(0.6, 0.0)]), None),
    "lattice": (2, 40, 5, LawWorld([LATTICE, Bernoulli(0.55)]), None),
}


@pytest.mark.parametrize("case", list(ETC_CASES))
def test_etc_sums_match_round_loop_in_law(case):
    # record_logs=True forces the round loop; both paths must give the same
    # first two moments of the per-arm means and MLE variances, the same
    # commit frequencies (within 4 SE) and ETC's exact counts.  A resample
    # world's squares are NaN, so its variances are not compared.
    K, T, m, world, row_log = ETC_CASES[case]
    n, rest = 3000, T - m * K
    fast = run_batch(n, K, T, EtcSpec(m), world, substream(21), row_log=row_log)
    loop = run_batch(n, K, T, EtcSpec(m), world, substream(22), record_logs=True, row_log=row_log)
    assert fast.actions is None and loop.squares is None
    # The logged rewards' MLE variances, shifted by each arm's first reward
    # in the row so that a constant arm's is exactly 0, as on the fast side.
    pulled = loop.actions[:, :, None] == np.arange(K)
    first = loop.rewards[np.arange(n)[:, None], np.argmax(pulled, axis=1)]
    shifted = np.where(pulled, loop.rewards[:, :, None] - first[:, None], 0.0)
    shifted_mean = shifted.sum(axis=1) / loop.counts
    variances = (fast.variances, (shifted**2).sum(axis=1) / loop.counts - shifted_mean**2)
    groups = np.zeros(n, dtype=np.int64) if row_log is None else row_log
    stats = {"mean": (fast.means, loop.means), "variance": variances}
    if isinstance(world, ResampleWorld):
        assert np.isnan(fast.squares).all()
        del stats["variance"]
    for out in (fast, loop):
        committed = np.argmax(out.counts, axis=1)
        expect = np.full((n, K), m)
        if rest:
            expect[np.arange(n), committed] += rest
        assert np.array_equal(out.counts, expect)
    for g in np.unique(groups):
        for stat, (a, b) in stats.items():
            for power in (1, 2):
                x, y = a[groups == g] ** power, b[groups == g] ** power
                se = np.sqrt(x.var(axis=0) / len(x) + y.var(axis=0) / len(y))
                assert np.all(np.abs(x.mean(axis=0) - y.mean(axis=0)) <= 4 * se), (g, stat, power, x.mean(0), y.mean(0))
        if rest:
            size = np.count_nonzero(groups == g)
            fa = np.bincount(np.argmax(fast.counts[groups == g], axis=1), minlength=K) / size
            fb = np.bincount(np.argmax(loop.counts[groups == g], axis=1), minlength=K) / size
            p = (fa + fb) / 2
            assert np.all(np.abs(fa - fb) <= 4 * np.sqrt(p * (1 - p) * 2 / size)), (g, fa, fb)


def test_unlogged_etc_batches_skip_the_policy_step(monkeypatch):
    log = run_experiment(2, 40, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)

    def no_step(*args, **kwargs):
        raise AssertionError("select_batch called")

    monkeypatch.setattr(policies, "select_batch", no_step)
    out = run_batch(100, 2, 40, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], substream(1))
    assert np.all(out.counts.sum(axis=1) == 40)
    for kind in ("mb", "efron"):
        assert np.all(np.isfinite(debias(log, BootstrapSpec(kind, 50), seed=2).estimated_bias))
    with pytest.raises(AssertionError):
        run_batch(100, 2, 40, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], substream(1), record_logs=True)


@pytest.mark.parametrize("name", ["gaussian", "bernoulli", "mixed", "resample"])
def test_draw_sum_moments(name):
    # 64 draws per row take several blocks of rounds of a resample world at
    # this width.  A resample cell's law is its observed rewards, so its
    # variance is their MLE variance; its squares are NaN.
    world, j, n = _world(name), 64, 2000
    for k in range(3):
        law = world[k]
        sums, squares = world.draw_sum(np.full(n, k), j, substream(7, k))
        mu, var = law.mean(), law.variance()
        assert abs(sums.mean() - j * mu) <= 4 * np.sqrt(j * var / n), k
        if isinstance(world, ResampleWorld):
            assert squares.shape == (n,) and np.isnan(squares).all(), k
        else:
            assert abs(squares.mean() - (j - 1) * var) <= 4 * squares.std() / np.sqrt(n), k
        if var > 0:
            assert abs(sums.var() / (j * var) - 1) < 4 * np.sqrt(2 / n), k


@pytest.mark.parametrize("name", ["gaussian", "mixed", "resample"])
@pytest.mark.parametrize("policy", [UcbSpec(), TsSpec(), EgSpec(0.1), EtcSpec(3)], ids=["ucb", "ts", "eg", "etc"])
def test_one_log_replay_needs_no_row_log(policy, name):
    # debias replays one log with no row_log: each cell is then its arm,
    # as log 0's cell is in a stack, so the outcome keeps every bit.
    world, n = _world(name), 300
    bare = run_batch(n, 3, 30, policy, world, substream(9), row_log=None)
    stacked = run_batch(n, 3, 30, policy, world, substream(9), row_log=np.zeros(n, dtype=np.int64))
    for part in ("counts", "sums", "squares"):
        x, y = getattr(bare, part), getattr(stacked, part)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), part


# --- logs that ETC could not have produced ----------------------------------


def _reload(log, tmp_path):
    path = str(tmp_path / "log.csv")
    save_log(log, path)
    return load_log(path, meta_path_for(path))


def test_seeded_etc_logs_pass_the_policy_check():
    # Means tie often on these laws, so the check must apply each policy's
    # tie rule to the means the policy summed, in the policy's order: with
    # 0.1-steps and m=10 the two arms' sums can differ in the last bit.
    tenths = FiniteDiscrete((0.1, 0.2, 0.7), (0.4, 0.4, 0.2))
    cases = (([Bernoulli(0.5)] * 2, 2, 3), ([Bernoulli(0.4), Bernoulli(0.5), Gaussian(0.5, 1)], 3, 2),
             ([tenths] * 2, 2, 10))
    for seed in range(100):
        for arms, K, m in cases:
            for spec in (EtcSpec(m), UcbSpec(), EgSpec(0.0)):
                check_policy(run_experiment(K, m * K + 5, spec, arms, seed=seed))


def test_etc_log_with_a_wrong_schedule_is_rejected(tmp_path):
    log = run_experiment(2, 40, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=3)
    log.actions[:10] = 1 - log.actions[:10]  # arm 2 explored first
    with pytest.raises(PolicyMismatch, match=r"round 1: EtcSpec\(m=5\) plays arm 1, the log has arm 2"):
        _reload(log, tmp_path)


def test_etc_log_whose_committed_block_switches_arms_is_rejected(tmp_path):
    log = run_experiment(2, 40, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=3)
    committed = log.actions[10]
    log.actions[25] = 1 - committed
    with pytest.raises(PolicyMismatch, match=rf"round 26: EtcSpec\(m=5\) plays arm {committed + 1}, the log has arm"):
        _reload(log, tmp_path)


def test_etc_log_shorter_than_its_exploration_is_rejected(tmp_path):
    log = run_experiment(2, 10, EtcSpec(5), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=3)
    log.policy = EtcSpec(6)
    with pytest.raises(PolicyMismatch, match="explores for 12 rounds"):
        _reload(log, tmp_path)


def _committed_etc_log(T, m=5):
    """An ETC(m) log on two arms, built by hand: arm 1 explores first and pays 0, then arm 2 pays 1
    through its m rounds and the commit."""
    actions = np.r_[np.zeros(m, np.int64), np.ones(T - m, np.int64)]
    return BanditLog(K=2, T=T, actions=actions, rewards=actions.astype(float), policy=EtcSpec(m))


def test_policy_check_memory_does_not_grow_with_the_log():
    import tracemalloc

    T, K = 200_000, 2
    log = _committed_etc_log(T)
    tracemalloc.start()
    try:
        check_policy(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < T * K * 8, peak


def test_policy_check_finds_a_mismatch_in_a_late_block():
    log = _committed_etc_log(200_000)
    log.actions[150_000] = 0
    with pytest.raises(PolicyMismatch) as exc:
        check_policy(log)
    assert str(exc.value) == "round 150001: EtcSpec(m=5) plays arm 2, the log has arm 1"


@pytest.mark.parametrize("round_", [1, 7, 8, 30, 100])
def test_policy_mismatch_does_not_depend_on_the_block_size(monkeypatch, round_):
    # At 7 prefix states per block, round 8 opens the second block and round 100 ends the last.
    log = run_experiment(2, 100, UcbSpec(), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=4)
    monkeypatch.setattr(policies, "_PREFIX_ROWS", 7)
    check_policy(log)
    log.actions[round_ - 1] = 1 - log.actions[round_ - 1]
    messages = []
    for rows in (log.T, 7):
        monkeypatch.setattr(policies, "_PREFIX_ROWS", rows)
        with pytest.raises(PolicyMismatch) as exc:
            check_policy(log)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"round {round_}: UcbSpec() plays arm"), messages[0]
