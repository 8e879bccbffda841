import pickle
import re

import numpy as np
import pytest

from bandit_debias import policies
from bandit_debias.distributions import Bernoulli, Gaussian
from bandit_debias.estimators import (
    DivisionHazard,
    aipw_estimate,
    evaluate,
    ipw_estimate,
    plugin_mean_trace,
    propensity_trace,
    weighted_estimates,
)
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec, propensity
from bandit_debias.simulator import BanditLog, LawWorld, run_batch, run_experiment, summarize
from bandit_debias.streams import substream


def test_single_arm_ipw_is_sample_mean():
    log = run_experiment(1, 50, EgSpec(0.5), [Gaussian(2, 1)], seed=0)
    props = propensity_trace(log)
    assert np.all(props == 1.0)
    est = ipw_estimate(log)
    assert est[0] == pytest.approx(log.rewards.mean(), rel=1e-12)


def test_deterministic_policies_have_no_propensities():
    for policy in (EtcSpec(5), UcbSpec(), EgSpec(0.0)):
        log = run_experiment(2, 20, policy, [Gaussian(1, 1), Gaussian(1.5, 1)], seed=1)
        assert propensity_trace(log) is None
        out = evaluate(log)
        assert out["propensities_defined"] is False
        assert "ipw" not in out and "aipw" not in out
        assert len(out["mean"]) == 2


@pytest.mark.parametrize("policy", [UcbSpec(), EgSpec(0.0)], ids=["ucb", "eg0"])
def test_ipw_and_aipw_of_a_log_without_propensities_fail_with_a_reason(policy):
    log = run_experiment(2, 30, policy, [Bernoulli(0.3), Bernoulli(0.6)], seed=1)
    for estimate, name in ((ipw_estimate, "IPW"), (aipw_estimate, "AIPW")):
        reason = f"{policy!r} does not randomize, so its log has no propensities for {name}"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            estimate(log)


def test_plugin_means_use_strict_past():
    log = run_experiment(2, 6, EtcSpec(3), [Gaussian(0, 0), Gaussian(10, 0)], seed=0)
    m = plugin_mean_trace(log)
    assert np.all(m[0] == 0.0)  # nothing observed before round 1
    # arm 1 pulled in rounds 1..3 with reward 0, arm 2 in rounds 4..6 with 10
    assert m[3, 0] == 0.0 and m[3, 1] == 0.0
    assert m[4, 1] == 10.0 and m[5, 1] == 10.0


def _mc_estimates(policy, arms, T, R, seed):
    out = run_batch(R, len(arms), T, policy, LawWorld(arms), substream(seed), record_logs=True)
    first_zero, tables = weighted_estimates(BanditLog(len(arms), T, out.actions, out.rewards, policy),
                                            ("ipw", "aipw"), (T,))
    assert np.all(first_zero == -1)
    return tables["ipw"][T], tables["aipw"][T]


def test_eg_full_exploration_unbiased():
    """epsilon=1 is uniform sampling: IPW and AIPW are unbiased, checked at 4 SE."""
    truth = np.array([0.3, 0.6])
    ipw, aipw = _mc_estimates(EgSpec(1.0), [Bernoulli(0.3), Bernoulli(0.6)], 40, 4000, 31)
    for est in (ipw, aipw):
        err = est.mean(axis=0) - truth
        se = est.std(axis=0) / np.sqrt(len(est))
        assert np.all(np.abs(err) < 4 * se)


def test_ts_bernoulli_ipw_aipw_unbiased():
    truth = np.array([0.3, 0.6])
    ipw, aipw = _mc_estimates(TsSpec(), [Bernoulli(0.3), Bernoulli(0.6)], 50, 3000, 17)
    for est in (ipw, aipw):
        err = est.mean(axis=0) - truth
        se = est.std(axis=0) / np.sqrt(len(est))
        assert np.all(np.abs(err) < 4 * se)


def test_aipw_variance_not_worse_at_moderate_horizon():
    ipw, aipw = _mc_estimates(TsSpec(), [Bernoulli(0.3), Bernoulli(0.6)], 100, 2000, 23)
    truth = np.array([0.3, 0.6])
    mse_ipw = ((ipw - truth) ** 2).mean(axis=0)
    mse_aipw = ((aipw - truth) ** 2).mean(axis=0)
    assert np.all(mse_aipw <= mse_ipw)


def test_aipw_reduces_to_ipw_with_zero_plugin():
    """AIPW_k = IPW_k + (1/T) sum_t mhat_t(k) (1 - 1{a_t=k} / e_t(k)); zero plug-in means give IPW."""
    log = run_experiment(2, 40, EgSpec(0.3), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=5)
    props = propensity_trace(log)
    pulled = log.actions[:, None] == np.arange(log.K)
    augmentation = (plugin_mean_trace(log) * (1.0 - pulled / props)).mean(axis=0)
    np.testing.assert_allclose(aipw_estimate(log), ipw_estimate(log) + augmentation, rtol=0, atol=1e-12)
    # Only the last reward is nonzero, so every plug-in mean is 0.
    log.rewards[:-1] = 0.0
    assert np.all(plugin_mean_trace(log) == 0.0)
    np.testing.assert_allclose(aipw_estimate(log), ipw_estimate(log), rtol=0, atol=1e-12)


def test_zero_propensity_raises():
    # A TS log: arm 1 pays 0.0 forty times, arm 2 pays 50.0 forty times, then
    # arm 1 plays once at a propensity that underflows to exactly 0.
    actions = np.repeat([0, 1, 0], [40, 40, 1])
    log = BanditLog(K=2, T=81, actions=actions, rewards=np.where(actions == 1, 50.0, 0.0), policy=TsSpec())
    assert propensity_trace(log)[80, 0] == 0.0
    with pytest.raises(DivisionHazard) as exc:
        ipw_estimate(log)
    assert exc.value.t == 80
    with pytest.raises(DivisionHazard):
        aipw_estimate(log)
    with pytest.raises(DivisionHazard, match=r"^propensity of chosen arm 1 at round 81 is zero$"):
        evaluate(log)


def test_a_later_zero_does_not_move_the_first(zero_propensities, monkeypatch):
    # Log 1 meets zero propensities at rounds 6 and 30, in different blocks of two rounds.
    spec, K, T = EgSpec(0.2), 2, 40
    out = run_batch(3, K, T, spec, LawWorld([Bernoulli(0.3), Bernoulli(0.6)]), substream(12), record_logs=True)
    monkeypatch.setattr(policies, "_PREFIX_ROWS", 6)
    zero_propensities(6, slice(1, 2))
    zero_propensities(30, slice(1, 2))
    first_zero, tables = weighted_estimates(BanditLog(K, T, out.actions, out.rewards, spec), ("ipw",), (T,))
    assert first_zero.tolist() == [-1, 5, -1]
    assert np.isnan(tables["ipw"][T][1]).all() and np.isfinite(tables["ipw"][T][[0, 2]]).all()


@pytest.mark.parametrize("policy", [EgSpec(0.2), TsSpec()])
def test_each_horizon_matches_the_truncated_log(policy, zero_propensities):
    # A stack of 5 logs; log 3 meets a zero propensity at round 9.
    K, T, horizons = 3, 24, (3, 8, 9, 24)
    out = run_batch(5, K, T, policy, LawWorld([Gaussian(1, 1), Bernoulli(0.4), Gaussian(0.5, 2)]), substream(8),
                    record_logs=True)
    logs = BanditLog(K, T, out.actions, out.rewards, policy)
    zero_propensities(9, slice(3, 4))  # a stack of one has no log 3
    first_zero, tables = weighted_estimates(logs, ("ipw", "aipw"), horizons)
    assert first_zero.tolist() == [-1, -1, -1, 8, -1]
    for h in horizons:
        for name, estimate in (("ipw", ipw_estimate), ("aipw", aipw_estimate)):
            assert np.isnan(tables[name][h][3]).all()  # NaN even before the zero
            for i in (0, 1, 2, 4):
                log = BanditLog(K, h, out.actions[i, :h], out.rewards[i, :h], policy)
                assert np.array_equal(tables[name][h][i], estimate(log))
    assert set(weighted_estimates(logs, ("aipw",), (T,))[1]) == {"aipw"}


def test_ipw_alone_has_the_full_calls_bytes(zero_propensities):
    # Asked for alone, IPW gives the bits of the full call's table.
    K, T = 3, 2100
    horizons = (1, 41, 42, 43, 1000, T)  # blocks of 41 rounds
    spec = EgSpec(0.1)
    out = run_batch(50, K, T, spec, LawWorld([Bernoulli(0.3), Gaussian(0.5, 1), Bernoulli(0.6)]), substream(9),
                    record_logs=True)
    logs = BanditLog(K, T, out.actions, out.rewards, spec)
    zero_propensities(301, slice(4, 5))
    full = weighted_estimates(logs, ("mean", "ipw", "aipw"), horizons)
    alone = weighted_estimates(logs, ("ipw",), horizons)
    assert alone[0].tolist() == full[0].tolist()
    assert set(alone[1]) == {"ipw"}
    for h in horizons:
        assert alone[1]["ipw"][h].tobytes() == full[1]["ipw"][h].tobytes()


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("policy", [EgSpec(0.2), TsSpec()], ids=["eg", "ts"])
def test_horizon_sums_have_the_same_bits_at_any_block_size(policy, K, monkeypatch):
    # At K = 1 the round axis is contiguous, where numpy's sum would go pairwise.
    T, horizons = 300, (1, 7, 150, 300)
    laws = LawWorld([Gaussian(0.3 * k, 1.0) for k in range(K)])
    out = run_batch(3, K, T, policy, laws, substream(21), record_logs=True)
    logs = BanditLog(K, T, out.actions, out.rewards, policy)
    alone = [evaluate(BanditLog(K, T, out.actions[i], out.rewards[i], policy), ("ipw", "aipw")) for i in range(3)]
    stacked = []
    for rows in (2048, 64, 7):  # blocks of 683, 22 and 3 rounds
        monkeypatch.setattr(policies, "_PREFIX_ROWS", rows)
        stacked.append(weighted_estimates(logs, ("ipw", "aipw"), horizons))
    assert all(pickle.dumps(each) == pickle.dumps(stacked[0]) for each in stacked)
    tables = stacked[0][1]
    for name in ("ipw", "aipw"):
        assert [np.array(one[name]).tobytes() for one in alone] == [row.tobytes() for row in tables[name][T]]


def test_weighted_pass_memory_is_bounded():
    """Propensities are written into their one output; IPW/AIPW walk blocks of rounds
    and hold no (n, T, K) array, not even the propensities."""
    import tracemalloc

    spec, K, T = EgSpec(0.1), 4, 2000
    laws = [Bernoulli(p) for p in (0.3, 0.4, 0.5, 0.6)]
    out = run_batch(50, K, T, spec, LawWorld(laws), substream(6), record_logs=True)
    logs = BanditLog(K, T, out.actions, out.rewards, spec)
    tracemalloc.start()
    try:
        props = propensity(spec, out.actions, out.rewards, K)
        propensity_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        inputs = tracemalloc.get_traced_memory()[0]
        first_zero, tables = weighted_estimates(logs, ("ipw", "aipw"), (T // 2, T))
        weighted_peak = tracemalloc.get_traced_memory()[1] - inputs
    finally:
        tracemalloc.stop()
    assert np.all(first_zero == -1) and np.isfinite(tables["aipw"][T]).all()
    assert propensity_peak < 1.5 * props.nbytes, f"propensity peak {propensity_peak / props.nbytes:.2f}x its output"
    assert weighted_peak < 0.5 * props.nbytes, f"weighted peak {weighted_peak / props.nbytes:.2f}x n*T*K floats"


def test_small_ts_propensity_is_not_rounded_to_zero():
    # Arms 1 and 2 pay 1.0 fifty times each, then arm 3 pays 0.0 sixteen
    # times.  Arm 3's propensity falls to about 5.5e-5 in the last round; a
    # finite-draw Monte Carlo rounds it to 0 from round 114 on and raises a
    # spurious DivisionHazard.
    actions = np.repeat([0, 1, 2], [50, 50, 16])
    rewards = np.where(actions < 2, 1.0, 0.0)
    log = BanditLog(K=3, T=len(actions), actions=actions, rewards=rewards, policy=TsSpec())
    props = propensity_trace(log)
    chosen = props[np.arange(log.T), actions]
    assert np.all(chosen > 0)
    assert chosen[-1] == pytest.approx(5.524e-5, rel=1e-3)
    assert np.all(np.isfinite(ipw_estimate(log)))
    assert np.all(np.isfinite(aipw_estimate(log)))


def test_propensity_trace_rows_sum_to_one():
    for policy in (EgSpec(0.05), TsSpec()):
        log = run_experiment(2, 40, policy, [Bernoulli(0.3), Bernoulli(0.6)], seed=3)
        props = propensity_trace(log)
        np.testing.assert_allclose(props.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.all(props > 0)


def test_evaluate_with_randomized_policy():
    # A hand-made EG log with Bernoulli rewards that pulls both arms.
    actions = np.array([0, 1, 1, 0, 1, 1, 1, 0] * 5)
    rewards = np.array([1, 0, 1, 0, 1, 1, 0, 0] * 5, dtype=float)
    log = BanditLog(K=2, T=40, actions=actions, rewards=rewards, policy=EgSpec(0.1))
    out = evaluate(log)
    assert out["propensities_defined"] is True
    assert len(out["ipw"]) == 2 and len(out["aipw"]) == 2
    np.testing.assert_allclose(out["mean"], summarize(log).means)


def test_evaluate_writes_strict_json_for_an_unpulled_arm():
    import json

    log = BanditLog(K=2, T=20, actions=np.zeros(20, dtype=np.int64), rewards=np.linspace(0, 1, 20), policy=EgSpec(0.1))

    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    out = json.loads(json.dumps(evaluate(log)), parse_constant=reject)
    assert out["mean"] == [pytest.approx(0.5), None]
    assert all(v is not None for v in out["ipw"] + out["aipw"])
