import numpy as np
import pytest

from bandit_debias.distributions import Bernoulli, Gaussian
from bandit_debias.estimators import (
    DivisionHazard,
    aipw_batch,
    aipw_estimate,
    evaluate,
    ipw_batch,
    ipw_estimate,
    plugin_mean_trace,
    propensity_trace,
)
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec, propensity
from bandit_debias.simulator import BanditLog, run_batch, run_experiment, summarize
from bandit_debias.streams import substream


def test_single_arm_ipw_is_sample_mean():
    log = run_experiment(1, 50, EgSpec(0.5), [Gaussian(2, 1)], seed=0)
    props = propensity_trace(log)
    assert np.all(props == 1.0)
    est = ipw_estimate(log, props)
    assert est[0] == pytest.approx(log.rewards.mean(), rel=1e-12)


def test_deterministic_policies_have_no_propensities():
    for policy in (EtcSpec(5), UcbSpec()):
        log = run_experiment(2, 20, policy, [Gaussian(1, 1), Gaussian(1.5, 1)], seed=1)
        assert propensity_trace(log) is None
        out = evaluate(log)
        assert out["propensities_defined"] is False
        assert "ipw" not in out and "aipw" not in out
        assert len(out["mean"]) == 2


def test_plugin_means_use_strict_past():
    log = run_experiment(2, 6, EtcSpec(3), [Gaussian(0, 0), Gaussian(10, 0)], seed=0)
    m = plugin_mean_trace(log)
    assert np.all(m[0] == 0.0)  # nothing observed before round 1
    # arm 1 pulled in rounds 1..3 with reward 0, arm 2 in rounds 4..6 with 10
    assert m[3, 0] == 0.0 and m[3, 1] == 0.0
    assert m[4, 1] == 10.0 and m[5, 1] == 10.0


def _mc_estimates(policy, arms, T, R, seed):
    out = run_batch(R, len(arms), T, policy, arms, substream(seed), record_logs=True)
    props = propensity(policy, out.actions, out.rewards, len(arms))
    return ipw_batch(out.actions, out.rewards, props), aipw_batch(out.actions, out.rewards, props)


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
    np.testing.assert_allclose(aipw_estimate(log, props),
                               ipw_estimate(log, props) + augmentation, rtol=0, atol=1e-12)
    # Only the last reward is nonzero, so every plug-in mean is 0.
    log.rewards[:-1] = 0.0
    props = propensity_trace(log)
    assert np.all(plugin_mean_trace(log) == 0.0)
    np.testing.assert_allclose(aipw_estimate(log, props),
                               ipw_estimate(log, props), rtol=0, atol=1e-12)


def test_zero_propensity_raises():
    log = run_experiment(2, 20, EgSpec(0.3), [Gaussian(1, 1), Gaussian(1.5, 1)], seed=2)
    props = propensity_trace(log).copy()
    props[7, int(log.actions[7])] = 0.0
    with pytest.raises(DivisionHazard) as exc:
        ipw_estimate(log, props)
    assert exc.value.t == 7
    with pytest.raises(DivisionHazard):
        aipw_estimate(log, props)


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
    assert np.all(np.isfinite(ipw_estimate(log, props)))
    assert np.all(np.isfinite(aipw_estimate(log, props)))


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
