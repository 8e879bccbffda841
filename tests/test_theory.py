import math

import warnings

import numpy as np
import pytest
import scipy.stats

from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias import theory as th
from bandit_debias.policies import EtcSpec
from bandit_debias.simulator import run_batch
from bandit_debias.streams import substream
from bandit_debias.theory import (
    EnumerationTooLarge,
    EtcGaussianParams,
    LogOfZero,
    OutOfRange,
)

STANDARD = EtcGaussianParams(1.0, 1.5, 1.0, 1.0, 10, 100)
B3 = Bernoulli(0.3)


class TestEtcGaussianBias:
    def test_standard_cell(self):
        # equal variances make the two arm biases identical here
        assert th.etc_bias_gaussian(STANDARD, 1) == pytest.approx(-0.04244323658076058, rel=1e-14)
        assert th.etc_bias_gaussian(STANDARD, 2) == pytest.approx(-0.042446, abs=5e-6)

    def test_always_negative(self):
        for mu2 in (0.0, 1.0, 3.0):
            for var2 in (0.5, 2.0):
                p = EtcGaussianParams(1.0, mu2, 1.0, var2, 5, 40)
                assert th.etc_bias_gaussian(p, 1) < 0
                assert th.etc_bias_gaussian(p, 2) < 0

    def test_zero_at_pure_exploration(self):
        p = EtcGaussianParams(1.0, 1.5, 1.0, 1.0, 10, 20)
        assert th.etc_bias_gaussian(p, 1) == 0.0
        with pytest.raises(LogOfZero):
            th.g_value(p.mu1, p.mu2, p.var1, p.var2, p.m, p.T, 1)

    def test_log_form_consistent(self):
        s = STANDARD
        for k in (1, 2):
            assert math.exp(th.g_value(s.mu1, s.mu2, s.var1, s.var2, s.m, s.T, k)) == pytest.approx(
                -th.etc_bias_gaussian(STANDARD, k), rel=1e-12)

    def test_bias_scales_with_own_variance(self):
        p = EtcGaussianParams(1.0, 1.5, 2.0, 0.5, 10, 100)
        b1, b2 = th.etc_bias_gaussian(p, 1), th.etc_bias_gaussian(p, 2)
        assert b1 / b2 == pytest.approx(4.0, rel=1e-12)

    def test_vanishes_with_gap(self):
        biases = [
            abs(th.etc_bias_gaussian(EtcGaussianParams(1.0, 1.0 + gap, 1.0, 1.0, 10, 100), 1))
            for gap in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(biases, biases[1:]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EtcGaussianParams(1.0, 1.5, 0.0, 1.0, 10, 100)
        with pytest.raises(ValueError):
            EtcGaussianParams(1.0, 1.5, 1.0, 1.0, 10, 19)
        with pytest.raises(ValueError):
            th.etc_bias_gaussian(STANDARD, 3)


class TestExactEnumeration:
    def test_mean_pmf_is_binomial(self):
        values, probs = th.mean_pmf(B3, 10)
        np.testing.assert_allclose(values, np.arange(11) / 10)
        np.testing.assert_allclose(probs, scipy.stats.binom.pmf(np.arange(11), 10, 0.3),
                                   rtol=1e-12)

    def test_mean_pmf_lattice_with_offsets(self):
        d = FiniteDiscrete([0.1, 0.3, 0.7], [0.5, 0.25, 0.25])
        values, probs = th.mean_pmf(d, 3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(values, probs) == pytest.approx(d.mean(), rel=1e-12)
        assert values[0] == pytest.approx(0.1) and values[-1] == pytest.approx(0.7)

    def test_mean_pmf_cap(self):
        # a 5e6 + 1 point lattice is one past the cap; raised before convolving
        with pytest.raises(EnumerationTooLarge):
            th.mean_pmf(B3, 5_000_000)

    def test_non_rational_support_is_not_lattice(self):
        # 1e-7 * sqrt(2) has no fraction with denominator <= 1e6 within 1e-9
        d = FiniteDiscrete([0.0, 1e-7 * math.sqrt(2)], [0.5, 0.5])
        prof = th.bahadur_rao_constants(d, 1e-7)
        assert prof.lattice is False
        assert prof.span is None and prof.threshold_span is None
        assert prof.c0 == pytest.approx(1.0 / abs(prof.zeta), rel=1e-12)
        with pytest.raises(ValueError):
            th.mean_pmf(d, 3)

    def test_exact_tail_matches_scipy(self):
        prob, expect = th.exact_mean_tail(B3, 0.6, 20)
        assert prob == pytest.approx(1 - scipy.stats.binom.cdf(11, 20, 0.3), rel=1e-10)
        assert expect <= 0  # integrand is mu2 - Xbar on {Xbar >= mu2}

    def test_general_matches_gaussian_closed_form(self):
        for p in (STANDARD, EtcGaussianParams(0.2, -0.4, 2.0, 0.5, 7, 30),
                  EtcGaussianParams(1.0, 1.0, 0.3, 3.0, 40, 160), EtcGaussianParams(0.0, 2.0, 1.0, 1.0, 1, 5)):
            arms = [Gaussian(p.mu1, p.var1), Gaussian(p.mu2, p.var2)]
            for k in (1, 2):
                assert th.etc_bias_general(arms, p.m, p.T, k) == pytest.approx(
                    th.etc_bias_gaussian(p, k), rel=1e-12, abs=1e-300)

    def test_gaussian_against_finite_arm_is_exact(self):
        """Gaussian(1, 1) against Bernoulli(0.3): the enumeration identity
        (T-2m)/(T-m) sum_v P(Ybar=v) (-s phi((v-mu)/s)), with no warning."""
        m, T = 40, 160
        own, other = Gaussian(1.0, 1.0), Bernoulli(0.3)
        values, probs = th.mean_pmf(other, m)
        s = math.sqrt(1.0 / m)
        identity = (T - 2 * m) / (T - m) * np.dot(probs, -s * scipy.stats.norm.pdf((values - 1.0) / s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bias = th.etc_bias_general([own, other], m, T, 1)
        assert bias == pytest.approx(identity, rel=1e-12)

    def test_bernoulli_pair_frozen(self):
        arms = [B3, Bernoulli(0.6)]
        assert th.etc_bias_general(arms, 10, 100, 1) == pytest.approx(
            -0.018787962827561525, rel=1e-12)
        assert th.etc_bias_general(arms, 10, 100, 2) == pytest.approx(
            -0.020322338530936554, rel=1e-12)

    def test_general_bias_negative_and_zero_cases(self):
        arms = [B3, Bernoulli(0.6)]
        assert th.etc_bias_general(arms, 10, 20, 1) == 0.0
        for k in (1, 2):
            assert th.etc_bias_general(arms, 5, 50, k) < 0

    def test_tie_convention_splits_between_arms(self):
        # identical arms: arm 1 wins ties, so its commit set is larger and its
        # bias magnitude differs from arm 2's unless the law is continuous
        arms = [Bernoulli(0.3), Bernoulli(0.3)]
        b1 = th.etc_bias_general(arms, 4, 20, 1)
        b2 = th.etc_bias_general(arms, 4, 20, 2)
        assert b1 < 0 and b2 < 0
        assert b1 != b2  # the atom mass on exact ties goes to arm 1 only


class TestLegendreFenchel:
    def test_bernoulli_frozen(self):
        rate, zeta = th.legendre_fenchel(B3, 0.6)
        assert zeta == pytest.approx(math.log(3.5), rel=1e-12)
        assert rate == pytest.approx(0.19204199316179815, rel=1e-12)

    def test_bernoulli_kl_identity(self):
        # for Bernoulli the rate equals KL(Ber(x) || Ber(p))
        x, p = 0.6, 0.3
        kl = x * math.log(x / p) + (1 - x) * math.log((1 - x) / (1 - p))
        rate, _ = th.legendre_fenchel(B3, x)
        assert rate == pytest.approx(kl, rel=1e-12)

    def test_gaussian_quadratic_rate(self):
        d = Gaussian(1.0, 2.0)
        for x in (1.5, 2.0, -1.0):
            rate, zeta = th.legendre_fenchel(d, x)
            assert rate == pytest.approx((x - 1.0) ** 2 / 4.0, rel=1e-10)
            assert zeta == pytest.approx((x - 1.0) / 2.0, rel=1e-10)

    def test_rate_zero_at_mean(self):
        assert th.legendre_fenchel(B3, 0.3) == (0.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            th.legendre_fenchel(B3, 1.0)
        with pytest.raises(OutOfRange):
            th.legendre_fenchel(B3, -0.1)

    def test_rate_convex_increasing_above_mean(self):
        xs = np.linspace(0.35, 0.9, 12)
        rates = [th.legendre_fenchel(B3, float(x))[0] for x in xs]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        diffs = np.diff(rates)
        assert np.all(np.diff(diffs) > 0)


class TestTailAsymptotics:
    def test_profile_frozen(self):
        prof = th.bahadur_rao_constants(B3, 0.6)
        assert prof.zeta == pytest.approx(1.2527629684953678, rel=1e-12)
        assert prof.rate == pytest.approx(0.19204199316179815, rel=1e-12)
        assert prof.eta_second == pytest.approx(0.24, rel=1e-12)
        assert prof.lattice is True
        assert prof.span == pytest.approx(1.0)
        assert prof.threshold_span == pytest.approx(0.2)
        assert prof.c0 == pytest.approx(1.0 / (1.0 - math.exp(-prof.zeta)), rel=1e-12)
        assert prof.caveat is True  # 0.6 is not an atom of the 1-lattice

    def test_gaussian_profile_continuous(self):
        prof = th.bahadur_rao_constants(Gaussian(1.0, 1.0), 1.5)
        assert prof.lattice is False
        assert prof.span is None and prof.threshold_span is None
        assert prof.c0 == pytest.approx(1.0 / prof.zeta, rel=1e-12)
        assert th.tail_expectation_limit(prof) == 1.0

    def test_tail_ratio_converges(self):
        """Exact binomial tail over its sharp approximation climbs toward 1."""
        prof = th.bahadur_rao_constants(B3, 0.6)
        ratios = []
        for m in (25, 50, 100, 200):
            prob, _ = th.exact_mean_tail(B3, 0.6, m)
            approx = prof.c0 * math.exp(-m * prof.rate) / math.sqrt(
                2 * math.pi * m * prof.eta_second)
            ratios.append(prob / approx)
        assert ratios == pytest.approx([0.948719, 0.971762, 0.98505, 0.992284], abs=1e-5)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_normalized_tail_expectation_converges(self):
        prof = th.bahadur_rao_constants(B3, 0.6)
        limit = th.tail_expectation_limit(prof)
        assert limit == pytest.approx(0.8799496213614857, rel=1e-12)
        ratios = []
        for m in (50, 100, 200):
            _, expect = th.exact_mean_tail(B3, 0.6, m)
            ratios.append(th.tail_normalizer(prof, m) * expect / limit)
        assert ratios == pytest.approx([0.860486, 0.922442, 0.958413], abs=1e-5)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_sharp_asymptotic_vs_exact(self):
        asym = th.etc_bias_sharp_asymptotic(B3, 0.6, 50, 200)
        exact = th.etc_bias_general([B3, Gaussian(0.6, 0.0)], 50, 200, 1)
        assert asym == pytest.approx(-2.1794081867182396e-06, rel=1e-12)
        assert exact == pytest.approx(-2.16793698194857e-06, rel=1e-10)
        assert abs(asym - exact) / abs(exact) < 0.01


class TestMonteCarloConvergence:
    def test_plugin_log_bias_ratio_tightens(self):
        res = th.log_bias_ratio_experiment(STANDARD, [10, 1000], 1000, seed=42)
        assert set(res) == {10, 1000}
        for m, r in res.items():
            assert r["ratios"].shape[1] == 2
            assert r["excluded"] == 0  # Gaussian sample variances never degenerate
        # convergence is slow (error decays like 1/sqrt(m) with a large front
        # factor) so only widely separated m values order cleanly
        assert res[1000]["median_abs_error"] < res[10]["median_abs_error"]
        assert res[1000]["frac_within_10pct"] > res[10]["frac_within_10pct"]

    def test_bootstrap_rate_ratio_gaussian(self):
        """Gaussian case: plug-in rate over true rate has bound 1, median near it."""
        res = th.bootstrap_rate_ratio_check(Gaussian(1.0, 1.0), 1.5, [500], 800, seed=7)
        assert res["bound"] == pytest.approx(1.0)
        assert res["rate"] == pytest.approx(0.125, rel=1e-10)
        assert 0.9 < res["per_m"][500]["median"] < 1.1

    def test_bootstrap_rate_ratio_bernoulli_bounded(self):
        res = th.bootstrap_rate_ratio_check(B3, 0.6, [500], 800, seed=8)
        assert res["bound"] == pytest.approx(0.25 / 0.21, rel=1e-12)
        med = res["per_m"][500]["median"]
        assert med < res["bound"]
        assert not res["bound_violated_at_largest_m"]
        assert 1.0 < med < 1.19  # sub-Gaussian slack is real but below the proxy bound

    @pytest.mark.parametrize("arms", [[Gaussian(1.0, 1.0), Gaussian(1.3, 0.5)], [B3, Bernoulli(0.45)]],
                             ids=["gaussian", "bernoulli"])
    def test_summaries_match_round_by_round_etc(self, arms):
        """Sufficient-statistic ETC against run_batch logs: the first two
        moments of each arm's mean and MLE variance agree within 4 SE."""
        m, T, R = 5, 40, 4000
        fast = th._etc_two_arm_summaries(arms, m, T, R, substream(31))
        out = run_batch(R, 2, T, EtcSpec(m), arms, substream(32), record_logs=True)
        pulled = out.actions[:, :, None] == np.arange(2)
        n = pulled.sum(axis=1)
        mean = np.where(pulled, out.rewards[:, :, None], 0.0).sum(axis=1) / n
        var = np.where(pulled, out.rewards[:, :, None] ** 2, 0.0).sum(axis=1) / n - mean**2
        for a, b in zip(fast, (mean, var)):
            for power in (1, 2):
                x, y = a**power, b**power
                se = np.sqrt((x.var(axis=0) + y.var(axis=0)) / R)
                assert np.all(np.abs(x.mean(axis=0) - y.mean(axis=0)) < 4 * se), (power, x.mean(0), y.mean(0))

    def test_rate_ratio_rejects_degenerate(self):
        with pytest.raises(OutOfRange):
            th.bootstrap_rate_ratio_check(Gaussian(1.0, 0.0), 1.5, [10], 10, seed=0)
