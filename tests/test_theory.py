import ast
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias import theory as th
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

    def test_mean_pmf_long_binomial(self):
        values, probs = th.mean_pmf(B3, 4000)
        counts = np.rint(values * 4000).astype(int)
        reference = scipy.stats.binom.pmf(counts, 4000, 0.3)
        resolved = reference > 1e-250
        assert resolved.sum() > 1800
        np.testing.assert_allclose(probs[resolved], reference[resolved], rtol=1e-11)

    def test_mean_pmf_long_lattice_keeps_mass_and_mean(self):
        d = FiniteDiscrete([0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.2, 0.15, 0.25])
        values, probs = th.mean_pmf(d, 4000)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(values, probs) == pytest.approx(d.mean(), rel=1e-12)

    def test_mean_pmf_matches_sequential_convolution(self):
        d = FiniteDiscrete([0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.2, 0.15, 0.25])
        base = np.array(d.probs)
        reference = base
        for _ in range(299):
            reference = np.convolve(reference, base)
        values, probs = th.mean_pmf(d, 300)
        np.testing.assert_allclose(values, np.arange(len(reference)) / 1200)
        resolved = reference > 1e-250
        np.testing.assert_allclose(probs[resolved], reference[resolved], rtol=1e-12)

    @pytest.mark.parametrize("m", [64, 257, 340])
    def test_mean_pmf_matches_exact_rationals(self, m):
        """Dyadic probabilities are exact floats, so the exact pmf is integer
        counts over 8^m; every entry, down to 8^-m (1e-58, 1e-232 and, at the
        edge of the normal range, 8.9e-308), is within 1e-13 of it relative
        to itself."""
        counts = (1, 3, 2, 1, 1)
        d = FiniteDiscrete([0.0, 0.25, 0.5, 0.75, 1.0], [c / 8 for c in counts])
        exact = [1]
        for _ in range(m):
            nxt = [0] * (len(exact) + len(counts) - 1)
            for i, a in enumerate(exact):
                for j, c in enumerate(counts):
                    nxt[i + j] += a * c
            exact = nxt
        reference = np.array([float(Fraction(c, 8**m)) for c in exact])
        values, probs = th.mean_pmf(d, m)
        np.testing.assert_allclose(values, np.arange(4 * m + 1) / (4 * m), rtol=1e-15)
        assert reference.min() == 8.0**-m
        np.testing.assert_allclose(probs, reference, rtol=1e-13, atol=0)

    def test_mean_pmf_work_is_a_fraction_of_the_lattice_squared(self, monkeypatch):
        """At m = 4000 the five-atom law's mean lattice has N = 16001 points.
        Symmetric squares and zero-trimmed ends keep the multiply-adds of all
        np.convolve calls under 0.15 N^2; full-length right-to-left binary
        powering took 0.41 N^2."""
        work = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, b: work.append(len(a) * len(b)) or convolve(a, b))
        d = FiniteDiscrete([0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.2, 0.15, 0.25])
        th.mean_pmf(d, 4000)
        assert sum(work) <= 0.15 * (4 * 4000 + 1) ** 2

    def test_mean_pmf_convolves_no_subnormal_operand(self, monkeypatch):
        """Every np.convolve operand entry is 0 or in the normal range: each
        block is scaled by a power of two before it is convolved.  Unscaled
        halves passed 4757 subnormal entries in over these three laws."""
        tiny = np.finfo(float).tiny
        subnormal = []
        convolve = np.convolve

        def spy(a, b):
            subnormal.extend(x for x in (a, b) if ((x > 0) & (x < tiny)).any())
            return convolve(a, b)

        monkeypatch.setattr(np, "convolve", spy)
        five = FiniteDiscrete([0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.2, 0.15, 0.25])
        for d, m in ((five, 4000), (five, 16000), (B3, 4000)):
            th.mean_pmf(d, m)
        assert subnormal == []

    def test_mean_pmf_binomial_at_the_underflow_edge(self):
        """At m = 16000 the Bernoulli(0.3) law spans some 4400 points above
        underflow; every entry down to the smallest normal float matches
        scipy's binomial pmf."""
        values, probs = th.mean_pmf(B3, 16000)
        counts = np.rint(values * 16000).astype(int)
        reference = scipy.stats.binom.pmf(counts, 16000, 0.3)
        normal = reference >= np.finfo(float).tiny
        assert normal.sum() > 4000
        np.testing.assert_allclose(probs[normal], reference[normal], rtol=1e-11)

    def test_general_builds_each_pmf_once(self, monkeypatch):
        calls = []
        mean_pmf = th.mean_pmf
        monkeypatch.setattr(th, "mean_pmf", lambda d, m: calls.append(d) or mean_pmf(d, m))
        arms = [B3, Bernoulli(0.6)]
        th.etc_bias_general(arms, 10, 100)
        assert calls == arms

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
                assert th.etc_bias_general(arms, p.m, p.T)[k - 1] == pytest.approx(
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
            bias = th.etc_bias_general([own, other], m, T)[0]
        assert bias == pytest.approx(identity, rel=1e-12)

    def test_bernoulli_pair_frozen(self):
        arms = [B3, Bernoulli(0.6)]
        assert th.etc_bias_general(arms, 10, 100)[0] == pytest.approx(
            -0.018787962827561525, rel=1e-12)
        assert th.etc_bias_general(arms, 10, 100)[1] == pytest.approx(
            -0.020322338530936554, rel=1e-12)

    def test_near_sure_commitment_has_no_cancellation(self):
        """Bernoulli(0.3) vs Bernoulli(0.52) at T = 4m: arm 2 almost surely
        commits, and summing over its commit event left rounding noise
        (-1.2e-17 and -2.0e-18).  References: 150-digit mpmath sums."""
        arms = [B3, Bernoulli(0.52)]
        for m, (ref1, ref2) in {1000: (-1.62063859836051e-25, -1.76719400376051e-25),
                                4000: (-8.50744363670801e-93, -9.27540895850472e-93)}.items():
            b1, b2 = th.etc_bias_general(arms, m, 4 * m)
            assert b1 < 0 and b2 < 0
            assert b1 == pytest.approx(ref1, rel=1e-9)
            assert b2 == pytest.approx(ref2, rel=1e-9)

    def test_general_bias_negative_and_zero_cases(self):
        arms = [B3, Bernoulli(0.6)]
        assert th.etc_bias_general(arms, 10, 20)[0] == 0.0
        for k in (1, 2):
            assert th.etc_bias_general(arms, 5, 50)[k - 1] < 0

    def test_ties_are_exact_far_from_the_origin(self):
        """Laws on {c, c + 1} moved together by c: every tie stays a tie, so
        the biases stay put.  An absolute 1e-12 tie tolerance, below one ulp
        at 1e6, sent ties to arm 2 there (-0.0153686 for -0.0189214)."""
        biases = []
        for c in (0.0, 1e3, 1e6):
            arms = [FiniteDiscrete([c, c + 1], [0.6, 0.4]), FiniteDiscrete([c, c + 1], [0.5, 0.5])]
            biases.append(th.etc_bias_general(arms, 20, 80))
        assert biases[0][1] == pytest.approx(-0.0189214, abs=5e-8)
        for moved in biases[1:]:
            assert moved == pytest.approx(biases[0], rel=1e-9)

    @pytest.mark.parametrize("c", [1e3, 1000000.02, 1e6])
    def test_exact_tail_threshold_on_the_lattice_far_from_the_origin(self, c):
        """The threshold c + 0.6 is a lattice point of the 20-sample mean; at
        c = 1000000.02 the mean's float fell below the threshold's by more
        than 1e-12 and left the tail."""
        ref = th.exact_mean_tail(FiniteDiscrete([0, 1], [0.7, 0.3]), 0.6, 20)
        prob, expect = th.exact_mean_tail(FiniteDiscrete([c, c + 1], [0.7, 0.3]), c + 0.6, 20)
        assert prob == pytest.approx(ref[0], rel=1e-12)
        assert expect == pytest.approx(ref[1], rel=1e-6)

    def test_point_mass_off_every_lattice(self):
        """A point mass with no rational form shares no lattice with Bernoulli
        means: no tie, arm 1 commits on Xbar >= y, and the tail needs no lattice."""
        y, m, T = (math.sqrt(5) - 1) / 2, 40, 160
        values, probs = th.mean_pmf(B3, m)
        above = values >= y
        expected = (T - 2 * m) / (T - m) * np.dot(probs[above], 0.3 - values[above])
        assert th.etc_bias_general([B3, Gaussian(y, 0.0)], m, T)[0] == pytest.approx(expected, rel=1e-12)
        assert th.exact_mean_tail(B3, y, m)[0] == pytest.approx(probs[above].sum(), rel=1e-12)

    def test_lattice_too_fine_for_floats_raises(self):
        # spacing 1e-3 / 1000 against means near 1e9: float rounding could break a tie
        arms = [FiniteDiscrete([1e9, 1e9 + 1e-3], [0.5, 0.5])] * 2
        with pytest.raises(EnumerationTooLarge, match="float resolution"):
            th.etc_bias_general(arms, 1000, 4000)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 4000),
        st.one_of(
            st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
            st.tuples(*[st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5)] * 2),
        ),
    )
    def test_exact_bias_is_never_positive(self, m, params):
        """Both arms' exact ETC biases at T = 4m are <= 0, for Bernoulli and
        five-atom lattice pairs (Shin, Ramdas and Rinaldo, NeurIPS 2019)."""
        if isinstance(params[0], float):
            arms = [Bernoulli(p) for p in params]
        else:
            arms = [FiniteDiscrete([0.0, 0.25, 0.5, 0.75, 1.0], np.array(w) / sum(w)) for w in params]
        b1, b2 = th.etc_bias_general(arms, m, 4 * m)
        assert b1 <= 0 and b2 <= 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 60),
        st.one_of(st.sampled_from([0.0, 1.0, 1e3, 1e6]), st.integers(0, 10**6).map(float)),
        st.sampled_from([1, 2, 4, 5, 10]),
        st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True),
        st.lists(st.floats(1e-12, 5e-8), max_size=2),
        st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    )
    def test_mean_pmf_keeps_its_mass_or_raises(self, m, offset, q, ks, nudges, weights):
        """Atoms offset + k/q, some nudged by at most 5e-8 (near-coincident
        pairs, which the denominator cap merges or cannot place): the m-sample
        mean pmf sums to 1, or mean_pmf raises.  It never returns a short pmf."""
        grid = [offset + k / q for k in ks]
        support = sorted({*grid, *(x + e for x, e in zip(grid, nudges))})
        w = np.array(weights[:len(support)])
        d = FiniteDiscrete(support, w / w.sum())
        try:
            _, probs = th.mean_pmf(d, m)
        except (ValueError, EnumerationTooLarge):
            return
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tie_convention_splits_between_arms(self):
        # identical arms: arm 1 wins ties, so its commit set is larger and its
        # bias magnitude differs from arm 2's unless the law is continuous
        arms = [Bernoulli(0.3), Bernoulli(0.3)]
        b1 = th.etc_bias_general(arms, 4, 20)[0]
        b2 = th.etc_bias_general(arms, 4, 20)[1]
        assert b1 < 0 and b2 < 0
        assert b1 != b2  # the atom mass on exact ties goes to arm 1 only


def _solve(d, x):
    """legendre_fenchel, with its slope residual checked in the law's centred coordinate."""
    rate, zeta = th.legendre_fenchel(d, x)
    assert abs(d.centred_log_mgf(zeta)[1] - (x - d.mean())) <= th._SLOPE_TOL
    return rate, zeta


FIVE = FiniteDiscrete((0.0, 0.25, 0.5, 0.75, 1.0), (0.1, 0.2, 0.3, 0.25, 0.15))


class TestLegendreFenchel:
    def test_bernoulli_frozen(self):
        rate, zeta = _solve(B3, 0.6)
        assert zeta == pytest.approx(math.log(3.5), rel=1e-12)
        assert rate == pytest.approx(0.19204199316179815, rel=1e-12)

    def test_bernoulli_kl_identity(self):
        # for Bernoulli the rate equals KL(Ber(x) || Ber(p))
        x, p = 0.6, 0.3
        kl = x * math.log(x / p) + (1 - x) * math.log((1 - x) / (1 - p))
        rate, _ = _solve(B3, x)
        assert rate == pytest.approx(kl, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-9, 1 - 1e-9])
    def test_bernoulli_near_the_hull_edges(self, x):
        p = 0.3
        kl = x * math.log(x / p) + (1 - x) * math.log((1 - x) / (1 - p))
        rate, zeta = _solve(B3, x)
        assert rate == pytest.approx(kl, rel=1e-12)
        # The slope's rounding (1e-16) moves the tilt by that over eta'' = x(1 - x).
        assert zeta == pytest.approx(math.log(x / (1 - x) * (1 - p) / p), abs=1e-15 / (x * (1 - x)))

    def test_gaussian_quadratic_rate(self):
        d = Gaussian(1.0, 2.0)
        for x in (1.5, 2.0, -1.0):
            rate, zeta = _solve(d, x)
            assert rate == pytest.approx((x - 1.0) ** 2 / 4.0, rel=1e-10)
            assert zeta == pytest.approx((x - 1.0) / 2.0, rel=1e-10)

    def test_gaussian_far_from_the_origin(self):
        assert _solve(Gaussian(1e8, 4.0), 1e8 + 2.0) == (0.5, 0.5)

    @pytest.mark.parametrize("x", [1 - 1e-9, 1 - 1e-6, 0.99, 0.3, 1e-6])
    def test_five_atom_law_is_the_supremum(self, x):
        """Near the top atom the rate climbs to -log P(X = 1); everywhere it dominates h x - eta(h)."""
        rate, zeta = _solve(FIVE, x)

        def rate_at(h):
            """h x - log E[exp(h X)], the log-mgf being the centred one plus the mean shift h * mean."""
            return h * x - (FIVE.mean() * h + FIVE.centred_log_mgf(h)[0])

        assert rate == pytest.approx(rate_at(zeta), rel=1e-12)
        for h in np.linspace(zeta - 5.0, zeta + 5.0, 41):
            assert rate_at(h) <= rate + 1e-12 * max(1.0, abs(h))
        if x > 0.99:
            assert -math.log(0.15) - 1e-4 < rate < -math.log(0.15)

    def test_rate_zero_at_mean(self):
        assert th.legendre_fenchel(B3, 0.3) == (0.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            th.legendre_fenchel(B3, 1.0)
        with pytest.raises(OutOfRange):
            th.legendre_fenchel(B3, -0.1)

    def test_zero_probability_atom_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"\(0.0, 0.5\)"):
            th.legendre_fenchel(FiniteDiscrete([0, 0.5, 1], [0.5, 0.5, 0]), 0.8)

    @pytest.mark.parametrize("c", [0.0, 1.0, 1e6, 1e8, -1e8])
    def test_finite_law_far_from_the_origin(self, c):
        """The two-atom law {c, c + 1} is Bernoulli(0.3) moved by c: the same profile at the
        threshold's own offset, and at 0.6 up to the rounding of c + 0.6."""
        x = c + 0.6
        prof = th.bahadur_rao_constants(FiniteDiscrete([c, c + 1], [0.7, 0.3]), x)
        _solve(prof.distribution, x)
        ref = th.bahadur_rao_constants(B3, x - c)
        for name in ("rate", "zeta", "eta_second", "c0"):
            assert getattr(prof, name) == pytest.approx(getattr(ref, name), rel=1e-12), name
        tol = 5e-8 if abs(c) > 1e6 else 5e-10
        assert prof.rate == pytest.approx(0.19204199316179815, rel=tol)
        assert prof.eta_second == pytest.approx(0.24, rel=tol)
        assert prof.c_star == pytest.approx(0.3 / (1.0 - 1.0 / 3.5), rel=tol)  # c0 |mean - threshold|

    def test_rate_convex_increasing_above_mean(self):
        xs = np.linspace(0.35, 0.9, 12)
        rates = [_solve(B3, float(x))[0] for x in xs]
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

    def test_zero_probability_atom_is_not_on_the_lattice(self):
        """Support {0, 1}: span 1 and c0 = 1/(1 - e^-zeta) = 1.5 at zeta = log 3, not the phantom 0.5-lattice."""
        prof = th.bahadur_rao_constants(FiniteDiscrete([0, 0.5, 1], [0.5, 0, 0.5]), 0.75)
        assert prof.zeta == pytest.approx(math.log(3.0), rel=1e-12)
        assert prof.span == 1.0 and prof.threshold_span == 0.25
        assert prof.c0 == pytest.approx(1.5, rel=1e-12)
        assert prof.caveat is True

    def test_threshold_on_an_atom_far_from_the_origin(self):
        """Atoms 1e6 + j/10: a threshold at 1e6 + 0.7, or one float either side
        of it (arm 2's mean rounds to either), is an atom, so no caveat.  An
        absolute 1e-12 test, below one ulp at 1e6, flagged the neighbours."""
        d = FiniteDiscrete([1e6 + j / 10 for j in range(11)], [0.3] + [0.07] * 10)
        mu2 = FiniteDiscrete([1e6, 1e6 + 1], [0.3, 0.7]).mean()
        for x in (mu2, math.nextafter(mu2, 0.0), math.nextafter(mu2, math.inf)):
            prof = th.bahadur_rao_constants(d, x)
            assert prof.span == pytest.approx(0.1) and prof.threshold_span == pytest.approx(0.1)
            assert prof.caveat is False

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
        exact = th.etc_bias_general([B3, Gaussian(0.6, 0.0)], 50, 200)[0]
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

    def test_rate_ratio_rejects_degenerate(self):
        with pytest.raises(OutOfRange):
            th.bootstrap_rate_ratio_check(Gaussian(1.0, 0.0), 1.5, [10], 10, seed=0)


def test_rationalization_lives_in_one_helper():
    """Fraction(...), limit_denominator and math.gcd/lcm appear in theory.py
    only inside _as_fraction and _lattice, so every lattice fact is read from
    one rationalization."""
    tree = ast.parse(Path(th.__file__).read_text())
    helpers = [range(n.lineno, n.end_lineno + 1) for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name in ("_as_fraction", "_lattice")]

    def rationalizes(f):
        if isinstance(f, ast.Name):
            return f.id == "Fraction"
        math_call = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "math"
        return isinstance(f, ast.Attribute) and (f.attr == "limit_denominator" or math_call and f.attr in ("gcd", "lcm"))

    found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and rationalizes(n.func)
             and not any(n.lineno in lines for lines in helpers)]
    assert len(helpers) == 2 and found == []


def test_convolution_lives_in_one_helper():
    """np.convolve appears in theory.py only inside _convolve, so every law
    is convolved from scaled blocks."""
    tree = ast.parse(Path(th.__file__).read_text())
    helper = [range(n.lineno, n.end_lineno + 1) for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "_convolve"]
    found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "convolve"]
    assert len(helper) == 1 and found and all(line in helper[0] for line in found)
