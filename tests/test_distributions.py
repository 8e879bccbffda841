import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandit_debias import distributions as dist
from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias.streams import substream


def log_mgf(d, h):
    """log E[exp(h X)]: the centred cumulant plus the mean shift h * mean."""
    return d.mean() * h + d.centred_log_mgf(h)[0]


def log_mgf_derivatives(d, h):
    """Its first two derivatives at h, the tilted law's mean and variance: the centred ones, the first shifted by the mean."""
    _, d1, d2 = d.centred_log_mgf(h)
    return d.mean() + d1, d2


VARIANTS = [
    Gaussian(1.0, 1.0),
    Gaussian(-2.0, 0.25),
    Bernoulli(0.3),
    Bernoulli(0.95),
    FiniteDiscrete((0.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
]


def test_sample_degenerate_gaussian():
    rng = substream(0)
    draws = Gaussian(5.0, 0.0).sample(rng, 100)
    assert np.all(draws == 5.0)


def test_sample_degenerate_bernoulli():
    rng = substream(0)
    assert np.all(Bernoulli(1.0).sample(rng, 100) == 1.0)
    assert np.all(Bernoulli(0.0).sample(substream(1), 100) == 0.0)


def test_gaussian_sample_mean_clt():
    draws = Gaussian(1.0, 1.0).sample(substream(42), 10**6)
    assert abs(draws.mean() - 1.0) < 0.004  # 4 sigma / sqrt(n)


@pytest.mark.parametrize("d", VARIANTS)
def test_moments_against_monte_carlo(d):
    draws = d.sample(substream(7), 10**6)
    se_mean = math.sqrt(d.variance() / 10**6)
    assert abs(draws.mean() - d.mean()) <= 4 * se_mean + 1e-12
    # fourth-moment SE for the variance estimate
    c = draws - d.mean()
    se_var = math.sqrt(max((c**4).mean() - d.variance() ** 2, 0.0) / 10**6)
    assert abs(c.var() - d.variance()) <= 4 * se_var + 1e-9


def test_log_mgf_gaussian_closed_form():
    d = Gaussian(1.0, 1.0)
    for h in (-3.0, -0.5, 0.0, 0.7, 2.0):
        assert log_mgf(d, h) == pytest.approx(h + 0.5 * h * h, abs=1e-12)


@pytest.mark.parametrize("d", VARIANTS)
def test_log_mgf_zero(d):
    assert log_mgf(d, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_log_mgf_bernoulli_value():
    got = log_mgf(Bernoulli(0.3), math.log(3.5))
    assert got == pytest.approx(math.log(1.75), abs=1e-12)
    assert got == pytest.approx(0.559616, abs=1e-6)


def test_log_mgf_derivatives_gaussian():
    d = Gaussian(1.0, 1.0)
    for h in (-2.0, 0.0, 1.3):
        d1, d2 = log_mgf_derivatives(d, h)
        assert d1 == pytest.approx(1.0 + h, abs=1e-12)
        assert d2 == pytest.approx(1.0, abs=1e-12)


def test_log_mgf_derivatives_tilted_bernoulli():
    d1, d2 = log_mgf_derivatives(Bernoulli(0.3), math.log(3.5))
    assert d1 == pytest.approx(0.6, abs=1e-12)
    assert d2 == pytest.approx(0.24, abs=1e-12)


@pytest.mark.parametrize("d", VARIANTS)
def test_cumulants_at_zero(d):
    d1, d2 = log_mgf_derivatives(d, 0.0)
    assert d1 == pytest.approx(d.mean(), abs=1e-12)
    assert d2 == pytest.approx(d.variance(), abs=1e-12)


def test_degenerate_law_zero_curvature():
    _, d2 = log_mgf_derivatives(Gaussian(2.0, 0.0), 1.0)
    assert d2 == 0.0
    for law in (Bernoulli(0.0), Bernoulli(1.0)):  # every centred cumulant is 0, at any tilt
        for h in (-40.0, 0.5, 40.0):
            assert law.centred_log_mgf(h) == (0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    h1=st.floats(-5, 5),
    h2=st.floats(-5, 5),
    lam=st.floats(0.01, 0.99),
    which=st.integers(0, len(VARIANTS) - 1),
)
def test_log_mgf_convexity(h1, h2, lam, which):
    d = VARIANTS[which]
    mid = log_mgf(d, lam * h1 + (1 - lam) * h2)
    assert mid <= lam * log_mgf(d, h1) + (1 - lam) * log_mgf(d, h2) + 1e-10


@pytest.mark.parametrize("d", VARIANTS)
@pytest.mark.parametrize("h", [-5.0, -1.0, -0.1, 0.3, 2.5, 5.0])
def test_derivative_matches_finite_difference(d, h):
    eps = 1e-6
    d1, _ = log_mgf_derivatives(d, h)
    fd = (log_mgf(d, h + eps) - log_mgf(d, h - eps)) / (2 * eps)
    assert d1 == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_sampling_determinism():
    a = Bernoulli(0.3).sample(substream(5, 1, 2), 1000)
    b = Bernoulli(0.3).sample(substream(5, 1, 2), 1000)
    assert np.array_equal(a, b)


def test_variance_proxy_defaults():
    assert Gaussian(0.0, 2.5).variance_proxy() == 2.5
    assert Bernoulli(0.3).variance_proxy() == 0.25  # (1-0)^2/4
    assert FiniteDiscrete((0.0, 4.0), (0.5, 0.5)).variance_proxy() == 4.0
    assert Bernoulli(0.3, proxy=0.21).variance_proxy() == 0.21
    assert Gaussian(0.0, 2.5, proxy=3.0).variance_proxy() == 3.0
    assert FiniteDiscrete((0.0, 4.0), (0.5, 0.5), proxy=5.0).variance_proxy() == 5.0


@pytest.mark.parametrize("d", VARIANTS + [Gaussian(0.7, 0.0)])
def test_atoms_match_law(d):
    atoms = d.atoms()
    continuous = isinstance(d, Gaussian) and d.var > 0
    assert (atoms is None) == continuous
    if not continuous:
        support, probs = atoms
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(support, probs) == pytest.approx(d.mean(), rel=1e-12)


def test_zero_probability_atoms_are_not_support():
    d = FiniteDiscrete((-1.0, 0.0, 0.5, 1.0, 3.0), (0.0, 0.5, 0.0, 0.5, 0.0))
    support, probs = d.atoms()
    assert support.tolist() == [0.0, 1.0] and probs.tolist() == [0.5, 0.5]
    assert d.variance_proxy() == 0.25
    assert Bernoulli(0.0).atoms()[0].tolist() == [0.0]
    assert Bernoulli(1.0).atoms()[0].tolist() == [1.0]
    assert set(d.sample(substream(3), 1000)) == {0.0, 1.0}


def test_zero_probability_atom_carries_no_tilt_weight():
    # log(1/2 + e^{h/2}/2): the phantom atom at 1 would dominate a large tilt.
    d = FiniteDiscrete((0.0, 0.5, 1.0), (0.5, 0.5, 0.0))
    for h in (2.0, 50.0, 1000.0):
        assert log_mgf(d, h) == pytest.approx(h / 2 + math.log(0.5) + math.log1p(math.exp(-h / 2)), rel=1e-14)
        d1, d2 = log_mgf_derivatives(d, h)
        e = math.exp(-h / 2)
        q, low = 1.0 / (1.0 + e), e / (1.0 + e)  # tilted masses on 0.5 and on 0
        assert d1 == pytest.approx(0.5 * q, rel=1e-14)
        assert d2 == pytest.approx(0.25 * q * low, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [0.0, 1e6, 1e8, -1e8])
def test_finite_cumulants_are_shift_invariant(c):
    """E[x^2] - E[x]^2 would cancel to 0 at a large offset; the centred form keeps the tilted variance."""
    d, ref = FiniteDiscrete((c, c + 1.0), (0.7, 0.3)), Bernoulli(0.3)
    offset = (d.mean() - c) - 0.3  # the float mean's own rounding shifts the centred atoms by -offset
    for h in (-3.0, 0.0, math.log(3.5), 4.0):
        eta, d1, d2 = d.centred_log_mgf(h)
        ref_eta, ref_d1, ref_d2 = ref.centred_log_mgf(h)
        assert eta == pytest.approx(ref_eta - h * offset, rel=1e-12, abs=1e-15)
        assert d1 == pytest.approx(ref_d1 - offset, rel=1e-12, abs=1e-15)
        assert d2 == pytest.approx(ref_d2, rel=1e-12)
    assert log_mgf_derivatives(d, math.log(3.5))[1] == pytest.approx(0.24, rel=1e-12)


def test_finite_discrete_validation():
    with pytest.raises(ValueError):
        FiniteDiscrete((1.0, 0.0), (0.5, 0.5))  # not increasing
    with pytest.raises(ValueError):
        FiniteDiscrete((0.0, 1.0), (0.6, 0.6))  # probs do not sum to 1
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteDiscrete((0.0, 1.0), (-0.5, 1.5))  # sums to 1
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        Gaussian(0.0, -1.0)


@pytest.mark.parametrize("make", [
    lambda: Gaussian(math.nan, 1.0),
    lambda: Gaussian(0.0, math.inf),
    lambda: Gaussian(0.0, 1.0, proxy=math.nan),
    lambda: Bernoulli(0.5, proxy=math.inf),
    lambda: FiniteDiscrete((0.0, 1.0), (math.nan, 1.0)),
    lambda: FiniteDiscrete((0.0, math.nan), (0.5, 0.5)),
    lambda: FiniteDiscrete((-math.inf, 0.0), (0.5, 0.5)),
    lambda: FiniteDiscrete((0.0, 1.0), (0.5, 0.5), proxy=math.nan),
], ids=["gaussian_nan_mean", "gaussian_inf_variance", "gaussian_nan_proxy", "bernoulli_inf_proxy",
        "discrete_nan_prob", "discrete_nan_support", "discrete_inf_support", "discrete_nan_proxy"])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_from_dict_round_trip():
    for d in VARIANTS:
        again = dist.from_dict(d.to_dict())
        assert again == d or np.allclose(
            [again.mean(), again.variance()], [d.mean(), d.variance()]
        )
    g = dist.from_dict({"type": "gaussian", "mean": 1.0, "variance": 1.0})
    assert g == Gaussian(1.0, 1.0)
    with pytest.raises((ValueError, KeyError)):
        dist.from_dict({"type": "poisson", "rate": 2.0})

