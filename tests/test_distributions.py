import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandit_debias import distributions as dist
from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias.streams import substream


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
        assert d.log_mgf(h) == pytest.approx(h + 0.5 * h * h, abs=1e-12)


@pytest.mark.parametrize("d", VARIANTS)
def test_log_mgf_zero(d):
    assert d.log_mgf(0.0) == 0.0


def test_log_mgf_bernoulli_value():
    got = Bernoulli(0.3).log_mgf(math.log(3.5))
    assert got == pytest.approx(math.log(1.75), abs=1e-12)
    assert got == pytest.approx(0.559616, abs=1e-6)


def test_log_mgf_derivatives_gaussian():
    d = Gaussian(1.0, 1.0)
    for h in (-2.0, 0.0, 1.3):
        d1, d2 = d.log_mgf_derivatives(h)
        assert d1 == pytest.approx(1.0 + h, abs=1e-12)
        assert d2 == pytest.approx(1.0, abs=1e-12)


def test_log_mgf_derivatives_tilted_bernoulli():
    d1, d2 = Bernoulli(0.3).log_mgf_derivatives(math.log(3.5))
    assert d1 == pytest.approx(0.6, abs=1e-12)
    assert d2 == pytest.approx(0.24, abs=1e-12)


@pytest.mark.parametrize("d", VARIANTS)
def test_cumulants_at_zero(d):
    d1, d2 = d.log_mgf_derivatives(0.0)
    assert d1 == pytest.approx(d.mean(), abs=1e-12)
    assert d2 == pytest.approx(d.variance(), abs=1e-12)


def test_degenerate_law_zero_curvature():
    _, d2 = Gaussian(2.0, 0.0).log_mgf_derivatives(1.0)
    assert d2 == 0.0


@settings(max_examples=200, deadline=None)
@given(
    h1=st.floats(-5, 5),
    h2=st.floats(-5, 5),
    lam=st.floats(0.01, 0.99),
    which=st.integers(0, len(VARIANTS) - 1),
)
def test_log_mgf_convexity(h1, h2, lam, which):
    d = VARIANTS[which]
    mid = d.log_mgf(lam * h1 + (1 - lam) * h2)
    assert mid <= lam * d.log_mgf(h1) + (1 - lam) * d.log_mgf(h2) + 1e-10


@pytest.mark.parametrize("d", VARIANTS)
@pytest.mark.parametrize("h", [-5.0, -1.0, -0.1, 0.3, 2.5, 5.0])
def test_derivative_matches_finite_difference(d, h):
    eps = 1e-6
    d1, _ = d.log_mgf_derivatives(h)
    fd = (d.log_mgf(h + eps) - d.log_mgf(h - eps)) / (2 * eps)
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


@pytest.mark.parametrize("d", VARIANTS + [Gaussian(0.7, 0.0)])
def test_atoms_match_law(d):
    atoms = d.atoms()
    continuous = isinstance(d, Gaussian) and d.var > 0
    assert (atoms is None) == continuous
    if not continuous:
        support, probs = atoms
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(support, probs) == pytest.approx(d.mean(), rel=1e-12)


def test_finite_discrete_validation():
    with pytest.raises(ValueError):
        FiniteDiscrete((1.0, 0.0), (0.5, 0.5))  # not increasing
    with pytest.raises(ValueError):
        FiniteDiscrete((0.0, 1.0), (0.6, 0.6))  # probs do not sum to 1
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        Gaussian(0.0, -1.0)


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

