"""Exact and asymptotic oracles for the explore-then-commit sample-mean bias.

Contents:

* the two-arm Gaussian closed form for the ETC bias and its log form g_k;
* an exact evaluator of the general two-arm ETC bias identity
  ((T-2m)/(T-m)) E[(mu_k - Xbar_k) 1{arm k committed}] by discrete
  enumeration, or in closed form when arm k is Gaussian;
* the Legendre-Fenchel transform of the log-MGF and the exact-asymptotics
  constants for mean tail probabilities and tail expectations (lattice and
  non-lattice cases);
* the leading-order bias for a sub-Gaussian arm against a deterministic
  competitor, and Monte Carlo checks of the two decay-rate convergence
  results (log-bias ratio -> 1; bootstrap/real rate ratio bounded by
  proxy/variance).

The oracles do not switch on a law's class: ``atoms()`` says whether a law has
finite support (enumeration, lattice constants) or not (Gaussian closed
forms, non-lattice constants), and ``mean()``/``variance()`` give the rest.
Every lattice span is one rational GCD, ``_span``.  The Monte Carlo checks
run at horizon T = 4m and draw each ETC experiment's sufficient statistics
directly (``_etc_two_arm_summaries``), with no loop over rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy import optimize
from scipy.special import ndtr

from .distributions import Gaussian, RewardDistribution
from .simulator import run_batch  # noqa: F401  (perfbench/tracing.py wraps theory.run_batch)
from .streams import TAG_THEORY, substream

_RATIONAL_DENOMINATOR_CAP = 10**6
_ENUMERATION_CAP = 5_000_000  # largest mean lattice mean_pmf convolves
_SLOPE_TOL = 1e-10            # residual |eta'(zeta) - x| of the Legendre-Fenchel tilt


class OutOfRange(Exception):
    """Threshold outside the open range of the log-MGF derivative."""


class LogOfZero(Exception):
    """log|bias| undefined: the bias is exactly zero (T = 2m)."""


class EnumerationTooLarge(Exception):
    """Exact enumeration exceeds the size cap; use a Monte Carlo estimate."""


@dataclass(frozen=True)
class EtcGaussianParams:
    mu1: float
    mu2: float
    var1: float
    var2: float
    m: int
    T: int

    def __post_init__(self):
        if self.var1 <= 0 or self.var2 <= 0:
            raise ValueError("variances must be > 0")
        if self.m < 1 or self.T < 2 * self.m:
            raise ValueError("need m >= 1 and T >= 2m")


def etc_bias_gaussian(p: EtcGaussianParams, k: int) -> float:
    """Closed-form ETC sample-mean bias of arm k in the two-arm Gaussian case."""
    if k not in (1, 2):
        raise ValueError("arm index must be 1 or 2")
    var_k = p.var1 if k == 1 else p.var2
    pooled = p.var1 + p.var2
    return (
        -(p.T - 2 * p.m)
        / (p.T - p.m)
        * var_k
        / math.sqrt(2.0 * math.pi * pooled * p.m)
        * math.exp(-p.m * (p.mu1 - p.mu2) ** 2 / (2.0 * pooled))
    )


def g_value(mu1: float, mu2: float, var1: float, var2: float, m: int, T: int, k: int) -> float:
    """log of the absolute two-arm Gaussian ETC bias at arbitrary arguments."""
    var_k = var1 if k == 1 else var2
    pooled = var1 + var2
    if T == 2 * m:
        raise LogOfZero("bias is exactly zero at T = 2m")
    return (
        math.log((T - 2 * m) / (T - m))
        + math.log(var_k)
        - 0.5 * math.log(2.0 * math.pi * pooled * m)
        - m * (mu1 - mu2) ** 2 / (2.0 * pooled)
    )


# --- exact evaluation of the general two-arm bias identity -----------------


def _as_fraction(x: float) -> Fraction:
    f = Fraction(x).limit_denominator(_RATIONAL_DENOMINATOR_CAP)
    if abs(float(f) - x) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"value {x} has no rational representation under the denominator cap")
    return f


def _gcd_fraction(a: Fraction, b: Fraction) -> Fraction:
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator), a.denominator * b.denominator)


def _span(points: Sequence[Fraction], origin: Fraction) -> Fraction:
    """Largest d0 with every (point - origin)/d0 integral; 0 if all offsets vanish."""
    span = Fraction(0)
    for p in points:
        span = _gcd_fraction(span, p - origin)
    return span


def mean_pmf(d: RewardDistribution, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of the m-sample mean for a finite-support law.

    Supports are mapped to a common rational lattice and the sum law is an
    m-fold convolution on that lattice.  Returns (values, probabilities).
    """
    atoms = d.atoms()
    if atoms is None:
        raise ValueError("mean_pmf needs a finite-support law")
    support, probs = atoms
    if len(support) == 1:
        return support, np.array([1.0])
    fracs = [_as_fraction(x) for x in support]
    step = _span(fracs, fracs[0])
    indices = [int((f - fracs[0]) / step) for f in fracs]
    width = max(indices)
    if (width * m + 1) > _ENUMERATION_CAP:
        raise EnumerationTooLarge(f"lattice of size {width * m + 1} exceeds cap {_ENUMERATION_CAP}")
    base = np.zeros(width + 1)
    base[indices] = probs
    pmf = base
    for _ in range(m - 1):
        pmf = np.convolve(pmf, base)
    values = (float(fracs[0]) * m + np.arange(len(pmf)) * float(step)) / m
    keep = pmf > 0
    return values[keep], pmf[keep]


def _mean_cdf(d: RewardDistribution, m: int, x: np.ndarray, strict: bool) -> np.ndarray:
    """P(Xbar_m < x) (strict) or P(Xbar_m <= x), vectorized over x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d.atoms() is None:
        return ndtr((x - d.mean()) * math.sqrt(m / d.variance()))
    values, probs = mean_pmf(d, m)
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    tol = 1e-12
    side_values = values + tol if strict else values - tol
    idx = np.searchsorted(side_values, x, side="right")
    return cum[idx]


def _std_normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def etc_bias_general(arms: Sequence[RewardDistribution], m: int, T: int, k: int) -> float:
    """Exact ETC bias of arm k (two arms) by enumeration or in closed form.

    The committed arm is the exploration-phase argmax with ties to arm 1,
    so arm 1 commits on Xbar_1 >= Xbar_2 and arm 2 on Xbar_2 > Xbar_1.  A
    Gaussian own arm (sd s of its mean) ties with probability 0 and has
    E[(mu - Xbar) 1{Xbar >= v}] = -s phi((v - mu)/s): summed over the other
    arm's mean pmf, or, against a Gaussian other arm (sd s2), by Stein's
    identity -s^2/r phi((mu - mu2)/r) with r = sqrt(s^2 + s2^2).
    """
    if len(arms) != 2 or k not in (1, 2):
        raise ValueError("two arms required; k in {1, 2}")
    if m < 1 or T < 2 * m:
        raise ValueError("need m >= 1 and T >= 2m")
    own = arms[k - 1]
    other = arms[2 - k]
    mu_own = own.mean()
    if own.atoms() is None:
        sd = math.sqrt(own.variance() / m)
        if other.atoms() is None:
            r = math.sqrt(sd * sd + other.variance() / m)
            expectation = -sd * sd / r * float(_std_normal_pdf((mu_own - other.mean()) / r))
        else:
            values, probs = mean_pmf(other, m)
            expectation = -sd * float(np.dot(probs, _std_normal_pdf((values - mu_own) / sd)))
    else:
        # P(arm k committed | Xbar_own = x); equality goes to arm 1.
        values, probs = mean_pmf(own, m)
        commit = _mean_cdf(other, m, values, strict=k == 2)
        expectation = float(np.dot(probs * (mu_own - values), commit))
    return (T - 2 * m) / (T - m) * expectation


def exact_mean_tail(d: RewardDistribution, mu2: float, m: int) -> tuple[float, float]:
    """Exact (P(Xbar_m >= mu2), E[(mu2 - Xbar_m) 1{Xbar_m >= mu2}]) by enumeration."""
    values, probs = mean_pmf(d, m)
    in_tail = values >= mu2 - 1e-12
    prob = float(probs[in_tail].sum())
    expect = float(np.dot(probs[in_tail], mu2 - values[in_tail]))
    return prob, expect


# --- Legendre-Fenchel transform and exact tail asymptotics -----------------


def _mgf_derivative_range(d: RewardDistribution) -> tuple[float, float]:
    """Open interval of attainable log-MGF slopes: the support's hull."""
    if d.variance() == 0:
        return d.mean(), d.mean()
    atoms = d.atoms()
    if atoms is None:
        return -math.inf, math.inf
    return float(atoms[0][0]), float(atoms[0][-1])


def legendre_fenchel(d: RewardDistribution, x: float) -> tuple[float, float]:
    """Rate Lambda*(x) and tilt zeta with eta'(zeta) = x.

    Solved by bracket expansion plus a safeguarded root find; the residual
    |eta'(zeta) - x| is driven below _SLOPE_TOL.
    """
    lo, hi = _mgf_derivative_range(d)
    if not lo < x < hi:
        if x == d.mean() and d.variance() == 0:
            return 0.0, 0.0
        raise OutOfRange(f"threshold {x} outside the attainable slope range ({lo}, {hi})")
    if x == d.mean():
        return 0.0, 0.0

    def slope_gap(h: float) -> float:
        return d.log_mgf_derivatives(h)[0] - x

    a, b = -1.0, 1.0
    for _ in range(200):
        if slope_gap(a) < 0 < slope_gap(b):
            break
        if slope_gap(a) >= 0:
            a *= 2.0
        if slope_gap(b) <= 0:
            b *= 2.0
    else:
        raise ArithmeticError("failed to bracket the tilt")
    zeta = optimize.brentq(slope_gap, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    # Newton polish against the residual tolerance.
    for _ in range(50):
        d1, d2 = d.log_mgf_derivatives(zeta)
        if abs(d1 - x) <= _SLOPE_TOL:
            break
        if d2 <= 0:
            break
        zeta -= (d1 - x) / d2
    rate = zeta * x - d.log_mgf(zeta)
    return rate, zeta


@dataclass
class LDProfile:
    """Large-deviation profile of one (distribution, threshold) pair."""

    distribution: RewardDistribution
    threshold: float
    zeta: float
    rate: float
    eta_second: float
    lattice: bool
    span: Optional[float]
    threshold_span: Optional[float]
    c0: float
    c1: float
    c_star: float
    caveat: bool  # threshold is not an atom, so the lattice asymptotics
                  # apply only along m where the mean lattice hits it

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["distribution"] = self.distribution.to_dict()
        return out


def bahadur_rao_constants(d: RewardDistribution, mu2: float) -> LDProfile:
    """Tail-asymptotics constants for P(Xbar_m >= mu2) and the tail expectation."""
    if d.variance() == 0:
        raise OutOfRange("degenerate law: the rare-event asymptotics do not apply")
    rate, zeta = legendre_fenchel(d, mu2)
    if zeta == 0.0:
        raise OutOfRange("threshold equals the mean: no exponential decay regime")
    _, eta_second = d.log_mgf_derivatives(zeta)
    atoms = d.atoms()
    span = threshold_span = None
    if atoms is not None:
        try:
            fracs = [_as_fraction(x) for x in atoms[0]]
            span = float(_span(fracs, fracs[0])) or None
            # A threshold off the rational grid leaves threshold_span None.
            threshold_span = float(_span(fracs, _as_fraction(mu2))) or None
        except ValueError:
            pass
    if span is None:
        lattice = False
        c0 = 1.0 / abs(zeta)
        c1 = -1.0 / zeta**2
        caveat = False
    else:
        lattice = True
        c0 = span / (1.0 - math.exp(-abs(zeta) * span))
        c1 = -span * math.exp(-zeta * span) / ((1.0 - math.exp(-zeta * span)) * zeta)
        caveat = not np.any(np.abs(atoms[0] - mu2) < 1e-12)
    mu1 = d.mean()
    return LDProfile(
        distribution=d,
        threshold=mu2,
        zeta=zeta,
        rate=rate,
        eta_second=eta_second,
        lattice=lattice,
        span=span,
        threshold_span=threshold_span,
        c0=c0,
        c1=c1,
        c_star=c0 * abs(mu1 - mu2),
        caveat=caveat,
    )


def tail_expectation_limit(profile: LDProfile) -> float:
    """Limit of J_m(mu2) * E[(mu2 - Xbar_m) 1{Xbar_m >= mu2}] as m grows."""
    if not profile.lattice:
        return 1.0
    span = profile.threshold_span if profile.threshold_span is not None else profile.span
    zd = profile.zeta * span
    return zd * math.exp(-zd) / (1.0 - math.exp(-zd))


def tail_normalizer(profile: LDProfile, m: int) -> float:
    """J_m(mu2) = -zeta^2 sqrt(2 pi m eta'') m exp(m Lambda*)."""
    return -profile.zeta**2 * math.sqrt(2.0 * math.pi * m * profile.eta_second) * m * math.exp(m * profile.rate)


def etc_bias_sharp_asymptotic(d: RewardDistribution, mu2: float, m: int, T: int) -> float:
    """Leading-order ETC bias of arm one against a deterministic arm at mu2."""
    if m < 1 or T < 2 * m:
        raise ValueError("need m >= 1 and T >= 2m")
    profile = bahadur_rao_constants(d, mu2)
    return (
        (T - 2 * m)
        / (T - m)
        * math.exp(-m * profile.rate)
        / math.sqrt(2.0 * math.pi * m * profile.eta_second)
        * (-profile.c_star)
    )


# --- Monte Carlo convergence experiments -----------------------------------


def _sample_stats(d: RewardDistribution, n: int, R: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sums and centred sums of squares of R samples of n draws from d.

    A continuous (Gaussian) law gives a normal sum and an independent
    variance * chi^2(n - 1); a finite law gives multinomial atom counts.
    """
    atoms = d.atoms()
    if atoms is None:
        sums = n * d.mean() + math.sqrt(n * d.variance()) * rng.standard_normal(R)
        return sums, (d.variance() * rng.chisquare(n - 1, R) if n > 1 else np.zeros(R))
    support, probs = atoms
    counts = rng.multinomial(n, probs, size=R)
    sums = counts @ support
    mean = sums / max(n, 1)
    return sums, (counts * np.square(support - mean[:, None])).sum(axis=1)


def _etc_two_arm_summaries(
    arms: Sequence[RewardDistribution],
    m: int,
    T: int,
    replications: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(means, MLE variances) of shape (R, 2) of R two-arm ETC experiments.

    Draws each arm's exploration statistics, commits to the arm with the
    larger exploration sum (ties to arm 1) and adds the committed block of
    T - 2m pulls, whose statistics are drawn for both arms and kept for the
    committed one.  Equal in law to running ETC round by round.
    """
    R, block = replications, T - 2 * m
    explore = [_sample_stats(d, m, R, rng) for d in arms]
    committed = np.where(explore[1][0] > explore[0][0], 1, 0)
    means, variances = np.empty((R, 2)), np.empty((R, 2))
    for k, d in enumerate(arms):
        sums, squares = explore[k]
        block_sums, block_squares = _sample_stats(d, block, R, rng)
        won = committed == k
        n = np.where(won, m + block, m)
        total = sums + np.where(won, block_sums, 0.0)
        # Pooled centred squares: within both parts plus the gap between their means.
        gap = sums / m - block_sums / max(block, 1)
        pooled = squares + np.where(won, block_squares + m * block / (m + block) * gap * gap, 0.0)
        means[:, k] = total / n
        variances[:, k] = pooled / n
    return means, variances


def log_bias_ratio_experiment(
    p: EtcGaussianParams,
    m_grid: Sequence[int],
    replications: int,
    seed: int,
) -> dict[int, dict]:
    """Empirical distribution of g_k(hat)/g_k(true) per exploration length.

    For each m, runs R two-arm Gaussian ETC experiments at horizon T = 4m
    and evaluates the log-bias ratio at the sampled summaries.  Degenerate
    sample variances are excluded and counted.
    """
    results: dict[int, dict] = {}
    for i, m in enumerate(m_grid):
        T = 4 * m
        rng = substream(seed, TAG_THEORY, i)
        arms = [Gaussian(p.mu1, p.var1), Gaussian(p.mu2, p.var2)]
        means, variances = _etc_two_arm_summaries(arms, m, T, replications, rng)
        ok = (variances[:, 0] > 0) & (variances[:, 1] > 0)
        ratios = np.full((replications, 2), np.nan)
        for k in (1, 2):
            g_true = g_value(p.mu1, p.mu2, p.var1, p.var2, m, T, k)
            for r in np.flatnonzero(ok):
                ratios[r, k - 1] = (
                    g_value(means[r, 0], means[r, 1], variances[r, 0], variances[r, 1], m, T, k) / g_true
                )
        valid = ratios[ok]
        results[m] = {
            "ratios": valid,
            "excluded": int(replications - ok.sum()),
            "median_abs_error": float(np.median(np.abs(valid - 1.0))),
            "frac_within_10pct": float(np.mean(np.abs(valid - 1.0) < 0.1)),
        }
    return results


def bootstrap_rate_ratio_check(
    d: RewardDistribution,
    mu2: float,
    m_grid: Sequence[int],
    replications: int,
    seed: int,
) -> dict:
    """Bootstrap-vs-real decay-rate ratio against the proxy/variance bound.

    Arm one follows d; arm two is deterministic at mu2; the horizon is 4m.
    The bootstrap-world rate is (muhat_1 - mu2)^2 / (2 sighat_1^2) from
    simulated summaries; the real-world rate is the Legendre-Fenchel value.
    """
    if d.variance() == 0:
        raise OutOfRange("arm-one law must be non-degenerate")
    rate, _ = legendre_fenchel(d, mu2)
    bound = d.variance_proxy() / d.variance()
    per_m: dict[int, dict] = {}
    for i, m in enumerate(m_grid):
        T = 4 * m
        rng = substream(seed, TAG_THEORY, 1000 + i)
        arms = [d, Gaussian(mu2, 0.0)]
        means, variances = _etc_two_arm_summaries(arms, m, T, replications, rng)
        ok = variances[:, 0] > 0
        boot_rate = (means[ok, 0] - mu2) ** 2 / (2.0 * variances[ok, 0])
        ratios = boot_rate / rate
        per_m[m] = {
            "ratios": ratios,
            "excluded": int(replications - ok.sum()),
            "median": float(np.median(ratios)),
        }
    largest = max(m_grid)
    return {
        "per_m": per_m,
        "bound": bound,
        "rate": rate,
        "bound_violated_at_largest_m": bool(per_m[largest]["median"] > bound),
    }
