"""Exact and asymptotic oracles for the explore-then-commit sample-mean bias.

Contents:

* the two-arm Gaussian closed form for the ETC bias and its log form g_k;
* an exact evaluator of the general two-arm ETC bias identity
  ((T-2m)/(T-m)) E[(mu_k - Xbar_k) 1{arm k committed}] for both arms at
  once, by discrete enumeration, or in closed form when arm k is Gaussian;
  a finite arm's m-sample mean law is one convolution power, taken by
  left-to-right binary powering in direct convolutions of blocks scaled by
  powers of two, so that no product underflows needlessly (``mean_pmf``),
  and ties between two arms' means are decided exactly on their common
  lattice;
* the Legendre-Fenchel transform of the log-MGF and the exact-asymptotics
  constants of a mean's tail (``LDProfile``, lattice and non-lattice cases);
* the leading-order bias for a sub-Gaussian arm against a deterministic
  competitor, and Monte Carlo checks of the two decay-rate convergence
  results (log-bias ratio -> 1; bootstrap/real rate ratio bounded by
  proxy/variance).

The oracles do not switch on a law's class: ``atoms()`` says whether a law has
finite support (enumeration, lattice constants) or not (Gaussian closed
forms, non-lattice constants), and ``mean()``/``variance()`` give the rest.
Every lattice fact comes from one rationalization, ``_lattice``.  The Monte
Carlo checks run at horizon T = 4m through the simulator's unlogged ETC
path (``run_batch`` on a ``LawWorld`` with an ``EtcSpec``), which draws each
experiment's per-arm sums and centred squares with no loop over rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .distributions import Gaussian, RewardDistribution
from .policies import EtcSpec, ndtr
from .simulator import LawWorld, run_batch
from .streams import TAG_THEORY, substream

_RATIONAL_DENOMINATOR_CAP = 10**6
_ENUMERATION_CAP = 5_000_000  # largest mean lattice mean_pmf convolves
_SLOPE_TOL = 1e-10            # residual |eta'(zeta) - x| of the Legendre-Fenchel tilt
_BLOCK = 512                  # laws are convolved in blocks of this many points


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
    if p.T == 2 * p.m:
        return 0.0
    return -math.exp(g_value(p.mu1, p.mu2, p.var1, p.var2, p.m, p.T, k))


def g_value(mu1, mu2, var1, var2, m: int, T: int, k: int):
    """log of the absolute two-arm Gaussian ETC bias at arbitrary arguments, elementwise over arrays."""
    var_k = var1 if k == 1 else var2
    pooled = var1 + var2
    if T == 2 * m:
        raise LogOfZero("bias is exactly zero at T = 2m")
    return (
        math.log((T - 2 * m) / (T - m))
        + np.log(var_k)
        - 0.5 * np.log(2.0 * math.pi * pooled * m)
        - m * (mu1 - mu2) ** 2 / (2.0 * pooled)
    )


# --- exact evaluation of the general two-arm bias identity -----------------


def _as_fraction(x: float) -> Optional[Fraction]:
    """The nearest fraction under the denominator cap, or None if it is more than 1e-9 max(1, |x|) from x."""
    f = Fraction(x).limit_denominator(_RATIONAL_DENOMINATOR_CAP)
    return f if abs(float(f) - x) <= 1e-9 * max(1.0, abs(x)) else None


def _lattice(points: Sequence[float]) -> Optional[tuple[Fraction, Fraction, list[int]]]:
    """(origin, step, indices) of the coarsest rational lattice with point i at origin + indices[i] * step.

    step is one GCD of the offsets from the smallest point on their common
    denominator, 0 when all points share a fraction; points the cap maps to
    one fraction share an index.  None when a point has no rational form.
    """
    fracs = [_as_fraction(x) for x in points]
    if None in fracs:
        return None
    origin = min(fracs)
    denominator = math.lcm(*(f.denominator for f in fracs))
    offsets = [int((f - origin) * denominator) for f in fracs]
    step = math.gcd(*offsets)
    return origin, Fraction(step, denominator), [o // step for o in offsets] if step else offsets


def _blocks(pmf: np.ndarray) -> list[tuple[int, np.ndarray, int]]:
    """(start, block * 2^-e, e) for each _BLOCK-long block of pmf with a positive entry.

    e <= 0 puts the block's largest entry in [0.5, 1) unless it is 0.5 or
    more already.  A block is never scaled down, so the scaling is exact,
    subnormal entries included.
    """
    out = []
    for start in range(0, len(pmf), _BLOCK):
        block = pmf[start:start + _BLOCK]
        top = float(block.max())
        if top > 0:
            e = min(0, math.frexp(top)[1])
            out.append((start, np.ldexp(block, -e), e))
    return out


def _convolve(p: np.ndarray, q: Optional[np.ndarray] = None) -> np.ndarray:
    """p * q, or p * p when q is None, summed from products of scaled blocks.

    Block pair (i, j) is one np.convolve of the scaled blocks, put back in
    scale by 2^(ei + ej) with one rounding.  A square takes each cross
    product once, doubled, so every entry is a non-negative sum.  A pair
    with ei + ej + _BLOCK.bit_length() <= -1075 is skipped: each of its
    sums is under _BLOCK 2^(ei + ej) < 2^-1075, half the smallest
    subnormal, so it rounds to 0 in either order of operations.
    """
    square = q is None
    ps = _blocks(p)
    qs = ps if square else _blocks(q)
    out = np.zeros(len(p) + len(p if square else q) - 1)
    for k, (i, a, ea) in enumerate(ps):
        for j, b, eb in (qs[k:] if square else qs):
            if ea + eb + _BLOCK.bit_length() > -1075:
                doubled = square and j != i
                out[i + j:i + j + len(a) + len(b) - 1] += np.ldexp(np.convolve(a, b), ea + eb + doubled)
    return out


def mean_pmf(d: RewardDistribution, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of the m-sample mean for a finite-support law.

    Supports are mapped to a common rational lattice and the sum law is the
    m-th convolution power of the one-draw pmf on that lattice, taken by
    left-to-right binary powering: per bit of m one square, and one
    convolution with the short one-draw pmf where the bit is set.  Both go
    through ``_convolve``, which cuts each law into blocks and scales every
    block by an exact power of two so that its largest entry is near 1.
    The products are taken on normal-range numbers, a product leaves the
    normal range only where its true value does too, and each block
    product is scaled back with one rounding.  The ends that underflow to
    exactly zero are cut off each law as it grows, so only the resolved
    band is convolved.  Direct (not FFT) convolution of non-negative terms
    keeps each entry's rounding relative to itself, so tails far below the
    largest entry keep their relative accuracy.  Returns (values,
    probabilities) with the zero-probability points dropped.  A support
    with an atom off every lattice under the cap, or with two atoms on one
    lattice point, raises ValueError.
    """
    atoms = d.atoms()
    if atoms is None:
        raise ValueError("mean_pmf needs a finite-support law")
    support, probs = atoms
    if len(support) == 1:
        return support, np.array([1.0])
    lattice = _lattice(support)
    if lattice is None or len(set(lattice[2])) < len(support):
        raise ValueError(f"support {support.tolist()} has no rational lattice that keeps its atoms apart")
    origin, step, indices = lattice
    width = max(indices)
    if (width * m + 1) > _ENUMERATION_CAP:
        raise EnumerationTooLarge(f"lattice of size {width * m + 1} exceeds cap {_ENUMERATION_CAP}")
    one_draw = np.zeros(width + 1)
    one_draw[indices] = probs
    pmf, first = one_draw, 0  # first: lattice index of pmf[0]
    for bit in bin(m)[3:]:
        pmf, first = _convolve(pmf), 2 * first
        if bit == "1":
            pmf = _convolve(pmf, one_draw)
        resolved = np.flatnonzero(pmf)
        pmf, first = pmf[resolved[0]:resolved[-1] + 1], first + int(resolved[0])
    values = (float(origin) * m + np.arange(first, first + len(pmf)) * float(step)) / m
    keep = pmf > 0
    return values[keep], pmf[keep]


def _tie_tolerance(points: Sequence[float], m: int) -> float:
    """Half the spacing of the lattice that holds every m-sample mean of the points.

    Two such means, of any laws on these points, are equal or at least twice
    this apart.  So a smaller float gap is an exact tie, as long as the
    means' rounding (a few ulps of the largest point) stays well below it;
    a lattice too fine for that raises EnumerationTooLarge.  A point with
    no rational form (a point mass off every lattice) gives 0: only equal
    floats tie.
    """
    lattice = _lattice(points)
    if lattice is None:
        return 0.0
    step = lattice[1]
    if not step:
        return math.inf  # a single point: every pair of means ties
    tol = float(step) / (2 * m)
    scale = max(abs(x) for x in points)
    if tol <= 2.0**-45 * scale:
        raise EnumerationTooLarge(f"mean lattice spacing {2 * tol:g} is below float resolution at {scale:g}")
    return tol


def _split_at(
    other: RewardDistribution, pmf, m: int, x: np.ndarray, ties_below: bool, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """(P(Ybar_m below x), P(Ybar_m above x)) of the other arm's mean, vectorized over own means x.

    ``pmf`` is the other arm's mean pmf, or None for a Gaussian law.  Ties
    Ybar_m = x count below when ``ties_below``, else above; they are the
    pairs within ``tol``, the two laws' joint ``_tie_tolerance``.  Each side
    is summed on its own, so a side near 0 keeps its relative accuracy
    instead of being 1 minus the other.
    """
    if pmf is None:
        z = (x - other.mean()) * math.sqrt(m / other.variance())
        return ndtr(z), ndtr(-z)
    values, probs = pmf
    below = np.concatenate([[0.0], np.cumsum(probs)])
    above = np.concatenate([np.cumsum(probs[::-1])[::-1], [0.0]])
    if ties_below:
        idx = np.searchsorted(values - tol, x, side="right")
    else:
        idx = np.searchsorted(values + tol, x, side="left")
    return below[idx], above[idx]


def _std_normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _commit_expectation(arms, pmfs, m: int, k: int, tol: float) -> float:
    """E[(mu_k - Xbar_k) 1{arm k committed}] given each arm's mean pmf (None if Gaussian)
    and the tie tolerance of two finite arms."""
    own, other = arms[k - 1], arms[2 - k]
    own_pmf, other_pmf = pmfs[k - 1], pmfs[2 - k]
    mu_own = own.mean()
    if own_pmf is None:
        sd = math.sqrt(own.variance() / m)
        if other_pmf is None:
            r = math.sqrt(sd * sd + other.variance() / m)
            return -sd * sd / r * float(_std_normal_pdf((mu_own - other.mean()) / r))
        values, probs = other_pmf
        return -sd * float(np.dot(probs, _std_normal_pdf((values - mu_own) / sd)))
    # Arm k commits when the other arm's mean is below Xbar_own = x; equality goes to arm 1.
    values, probs = own_pmf
    commit, lose = _split_at(other, other_pmf, m, values, k == 1, tol)
    weighted = probs * (mu_own - values)
    if float(np.dot(probs, commit)) > 0.5:
        # sum p(x)(mu - x) = 0, so the commit sum is minus the losing-event sum;
        # near-sure commitment would cancel the former down to rounding noise.
        return -float(np.dot(weighted, lose))
    return float(np.dot(weighted, commit))


def etc_bias_general(arms: Sequence[RewardDistribution], m: int, T: int) -> tuple[float, float]:
    """Exact ETC biases (arm 1, arm 2) of two arms by enumeration or in closed form.

    Each finite arm's mean pmf is built once and serves both arms.  The
    committed arm is the exploration-phase argmax with ties to arm 1, so
    arm 1 commits on Xbar_1 >= Xbar_2 and arm 2 on Xbar_2 > Xbar_1.  A
    Gaussian own arm (sd s of its mean) ties with probability 0 and has
    E[(mu - Xbar) 1{Xbar >= v}] = -s phi((v - mu)/s): summed over the other
    arm's mean pmf, or, against a Gaussian other arm (sd s2), by Stein's
    identity -s^2/r phi((mu - mu2)/r) with r = sqrt(s^2 + s2^2).  A finite
    own arm that commits with probability above 1/2 sums over the losing
    event instead, which has the same value and no cancellation.  Two
    finite arms decide their ties on one joint lattice, taken once.
    """
    if len(arms) != 2:
        raise ValueError("two arms required")
    if m < 1 or T < 2 * m:
        raise ValueError("need m >= 1 and T >= 2m")
    pmfs = [None if d.atoms() is None else mean_pmf(d, m) for d in arms]
    tol = 0.0 if None in pmfs else _tie_tolerance([*arms[0].atoms()[0], *arms[1].atoms()[0]], m)
    scale = (T - 2 * m) / (T - m)
    return scale * _commit_expectation(arms, pmfs, m, 1, tol), scale * _commit_expectation(arms, pmfs, m, 2, tol)


def exact_mean_tail(d: RewardDistribution, mu2: float, m: int) -> tuple[float, float]:
    """Exact (P(Xbar_m >= mu2), E[(mu2 - Xbar_m) 1{Xbar_m >= mu2}]) by enumeration.

    Whether Xbar_m = mu2 is decided on the lattice of the support and mu2.
    """
    values, probs = mean_pmf(d, m)
    in_tail = values >= mu2 - _tie_tolerance([*d.atoms()[0], mu2], m)
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

    Worked in the law's centred coordinate y = x - mean, where the rate is
    zeta y - eta_c(zeta) for the centred log-MGF eta_c, so that a law far
    from the origin loses no digits to its offset.  The tilt has y's sign:
    doubling from 0 brackets it, and Newton's method runs inside the
    bracket (eta_c' is increasing and eta_c'' >= 0).  A Newton step that
    would leave the bracket, or that is not half the step before it,
    becomes a bisection, unless |eta_c'(zeta) - y| <= _SLOPE_TOL already:
    then rounding has stalled Newton's method and the solve stops.  It
    also stops when the bracket has no float left inside it.
    """
    lo, hi = _mgf_derivative_range(d)
    if not lo < x < hi:
        if x == d.mean() and d.variance() == 0:
            return 0.0, 0.0
        raise OutOfRange(f"threshold {x} outside the attainable slope range ({lo}, {hi})")
    y = x - d.mean()
    if y == 0.0:
        return 0.0, 0.0
    # Bracket: eta_c'(near) - y has the sign of -y, eta_c'(far) - y that of y.
    near, far = 0.0, math.copysign(1.0, y)
    for _ in range(200):
        if (d.centred_log_mgf(far)[1] - y) * y > 0:
            break
        near, far = far, 2.0 * far
    else:
        raise ArithmeticError("failed to bracket the tilt")
    below, above = min(near, far), max(near, far)
    zeta, last_step = near, math.inf
    for _ in range(200):
        eta, d1, d2 = d.centred_log_mgf(zeta)
        gap = d1 - y
        if gap < 0:
            below = zeta
        else:
            above = zeta
        nxt = zeta - gap / d2 if d2 > 0 else math.nan
        newton = below < nxt < above and 2.0 * abs(nxt - zeta) <= last_step
        if not newton:
            if abs(gap) <= _SLOPE_TOL:
                break  # within tolerance, and rounding now stalls Newton
            nxt = 0.5 * (below + above)
            if not below < nxt < above:
                break  # no float left inside the bracket
        last_step, zeta = abs(nxt - zeta), nxt
    else:
        raise ArithmeticError("the tilt did not converge")
    return zeta * y - eta, zeta


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
    eta_second = d.centred_log_mgf(zeta)[2]
    atoms = d.atoms()
    own = None if atoms is None else _lattice(atoms[0])
    # Atoms the denominator cap maps to one lattice point (a repeated index)
    # are apart on no lattice under the cap: non-lattice, as for an atom
    # with no rational form.
    if own is None or len(set(own[2])) < len(own[2]):
        lattice = False
        span = threshold_span = None
        c0 = 1.0 / abs(zeta)
        c1 = -1.0 / zeta**2
        caveat = False
    else:
        lattice = True
        span = float(own[1])
        joint = _lattice([mu2, *atoms[0]])
        threshold_span = None if joint is None else float(joint[1])
        c0 = span / (1.0 - math.exp(-abs(zeta) * span))
        c1 = -span * math.exp(-zeta * span) / ((1.0 - math.exp(-zeta * span)) * zeta)
        caveat = joint is None or joint[2][0] not in joint[2][1:]
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


def etc_bias_sharp_asymptotic(d: RewardDistribution, mu2: float, m: int, T: int) -> float:
    """Leading-order ETC bias of arm one against a deterministic arm at mu2."""
    return etc_bias_from_profile(bahadur_rao_constants(d, mu2), m, T)


def etc_bias_from_profile(profile: LDProfile, m: int, T: int) -> float:
    """``etc_bias_sharp_asymptotic`` of the law and threshold whose profile is given."""
    if m < 1 or T < 2 * m:
        raise ValueError("need m >= 1 and T >= 2m")
    return (
        (T - 2 * m)
        / (T - m)
        * math.exp(-m * profile.rate)
        / math.sqrt(2.0 * math.pi * m * profile.eta_second)
        * (-profile.c_star)
    )


# --- Monte Carlo convergence experiments -----------------------------------


def log_bias_ratio_experiment(
    p: EtcGaussianParams,
    m_grid: Sequence[int],
    replications: int,
    seed: int,
) -> dict[int, dict]:
    """Empirical distribution of g_k(hat)/g_k(true) per exploration length.

    For each m, runs R two-arm Gaussian ETC experiments at horizon T = 4m
    and evaluates the log-bias ratio at the sampled means and MLE variances.
    Degenerate sample variances are excluded and counted.
    """
    world = LawWorld([Gaussian(p.mu1, p.var1), Gaussian(p.mu2, p.var2)])
    results: dict[int, dict] = {}
    for i, m in enumerate(m_grid):
        T = 4 * m
        out = run_batch(replications, 2, T, EtcSpec(m), world, substream(seed, TAG_THEORY, i))
        means, variances = out.means, out.variances
        ok = (variances > 0).all(axis=1)
        plugin = (*means[ok].T, *variances[ok].T)
        valid = np.column_stack([
            g_value(*plugin, m, T, k) / g_value(p.mu1, p.mu2, p.var1, p.var2, m, T, k) for k in (1, 2)
        ])
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
    simulated ETC runs; the real-world rate is the Legendre-Fenchel value.
    """
    if d.variance() == 0:
        raise OutOfRange("arm-one law must be non-degenerate")
    rate, _ = legendre_fenchel(d, mu2)
    bound = d.variance_proxy() / d.variance()
    per_m: dict[int, dict] = {}
    world = LawWorld([d, Gaussian(mu2, 0.0)])
    for i, m in enumerate(m_grid):
        T = 4 * m
        out = run_batch(replications, 2, T, EtcSpec(m), world, substream(seed, TAG_THEORY, 1000 + i))
        means, variances = out.means, out.variances
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
