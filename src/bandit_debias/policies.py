"""Bandit policies as resumable state machines.

Four algorithms: explore-then-commit (ETC), UCB, Gaussian Thompson sampling
(TS) and epsilon-greedy (EG).  Selection, state update and conditional
propensity scores share one vectorized core that operates on a leading batch
dimension, so simulating many experiments in lockstep costs a handful of
array ops per round.

A spec's ``randomized`` is the one rule for which policies draw what decides
their choice: TS, and EG with epsilon > 0.  Only those have conditional
propensity scores, so only those get IPW/AIPW; ETC, UCB and EG at epsilon = 0
have none, and ``simulator.check_policy`` replays their logs instead.

Every propensity is a pure function of its row's counts and sums, computed by
``propensity_batch``.  ``prefix_blocks``, the one walk of a log's past, goes
through stacked logs in blocks of ``_PREFIX_ROWS`` prefix states, carrying each
log's counts and sums on, for the policy check and IPW/AIPW's propensities and
running means alike, so its working set does not grow with T.  TS with K != 2
uses an exact quadrature (``_ts_quadrature``) over bounded row slices; the
normal CDF it needs, ``ndtr`` and ``log_ndtr``, runs on numpy alone.

Conventions fixed here (ties have positive probability for Bernoulli
rewards, so they must be pinned down):

* every row argmax (ETC, UCB, TS, EG greedy) is ``_argmax_rows``, one
  comparison pass per arm column with ties toward the lowest arm index, so
  it equals ``np.argmax(x, axis=1)`` on NaN-free scores;
* UCB treats an unpulled arm's bonus as +inf, forcing one pull of each arm
  in the first K rounds, lowest index first;
* ETC scores an arm with exactly m pulls by its mean and every other arm
  +inf: the lowest arm short of m pulls explores, the best mean commits
  once every arm has m, and the committed arm is then the only one above m;
* EG's empirical mean of an unpulled arm is 0;
* EG draws one uniform u per row: u < epsilon explores and plays arm
  floor(u / epsilon * K) (at most K - 1), otherwise the greedy arm plays;
* TS uses a Gaussian prior/likelihood for all reward families;
* TS with K = 2 draws one normal z per row and plays arm index 1 iff
  pm1 - pm0 > sqrt(pv0 + pv1) * z, the event of the two-draw argmax whose
  probability ``propensity_batch`` gives by ``ndtr``; other K draw K
  normals and take their ``_argmax_rows``.

``read_record`` is the one reader of JSON records from outside the program:
policy specs, and through it sidecars, plans and arms files, which
``json.load`` parses with ``unique_keys`` so that no key is given twice.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .streams import substream  # noqa: F401  (perfbench/tracing.py wraps policies.substream)

# _ts_quadrature: 8-node Gauss-Legendre (nodes +-t, weights w) per piece, breaking at pm + c * sd.
_GL_T = np.array([0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763])
_GL_STEPS, _GL_WEIGHTS = 1 + np.r_[-_GL_T, _GL_T], np.r_[_GL_W, _GL_W]  # all 8, the steps on [0, 2]
_TS_BREAKS = np.array([-12.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 12.0])
# Prefix-state rows per block of every walk of ``prefix_blocks``.  A block's
# arrays are a few (rows, K), so the fixed cost of its numpy calls, not
# memory, sets the size.
_PREFIX_ROWS = 2048
# Elements per (rows, K, 9K - 1, 8) array of the TS quadrature in one row slice.
# 2**15 float64 is 256 KiB (29 rows at K=4): few enough that a block's live
# arrays stay in cache, many enough that its ~100 numpy calls cost little.
_QUADRATURE_ELEMENTS = 2**15

# The normal CDF, numpy only: W. J. Cody's rational Chebyshev forms (Math.
# Comp. 1969) as arranged in ACM TOMS 715 and R's pnorm_both.  For |x| <=
# 0.674, Phi(x) = 0.5 + x A(x^2) / B(x^2); beyond, the upper tail Q(y) is
# exp(-y^2 / 2) C(y) / D(y) up to sqrt(32), and exp(-y^2 / 2) (1/sqrt(2 pi) -
# u P(u) / Q(u)) / y with u = 1 / y^2 past it.  Each table pairs the
# numerator's and the denominator's coefficients, leading first; every
# denominator is monic.
def _coefficient_pairs(num: tuple, den: tuple) -> np.ndarray:
    """(degree + 1, 2, 1) rows of (numerator, denominator) coefficients, for ``_ratio``."""
    return np.array([num, (1.0,) + den]).T[:, :, None]


_CDF_AB = _coefficient_pairs(
    (0.065682337918207449113, 2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
     18154.981253343561249),
    (47.20258190468824187, 976.09855173777669322, 10260.932208618978205, 45507.789335026729956))
_CDF_CD = _coefficient_pairs(
    (1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
     597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326, 11602.651437647350124,
     9842.7148383839780218),
    (22.266688044328115691, 235.38790178262499861, 1519.377599407554805, 6485.558298266760755,
     18615.571640885098091, 34900.952721145977266, 38912.003286093271411, 19685.429676859990727))
_CDF_PQ = _coefficient_pairs(
    (0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
     0.001421619193227893466, 2.9112874951168792e-5),
    (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515, 0.00378239633202758244,
     7.29751555083966205e-5))
_CDF_CENTRAL = 0.67448975  # the upper quartile
_CDF_SQRT32 = math.sqrt(32.0)


class RecordError(ValueError):
    """A fault in a JSON record from outside the program: ``problem``, as ``must
    be an integer, got 2.7``, at ``path``, as ``policy.m`` or ``cells[0].K``."""

    def __init__(self, problem: str, path: str = ""):
        super().__init__(f"{path} {problem}" if path else problem)
        self.problem, self.path = problem, path


def read_field(step: str, parse, value):
    """``parse(value)``, any error a RecordError under ``step``: a key, or ``[i]``."""
    try:
        return parse(value)
    except RecordError as exc:
        raise RecordError(exc.problem, step + ("" if exc.path[:1] in ("", "[") else ".") + exc.path) from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise RecordError(f"is invalid: {exc}", step) from None


def read_record(record, parsers: dict, defaults: Optional[dict] = None) -> dict:
    """The fields of a JSON object from outside the program, read by ``parsers``, one for
    every allowed key; a key of ``defaults`` may be left out.  A non-object, a missing or
    unknown key or a parser's error (a wrong JSON type, say) is a RecordError naming the field."""
    if not isinstance(record, dict):
        raise RecordError(f"must be a JSON object, got {type(record).__name__}")
    out = dict(defaults or {})
    for key, parse in parsers.items():
        if key in record:
            out[key] = read_field(key, parse, record[key])
        elif key not in out:
            raise RecordError("is missing", key)
    unknown = sorted(set(record) - set(parsers))
    if unknown:
        raise RecordError("is not a known field", unknown[0])
    return out


def unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, for ``json.load``'s ``object_pairs_hook``: a key
    given twice is a RecordError, where ``json.load`` alone keeps the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise RecordError(f"a JSON object repeats the key {key!r}")
        out[key] = value
    return out


def json_type(kind: str, accept, convert):
    """A parser of a JSON value that ``accept`` takes (a bool never), as ``convert`` of it."""
    def parse(value):
        if accept(value) and not isinstance(value, bool):
            return convert(value)
        raise RecordError(f"must be {kind}, got {value!r}")
    return parse


# An integral float reads as an int; int() would truncate 2.7 to 2 and read true as 1.
json_int = json_type("an integer", lambda v: isinstance(v, int) or isinstance(v, float) and v.is_integer(), int)
json_float = json_type("a number", lambda v: isinstance(v, (int, float)), float)
json_str = json_type("a string", lambda v: isinstance(v, str), str)


def json_list(parse):
    """A parser of a JSON list whose items ``parse`` reads, into a tuple."""
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise RecordError(f"must be a JSON list, got {value!r}")
        return tuple(read_field(f"[{i}]", parse, item) for i, item in enumerate(value))
    return read


def json_optional(parse):
    """A parser that also reads null, as None."""
    return lambda value: None if value is None else parse(value)


def json_tag(record, key: str, kinds: dict):
    """The entry of ``kinds`` that a JSON object's ``key`` names."""
    if not isinstance(record, dict) or key not in record:
        read_record(record, {key: None})  # raises: not an object, or no such key
    if not any(record[key] == kind for kind in kinds):  # ==, not a hash: any JSON value may be here
        raise RecordError(f"must be one of {list(kinds)}, got {record[key]!r}", key)
    return kinds[record[key]]


def read_dataclass(cls, record, parsers: Optional[dict] = None):
    """``cls`` from a JSON record of its fields, read by ``parsers`` (by default by
    annotated type: int, float or str); a field with a default may be left out."""
    parsers = parsers or {f.name: {"int": json_int, "float": json_float, "str": json_str}[f.type] for f in fields(cls)}
    return cls(**read_record(record, parsers, {f.name: f.default for f in fields(cls) if f.default is not MISSING}))


class _Spec:
    randomized = False  # draws what decides its choice, so has propensities (see the module docstring)

    def to_dict(self) -> dict:
        """The JSON form: ``name``, then the dataclass fields in order."""
        return {"name": self.name, **asdict(self)}


@dataclass(frozen=True)
class EtcSpec(_Spec):
    name = "etc"
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ETC exploration block m must be >= 1")


@dataclass(frozen=True)
class UcbSpec(_Spec):
    name = "ucb"


@dataclass(frozen=True)
class TsSpec(_Spec):
    name = "ts"
    randomized = True
    prior_mean: float = 0.0
    prior_variance: float = 1.0
    likelihood_variance: float = 1.0

    def __post_init__(self):
        for name, low in (("prior_mean", -math.inf), ("prior_variance", 0.0), ("likelihood_variance", 0.0)):
            if not low < getattr(self, name) < math.inf:
                raise ValueError(f"TS {name} must be finite{' and > 0' if low == 0 else ''}, got {getattr(self, name)}")


@dataclass(frozen=True)
class EgSpec(_Spec):
    name = "eg"
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")

    @property
    def randomized(self) -> bool:
        return self.epsilon > 0


PolicySpec = Union[EtcSpec, UcbSpec, TsSpec, EgSpec]
_SPECS = {cls.name: cls for cls in (EtcSpec, UcbSpec, TsSpec, EgSpec)}


def spec_from_dict(d: dict) -> PolicySpec:
    """The policy spec that a JSON record names by ``name``; its other keys are the spec's fields."""
    cls = json_tag(d, "name", _SPECS)
    return read_dataclass(cls, {key: value for key, value in d.items() if key != "name"})


@dataclass
class BatchPolicyState:
    """State of ``n`` policy runs.

    ``t`` is each row's 1-based round, sum(counts[i]) + 1: an int for rows
    advanced in lockstep, an (n, 1) column for the rows of a block of
    ``prefix_blocks``, which sit at different rounds.  Either broadcasts
    against the (n, K) counts.

    ``counts`` are float64, exact below 2**53 pulls, so a round's divisions
    by them convert nothing; a state built with int64 counts selects the
    same arms.

    ``_all_pulled`` records that every row has pulled every arm.  It is read
    from the counts alone, never from ``t``: a hand-built or prefix state
    may leave an arm unpulled past round K.  Counts only grow, so once true
    it stays true and is not checked again; until then ``_every_arm_pulled``
    checks the counts afresh.  Code that writes counts other than by
    ``update`` may only raise them.
    """

    K: int
    n: int
    t: Union[int, np.ndarray] = 1
    counts: np.ndarray = field(default=None)  # (n, K) float64, C-contiguous
    sums: np.ndarray = field(default=None)    # (n, K), C-contiguous

    def __post_init__(self):
        if self.counts is None:
            self.counts, self.sums = np.zeros((2, self.n, self.K))
        # Flat index of each row's arm 0 in the row-major arrays: indexing
        # them flat costs a third of indexing by (row, arm) pairs.
        self._row_starts = np.arange(0, self.n * self.K, self.K)
        self._all_pulled = bool(self.counts.all())

    def _every_arm_pulled(self) -> bool:
        if not self._all_pulled:  # then counts has a zero, so it is not empty
            self._all_pulled = bool(self.counts.min() > 0)
        return self._all_pulled

    def means(self) -> np.ndarray:
        """Empirical means, 0 for unpulled arms (whose sums are exactly 0)."""
        if self._every_arm_pulled():
            return self.sums / self.counts
        return self.sums / np.maximum(self.counts, 1)

    def update(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        # ufunc.at adds in place, with no gather and scatter copies; each
        # row's cell is its own, so every cell takes at most one addition.
        cells = self._row_starts + arms
        np.add.at(self.counts.reshape(-1), cells, 1.0)
        np.add.at(self.sums.reshape(-1), cells, rewards)
        self.t += 1


def select_batch(spec: PolicySpec, state: BatchPolicyState, rng: np.random.Generator) -> np.ndarray:
    """Arm choices (n,) for the current round; reads ``state`` only, draws from rng in a fixed order.

    UCB scores a state whose counts are all positive as ``sums / counts +
    sqrt(log t / counts)`` directly; only a state with an unpulled arm, in
    any row, pays for masking that arm's score to +inf.  The guard is the
    state's all-pulled flag, which is read from the counts, not ``t``.
    """
    n, K = state.n, state.K
    if isinstance(spec, EtcSpec):
        return _argmax_rows(np.where(state.counts == spec.m, state.means(), np.inf))
    if isinstance(spec, UcbSpec):
        counts = state.counts
        if state._every_arm_pulled():
            return _argmax_rows(state.sums / counts + np.sqrt(np.log(state.t) / counts))
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(np.log(state.t) / counts)
        return _argmax_rows(np.where(counts == 0, np.inf, state.means() + bonus))
    if isinstance(spec, TsSpec):
        pm, pv = _ts_posterior(spec, state)
        if K == 2:
            # The two-draw argmax plays arm 1 with probability
            # ndtr((pm1 - pm0) / sqrt(pv0 + pv1)): one normal decides it.
            gap = pm[:, 1] - pm[:, 0]
            return (gap > np.sqrt(pv[:, 0] + pv[:, 1]) * rng.standard_normal(n)).astype(np.int64)
        return _argmax_rows(pm + np.sqrt(pv) * rng.standard_normal((n, K)))
    if isinstance(spec, EgSpec):
        arms = _argmax_rows(state.means())
        u = rng.random(n)
        explore = (u < spec.epsilon).nonzero()[0]
        # Given u < epsilon, u / epsilon is uniform on [0, 1); a product that
        # rounds up to K is clipped.
        arms[explore] = np.minimum((u.take(explore) / spec.epsilon * K).astype(np.int64), K - 1)
        return arms
    raise TypeError(f"unknown policy spec {spec!r}")


def _argmax_rows(x: np.ndarray) -> np.ndarray:
    """Column of the largest entry in each row of (n, K) x, ties to the lowest.

    One pass per column: numpy's ``argmax(x, axis=1)`` reduces one short row
    at a time, several times slower on wide batches of few arms.
    """
    n, K = x.shape
    if K == 1:
        return np.zeros(n, dtype=np.int64)
    arm = (x[:, 1] > x[:, 0]).astype(np.int64)
    best = x[:, 0]
    for k in range(2, K):
        best = np.maximum(best, x[:, k - 1])
        arm[x[:, k] > best] = k
    return arm


def propensity_batch(spec: PolicySpec, state: BatchPolicyState) -> Optional[np.ndarray]:
    """Conditional selection probabilities (n, K) of each row's current round;
    None for a spec that does not randomize (ETC, UCB, EG at epsilon = 0)."""
    if not spec.randomized:
        return None
    if isinstance(spec, EgSpec):
        greedy = _argmax_rows(state.means())
        out = np.full((state.n, state.K), spec.epsilon / state.K)
        out[np.arange(state.n), greedy] += 1.0 - spec.epsilon
        return out
    if isinstance(spec, TsSpec):
        pm, pv = _ts_posterior(spec, state)
        if state.K != 2:
            sd, out = np.sqrt(pv), np.empty_like(pm)
            rows = max(1, _QUADRATURE_ELEMENTS // (state.K * (9 * state.K - 1) * len(_GL_STEPS)))
            for lo in range(0, state.n, rows):
                out[lo:lo + rows] = _ts_quadrature(pm[lo:lo + rows], sd[lo:lo + rows])
            return out
        gap = (pm[:, 0] - pm[:, 1]) / np.sqrt(pv[:, 0] + pv[:, 1])
        p1 = ndtr(gap)
        return np.stack([p1, 1.0 - p1], axis=1)
    raise TypeError(f"unknown policy spec {spec!r}")


def prefix_blocks(actions: np.ndarray, rewards: np.ndarray, K: int):
    """(lo, hi, state) for blocks of ``ceil(_PREFIX_ROWS / n)`` rounds (at least one) of stacked logs (n, T):
    row i * (hi - lo) + s holds log i's counts and sums over rounds < lo + s.  Each block's running sums go
    on from the last block's totals, from +0.0 as the one-run state adds, so any block size gives the same bits."""
    n, T = actions.shape
    step = max(1, -(-_PREFIX_ROWS // max(n, 1)))
    past = np.zeros((2, n, K))  # counts and sums over the rounds before the block
    for lo in range(0, T, step):
        hi = min(lo + step, T)
        onehot = actions[:, lo:hi, None] == np.arange(K)
        run = np.zeros((2, n, hi - lo, K))
        run[:, :, 0], run[0, :, 1:] = past, onehot[:, :-1]
        np.copyto(run[1, :, 1:], rewards[:, lo:hi - 1, None], where=onehot[:, :-1])
        np.cumsum(run, axis=2, out=run)
        past = run[:, :, -1] + [onehot[:, -1], np.where(onehot[:, -1], rewards[:, hi - 1, None], 0.0)]
        counts, sums = run.reshape(2, -1, K)
        yield lo, hi, BatchPolicyState(K, len(counts), np.tile(np.arange(lo + 1, hi + 1), n)[:, None], counts, sums)


def propensity(spec: PolicySpec, actions: np.ndarray, rewards: np.ndarray, K: int) -> Optional[np.ndarray]:
    """e_t(k) of stacked logs, shape (n, T, K); None for a spec that does not randomize."""
    if not spec.randomized:
        return None
    out = np.empty(actions.shape + (K,))
    for lo, hi, state in prefix_blocks(actions, rewards, K):
        out[:, lo:hi] = propensity_batch(spec, state).reshape(len(out), hi - lo, K)
    return out


def _ts_posterior(spec: TsSpec, state: BatchPolicyState) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances (n, K): pv = 1 / (1 / prior_variance +
    counts / lv), pm = pv * (prior_mean / prior_variance + sums / lv), in
    new arrays, never the state's.

    A division by lv = 1 and an addition of prior_mean / prior_variance = 0
    are skipped.  Both are exact: x / 1 is x, and x + 0 is x for every x
    but -0.0, which no sum is: running sums start at +0.0, and x + -x is
    +0.0.
    """
    lv, shift = spec.likelihood_variance, spec.prior_mean / spec.prior_variance
    pv = (state.counts if lv == 1.0 else state.counts / lv) + 1.0 / spec.prior_variance
    np.divide(1.0, pv, out=pv)
    pm = state.sums if lv == 1.0 else state.sums / lv
    if shift != 0.0:
        pm = pm + shift
    return pm * pv, pv


def _ts_quadrature(pm: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """P(arm k has the largest posterior draw) for (n, K) normal posteriors.

    Integrates phi_k(x) prod_{j != k} Phi((x - pm_j) / sd_j), the product in log space.
    """
    edges = np.sort((pm[:, :, None] + sd[:, :, None] * _TS_BREAKS).reshape(len(pm), 1, -1), axis=2)
    half = np.diff(edges, axis=2)[..., None] / 2  # (n, 1, pieces, 1)
    z = edges[..., :-1, None] + half * _GL_STEPS - pm[:, :, None, None]
    z /= sd[:, :, None, None]
    log_cdf = log_ndtr(z)  # z: (n, K, pieces, nodes), reused in place below
    z *= z
    z *= 0.5
    z += log_cdf
    np.subtract(log_cdf.sum(axis=1, keepdims=True), z, out=z)
    np.exp(z, out=z)
    z *= half * _GL_WEIGHTS
    out = z.sum(axis=(2, 3)) / sd  # the factor 1/sqrt(2 pi) cancels below
    return out / out.sum(axis=1, keepdims=True)  # so a one-arm row is exactly 1.0


def ndtr(x) -> np.ndarray:
    """The standard normal CDF Phi(x), elementwise, to about 1e-15 relative."""
    return _normal_cdf(x, log=False)


def log_ndtr(x) -> np.ndarray:
    """log Phi(x), elementwise, to about 1e-15 relative, far into either tail."""
    return _normal_cdf(x, log=True)


def _normal_cdf(x, log: bool) -> np.ndarray:
    """Phi(x) or log Phi(x) by Cody's forms, each on the elements of its range.

    Each range is picked from the flattened array by a boolean mask: one
    flat pass, where indices into the 4-D arguments of the TS quadrature
    would cost several.  Every temporary is the size of one range's
    elements, so a call holds about three times its input.  nan falls in
    the central range and comes out nan.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty_like(flat)
    below, above = flat < -_CDF_CENTRAL, flat > _CDF_CENTRAL
    central = ~(below | above)
    xc = flat[central]
    p = _ratio(xc * xc, _CDF_AB)
    p *= xc
    p += 0.5
    out[central] = np.log(p, out=p) if log else p
    far_below, far_above = flat < -_CDF_SQRT32, flat > _CDF_SQRT32
    below ^= far_below
    above ^= far_above
    with np.errstate(over="ignore"):  # y^2 is inf past 1e154, and so is -log Phi(-y)
        for mask, far, upper in ((below, False, False), (above, False, True), (far_below, True, False),
                                 (far_above, True, True)):
            y = np.abs(flat[mask])
            if y.size:
                out[mask] = _outer_cdf(y, far, upper, log)
    return out.reshape(x.shape)[()]


def _outer_cdf(y: np.ndarray, far: bool, upper: bool, log: bool) -> np.ndarray:
    """Phi(x) or log Phi(x) at x = y if ``upper`` else -y, for y past the central
    range, up to sqrt(32) or (``far``) beyond; overwrites y."""
    if far:
        # Past 1e300 Q is 0 and log Q is -inf already: the clamp changes no
        # result and keeps inf - inf out of the tail's split.
        np.minimum(y, 1e300, out=y)
        u = np.square(y)
        np.divide(1.0, u, out=u)
        r = _ratio(u, _CDF_PQ)
        r *= u
        np.subtract(1.0 / math.sqrt(2.0 * math.pi), r, out=r)
        r /= y
    else:
        r = _ratio(y, _CDF_CD)
    if log and not upper:
        # log Q = -y^2 / 2 + log r: an ulp of y^2 / 2 is an ulp of the result.
        y *= y
        y *= -0.5
        y += np.log(r, out=r)
        return y
    q = _tail(y, r)
    if not upper:
        return q
    if log:
        np.negative(q, out=q)
        return np.log1p(q, out=q)
    return np.subtract(1.0, q, out=q)


def _tail(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Q(y) = exp(-y^2 / 2) r, as exp(-s^2 / 2) exp(-(y - s)(y + s) / 2) r with s = y rounded
    down to sixteenths: s^2 / 2 is exact, so Q keeps its relative accuracy where one
    exp(-y^2 / 2) would lose up to |y| ulps."""
    s = np.trunc(y * 16.0)
    s /= 16.0
    d = y - s
    d *= y + s
    d *= -0.5
    np.exp(d, out=d)
    np.square(s, out=s)
    s *= -0.5
    np.exp(s, out=s)
    s *= d
    s *= r
    return s


def _ratio(u: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """num(u) / den(u) of one coefficient table, both polynomials in one Horner pass."""
    acc = pairs[0] * u
    for c in pairs[1:-1]:
        acc += c
        acc *= u
    acc += pairs[-1]
    return np.divide(acc[0], acc[1], out=acc[0])
