"""Bandit experiment engine and log persistence.

One engine serves both the real world and bootstrap replays.  Experiments
run in lockstep batches: each round is a few array ops across the batch, so
a debias call with B replays costs O(T) numpy operations, not O(B*T) Python
iterations.

A world is held as per-arm arrays and draws a whole round's rewards in one
vectorized step.  ``LawWorld`` tabulates reward laws (the real world, and
the Gaussian multiplier bootstrap world); ``ResampleWorld`` holds a log's
rewards grouped by arm (Efron's bootstrap world).  ``run_batch`` also takes
a plain sequence of laws and tabulates it once per call.

A world built from a stack of W logs has a leading log axis: its tables are
(W, K), and ``run_batch(..., row_log=...)`` names the log each row replays.
A round's draw is one gather at the flat cell ``row_log * K + arm``; a
world of one log is the case W = 1, where the cell is the arm.

A world's contract is each arm's law, not a stream layout: row i of a round
takes the round's i-th draw, whichever arm it chose, so every row's reward
is an independent draw from its arm's law.

One record, ``ArmSummary``, holds each arm's count, sum and centred sum of
squares for a log or a stack (``summarize``), a batch of runs
(``run_batch``) and ``debias``'s replay reduce.  Its squares are centred on
each cell's own mean, NaN on Efron ETC replays (a ``ResampleWorld`` keeps
none), and centred on each log's raw mean in the replay reduce.

An explore-then-commit batch whose logs are not kept never steps round by
round.  Its outcome is a function of per-arm sufficient statistics: K
exploration sums of m draws, the commit to their argmax, and the committed
block's sum of T - mK draws, each with its centred sum of squares from the
world's ``draw_sum``.  It is the package's one ETC sampler, for bootstrap
replays and for ``theory``'s Monte Carlo checks, which run on law worlds
only.  Logged runs (``simulate`` and the harness's real experiments) keep
the round loop, so their logs do not depend on this shortcut.
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import distributions as dist
from . import policies
from .policies import BatchPolicyState, PolicySpec
from .streams import substream

# Cells (rows x rounds) per block that ResampleWorld.draw_sum draws at once:
# a block's arrays stay near 128 KiB, in cache, whatever the batch width.
_SUM_CELLS = 4096 * 4


@dataclass
class BanditLog:
    """One experiment: action and reward sequences plus metadata.

    Actions are stored 0-indexed; the CSV wire format is 1-indexed.  A stack
    of W experiments that share K, T and the policy holds (W, T) arrays.
    """

    K: int
    T: int
    actions: np.ndarray
    rewards: np.ndarray
    policy: PolicySpec
    seed: Optional[int] = None
    world: str = "real"

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        if self.actions.shape[-1:] != (self.T,) or self.rewards.shape != self.actions.shape:
            raise ValueError("action/reward sequences must have length T")
        if self.T and (self.actions.min() < 0 or self.actions.max() >= self.K):
            raise ValueError("actions out of range")
        _world_tag(self.world)

    def truncated(self, horizon: int) -> "BanditLog":
        if not 0 < horizon <= self.T:
            raise ValueError(f"horizon {horizon} outside (0, {self.T}]")
        cut = (..., slice(horizon))
        return replace(self, T=horizon, actions=self.actions[cut].copy(), rewards=self.rewards[cut].copy())


def _world_tag(tag) -> str:
    if tag not in ("real", "bootstrap"):
        raise ValueError(f"unknown world tag {tag!r}")
    return tag


@dataclass
class ArmSummary:
    """Per-arm counts, sums and centred squares: (K,) for a log, (W, K) for a stack, (n, K) for a batch.

    Means and 1/n (MLE) variances are NaN where a count is 0.  In ``debias``'s
    replay reduce the squares are centred on each log's raw mean, not on the
    cell mean, and ``variances`` is not read.
    """

    counts: np.ndarray  # int64
    sums: np.ndarray
    squares: Optional[np.ndarray] = None  # None for a round-loop batch, which keeps no squares
    actions: Optional[np.ndarray] = None
    rewards: Optional[np.ndarray] = None

    @property
    def means(self) -> np.ndarray:
        return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), np.nan)

    @property
    def variances(self) -> np.ndarray:
        return np.where(self.counts > 0, self.squares / np.maximum(self.counts, 1), np.nan)

    @property
    def zero_count_arms(self) -> list[int]:
        """Arms that some summarized log never pulled."""
        return [int(k) for k in np.flatnonzero((self.counts == 0).reshape(-1, self.counts.shape[-1]).any(axis=0))]


class LawWorld:
    """Per-arm reward laws tabulated for one vectorized draw per round.

    ``laws`` holds K laws, or a (W, K) array of them for a stack of logs;
    ``mu``, ``sd`` and ``finite`` have the same shape, the atom tables
    ``top_down``, ``probs`` and ``tails`` have a row per flat cell, and
    ``world[k]`` is arm k's law (the first log's, in a stack).

    An arm with a law of positive variance and finite ``atoms()`` is finite:
    it draws one uniform u per row and takes the top atom whose upper tail
    mass exceeds u (the inverse survival function, so the highest atom takes
    the lowest uniforms, as ``Bernoulli.sample`` does).  Every other arm draws
    mean + sd * z from one standard normal z per row; a zero-variance arm
    is its mean.  Row i takes the round's i-th normal and i-th uniform.
    Normals are drawn only when a normal arm exists and uniforms only when a
    finite arm exists, normals first.  A lookup compares u with each of the
    arm's atoms, which suits laws with a handful of atoms.  ``draw_sum``
    draws a finite arm's j draws as one multinomial vector of atom counts.
    """

    def __init__(self, laws: Union[Sequence[dist.RewardDistribution], np.ndarray]):
        self.laws = np.array(laws, dtype=object)
        flat = self.laws.ravel()
        shape = self.laws.shape
        self.mu = np.array([d.mean() for d in flat], dtype=np.float64).reshape(shape)
        self.sd = np.array([math.sqrt(d.variance()) for d in flat]).reshape(shape)
        atoms = [d.atoms() if d.variance() > 0 else None for d in flat]
        self.finite = np.array([a is not None for a in atoms]).reshape(shape)
        width = max((len(a[0]) for a in atoms if a is not None), default=0)
        # Row c: cell c's atoms from the top down, their probabilities and
        # their cumulative upper tail masses, the last forced to 1.  Padding
        # goes first, so that its tails (0) count for every u and a
        # multinomial's remainder falls to the lowest atom, not to padding.
        self.top_down = np.zeros((len(flat), width))
        self.probs = np.zeros((len(flat), width))
        self.tails = np.full((len(flat), width), 2.0)
        for c, a in enumerate(atoms):
            if a is not None:
                support, probs = a
                pad = width - len(support)
                self.top_down[c, pad:] = support[::-1]
                self.probs[c, pad:] = probs[::-1]
                self.tails[c, :pad] = 0.0
                self.tails[c, pad:] = np.cumsum(probs[::-1])
                self.tails[c, -1] = 1.0
        # Flat views, and which kinds of arm exist, fixed here so that a
        # round's draw only gathers.
        self._mu, self._sd, self._finite = self.mu.ravel(), self.sd.ravel(), self.finite.ravel()
        self._any_normal, self._any_finite = not self._finite.all(), self._finite.any()

    def __len__(self) -> int:
        return self.laws.shape[-1]

    def __getitem__(self, k: int) -> dist.RewardDistribution:
        return self.laws.reshape(-1, len(self))[0, k]

    def draw(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One reward per row from the law of its flat cell (log * K + arm)."""
        rewards = None
        if self._any_normal:
            # mean + sd * z, in place.
            rewards = rng.standard_normal(len(cells))
            rewards *= self._sd.take(cells)
            rewards += self._mu.take(cells)
        if self._any_finite:
            drawn = self._lookup(cells, self.tails[cells], rng.random(len(cells)))
            rewards = drawn if rewards is None else np.where(self._finite.take(cells), drawn, rewards)
        return rewards

    def draw_sum(self, cells: np.ndarray, j: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the sum of j i.i.d. draws from the law of its flat cell and their centred sum of squares.

        A normal cell's sum is j * mean + sqrt(j) * sd * z, one normal per
        row, and its squares an independent sd^2 * chi^2(j - 1), zero at
        j = 1.  A finite cell draws one multinomial vector of atom counts
        per row, which gives both.  Normal-cell draws come first.
        """
        sums = squares = None
        if self._any_normal:
            n, sd = len(cells), self._sd[cells]
            sums = j * self._mu[cells] + math.sqrt(j) * sd * rng.standard_normal(n)
            squares = sd * sd * rng.chisquare(j - 1, n) if j > 1 else np.zeros(n)
        if self._any_finite:
            counts, atoms = rng.multinomial(j, self.probs[cells]), self.top_down[cells]
            drawn = (counts * atoms).sum(axis=1)
            spread = (counts * np.square(atoms - drawn[:, None] / j)).sum(axis=1)
            if sums is not None:
                finite = self._finite[cells]
                drawn, spread = np.where(finite, drawn, sums), np.where(finite, spread, squares)
            sums, squares = drawn, spread
        return sums, squares

    def _lookup(self, cells: np.ndarray, tails: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Atoms drawn by uniforms u (..., n) from the rows' cells; ``tails`` is gathered per row."""
        atom = (u[..., None] >= tails).sum(axis=-1)
        return self.top_down[cells, atom]


class ResampleWorld:
    """Efron's bootstrap world: each arm's observed rewards, grouped by arm.

    ``actions`` and ``rewards`` are one log's (T,) or a stack's (W, T).
    ``values`` holds the first log's arm 0 rewards in log order, then its
    arm 1's, and so on through every log; cell (w, k)'s slice starts at
    ``offsets[w, k]`` and has ``counts[w, k] >= 1`` entries (``offsets``
    and ``counts`` are (K,) for one log).  Row i's draw is the round's i-th
    uniform, scaled to an index into its cell's slice: a resample with
    replacement.  ``draw_sum``'s squares are NaN: only ``debias`` replays
    ETC on this world, and it reads the sums alone.
    """

    def __init__(self, actions: np.ndarray, rewards: np.ndarray, K: int):
        shape = np.shape(actions)[:-1] + (K,)
        cells = _log_cells(actions, K)
        order = np.argsort(cells, kind="stable")
        self.values = np.asarray(rewards).ravel()[order]
        counts = np.bincount(cells, minlength=math.prod(shape))
        if not counts.all():
            raise ValueError(f"arm {np.argmin(counts) % K + 1} has no rewards to resample")
        self.counts = counts.reshape(shape)
        self.offsets = (np.cumsum(counts) - counts).reshape(shape)
        # By flat cell, for the draws; float counts scale u with no conversion.
        self._offsets, self._counts = self.offsets.ravel(), counts.astype(np.float64)

    def __len__(self) -> int:
        return self.counts.shape[-1]

    def __getitem__(self, k: int) -> dist.FiniteDiscrete:
        """Arm k's resampling law (the first log's, in a stack): its distinct rewards, weighted by multiplicity."""
        start = self.offsets.reshape(-1)[k]
        values, multiplicity = np.unique(self.values[start : start + self.counts.reshape(-1)[k]], return_counts=True)
        return dist.FiniteDiscrete(values, multiplicity / multiplicity.sum())

    def draw(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One resampled reward per row from its flat cell (log * K + arm)."""
        u = rng.random(len(cells))
        # u < 1, so the rounded product stays below the count.
        u *= self._counts.take(cells)
        return self.values.take(self._offsets.take(cells) + u.astype(np.int64))

    def draw_sum(self, cells: np.ndarray, j: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the sum of j resampled rewards from its flat cell, drawn in
        blocks of rounds, and NaN in place of their centred sum of squares."""
        n = len(cells)
        offsets, counts = self._offsets[cells], self._counts[cells]
        rounds = max(1, _SUM_CELLS // n)
        sums = np.zeros(n)
        for done in range(0, j, rounds):
            picks = offsets + (rng.random((min(rounds, j - done), n)) * counts).astype(np.int64)
            sums += self.values[picks].sum(axis=0)
        return sums, np.full(n, np.nan)


World = Union[LawWorld, ResampleWorld]


def run_batch(
    n: int,
    K: int,
    T: int,
    policy: PolicySpec,
    world: Union[World, Sequence[dist.RewardDistribution]],
    rng: np.random.Generator,
    record_logs: bool = False,
    row_log: Optional[np.ndarray] = None,
) -> ArmSummary:
    """Run n independent experiments in lockstep off one stream.

    ``world`` is a world object or a sequence of K reward laws, which is
    tabulated as a ``LawWorld``.  In a world of stacked logs, row i replays
    log ``row_log[i]``.  Per round, the draw order is fixed (policy
    randomness, then the world's reward draws, taken by the rows in row
    order), so the outcome is a pure function of the stream state.  An
    unlogged ETC batch draws per-arm sums instead (``_run_etc``).
    """
    validate_config(K, T, policy, world)
    if not isinstance(world, (LawWorld, ResampleWorld)):
        world = LawWorld(world)
    base = 0 if row_log is None else row_log * K
    if isinstance(policy, policies.EtcSpec) and not record_logs:
        return _run_etc(n, K, T, policy.m, world, np.broadcast_to(base, (n,)), rng)
    state = BatchPolicyState(K=K, n=n)
    actions = np.empty((n, T), dtype=np.int64) if record_logs else None
    rewards = np.empty((n, T)) if record_logs else None
    for t0 in range(T):
        chosen = policies.select_batch(policy, state, rng)
        r = world.draw(chosen if row_log is None else base + chosen, rng)
        state.update(chosen, r)
        if record_logs:
            actions[:, t0] = chosen
            rewards[:, t0] = r
    return ArmSummary(state.counts.astype(np.int64), state.sums, actions=actions, rewards=rewards)


def _run_etc(n: int, K: int, T: int, m: int, world: World, base: np.ndarray, rng: np.random.Generator) -> ArmSummary:
    """Sufficient statistics of n ETC runs: each arm's exploration sum of m
    draws, the commit to the argmax of their means (ties to the lowest arm,
    as at round mK + 1 of the round loop), and one committed-block sum.
    The committed arm's centred squares pool both parts' with the gap
    between their means."""
    sums, squares = np.empty((n, K)), np.empty((n, K))
    for k in range(K):
        sums[:, k], squares[:, k] = world.draw_sum(base + k, m, rng)
    counts = np.full((n, K), m, dtype=np.int64)
    rest = T - m * K
    if rest:
        committed = policies._argmax_rows(sums / m)
        rows = np.arange(n)
        block, block_squares = world.draw_sum(base + committed, rest, rng)
        gap = sums[rows, committed] / m - block / rest
        squares[rows, committed] += block_squares + m * rest / (m + rest) * gap * gap
        sums[rows, committed] += block
        counts[rows, committed] += rest
    return ArmSummary(counts, sums, squares)


def validate_config(K: int, T: int, policy: PolicySpec, world) -> None:
    if K < 1 or T < 1:
        raise ValueError("K and T must be positive")
    if len(world) != K:
        raise ValueError(f"expected {K} arm distributions, got {len(world)}")
    if isinstance(policy, policies.EtcSpec) and policy.m * K > T:
        raise ValueError(f"ETC needs m*K <= T, got m={policy.m}, K={K}, T={T}")


def run_experiment(K: int, T: int, policy: PolicySpec, arms: Sequence[dist.RewardDistribution], seed: int) -> BanditLog:
    """One experiment, deterministic given the seed."""
    out = run_batch(1, K, T, policy, arms, substream(seed), record_logs=True)
    return BanditLog(K=K, T=T, actions=out.actions[0], rewards=out.rewards[0], policy=policy, seed=int(seed))


def _log_cells(actions: np.ndarray, K: int) -> np.ndarray:
    """Flat cell log * K + arm of every round of a log (T,) or a stack (W, T), raveled."""
    stacked = np.atleast_2d(actions)
    return (stacked + K * np.arange(len(stacked))[:, None]).ravel()


def summarize(log: BanditLog) -> ArmSummary:
    """Per-arm statistics of a log, or of each log in a stack."""
    shape = log.actions.shape[:-1] + (log.K,)
    size = math.prod(shape)
    cells = _log_cells(log.actions, log.K)
    rewards = log.rewards.ravel()
    counts = np.bincount(cells, minlength=size)
    sums = np.bincount(cells, weights=rewards, minlength=size)
    means = ArmSummary(counts, sums).means
    # Centred squares: E[x^2] - mean^2 cancels catastrophically at a large
    # offset.  Squares of finite rewards may overflow: their variance is inf.
    with np.errstate(over="ignore"):
        squares = np.bincount(cells, weights=(rewards - means[cells]) ** 2, minlength=size)
    return ArmSummary(*(x.reshape(shape) for x in (counts, sums, squares)))


# --- persistence -----------------------------------------------------------


def json_floats(values) -> list:
    """Floats for JSON output, with null for an undefined (non-finite) value."""
    return [float(x) if np.isfinite(x) else None for x in values]


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def meta_path_for(log_path: str) -> str:
    return log_path + ".meta.json"


def save_log(log: BanditLog, csv_path: str, meta_path: Optional[str] = None) -> str:
    """Write `t,arm,reward` CSV (1-indexed) plus the JSON sidecar; returns the sidecar path."""
    lines = ["t,arm,reward"]
    for t0 in range(log.T):
        lines.append(f"{t0 + 1},{int(log.actions[t0]) + 1},{float(log.rewards[t0])!r}")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    meta = {
        "K": log.K,
        "T": log.T,
        "policy": log.policy.to_dict(),
        "seed": log.seed,
        "world": log.world,
    }
    meta_path = meta_path or meta_path_for(csv_path)
    atomic_write_text(meta_path, json.dumps(meta, indent=2) + "\n")
    return meta_path


class CorruptLog(Exception):
    """A log CSV that does not hold one arm in 1..K and one finite reward for each round 1..T."""


class PolicyMismatch(Exception):
    """A log that its declared policy could not have produced."""


def check_policy(log: BanditLog) -> None:
    """Raise PolicyMismatch at the first round whose logged arm the log's policy would not have played.

    ETC, UCB and EG with epsilon = 0 draw nothing that decides their choice,
    so ``select_batch`` on the log's prefix states (summed as the policy sums
    them) must give back every logged arm; the check walks them block by
    block (``policies.prefix_blocks``) and stops at the first mismatch.  TS
    and EG with epsilon > 0 give every arm positive probability, so they can
    produce any arm sequence.
    """
    policy, K, T = log.policy, log.K, log.T
    if isinstance(policy, policies.EtcSpec) and policy.m * K > T:
        raise PolicyMismatch(f"ETC with m={policy.m} explores for {policy.m * K} rounds, longer than the log's {T}")
    if isinstance(policy, policies.TsSpec) or (isinstance(policy, policies.EgSpec) and policy.epsilon > 0):
        return
    rng = substream(0)  # EG never explores at epsilon = 0
    for lo, hi, state in policies.prefix_blocks(log.actions[None], log.rewards[None], K):
        expected = policies.select_batch(policy, state, rng)
        bad = np.flatnonzero(log.actions[lo:hi] != expected)
        if bad.size:
            t, arm = lo + bad[0], expected[bad[0]]
            raise PolicyMismatch(f"round {t + 1}: {policy!r} plays arm {arm + 1}, the log has arm {log.actions[t] + 1}")


def _column(fields: list, name: str, kind: type, dtype) -> np.ndarray:
    out = np.empty(len(fields), dtype=dtype)
    try:
        for i, field in enumerate(fields):
            out[i] = kind(field)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int that int64 cannot hold
        raise CorruptLog(f"data row {i + 1} has an unparsable {name!r} field: {exc}") from None
    return out


def _read_sidecar(meta) -> dict:
    positive = policies.json_type("an integer >= 1", lambda v: policies.json_int(v) >= 1, policies.json_int)
    parsers = {"K": positive, "T": positive, "policy": policies.spec_from_dict,
               "seed": policies.json_optional(policies.json_int), "world": _world_tag}
    return policies.read_record(meta, parsers, {"seed": None, "world": "real"})


def load_log(csv_path: str, meta_path: str) -> BanditLog:
    with open(meta_path) as f:  # a missing sidecar stays an OSError
        try:
            meta = policies.read_field("sidecar", _read_sidecar, json.load(f))
        except policies.RecordError as exc:
            raise CorruptLog(str(exc)) from None
        except ValueError as exc:
            raise CorruptLog(f"sidecar is not valid JSON: {exc}") from None
    K, T = meta["K"], meta["T"]
    header, i = None, 0  # i: the last data row read
    with open(csv_path, newline="") as f:
        try:
            header = next(reader := csv.reader(f), [])
            missing = sorted({"t", "arm", "reward"} - set(header))
            if missing:
                raise CorruptLog(f"missing column(s) {missing}")
            if len(header) != 3:
                raise CorruptLog(f"columns {header} are not exactly t, arm, reward")
            columns = {name: [] for name in header}
            first, second, third = (column.append for column in columns.values())
            for i, row in enumerate(filter(None, reader), 1):  # a blank line reads as [] and is skipped
                if len(row) != 3:
                    raise CorruptLog(f"data row {i} has {'more' if len(row) > 3 else 'fewer'} than 3 fields")
                first(row[0]), second(row[1]), third(row[2])
        except csv.Error as exc:
            where = "the header" if header is None else f"data row {i + 1}"
            raise CorruptLog(f"{where} is unreadable: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CorruptLog(f"log is not valid text: {exc}") from None
    if len(columns["t"]) != T:
        raise CorruptLog(f"expected {T} rows, got {len(columns['t'])}")
    t = _column(columns["t"], "t", int, np.int64) - 1
    hits = np.bincount(t[(t >= 0) & (t < T)], minlength=T)
    if np.any(hits != 1):
        # T rows that miss the set 1..T leave at least one round out.
        raise CorruptLog(f"rounds are not 1..{T} once each: round {np.argmin(hits) + 1} is missing")
    actions = np.empty(T, dtype=np.int64)
    rewards = np.empty(T)
    actions[t] = _column(columns["arm"], "arm", int, np.int64) - 1
    rewards[t] = _column(columns["reward"], "reward", float, np.float64)
    bad_arm = np.flatnonzero((actions < 0) | (actions >= K))
    if bad_arm.size:
        raise CorruptLog(f"arm {actions[bad_arm[0]] + 1} at round {bad_arm[0] + 1} is outside 1..{K}")
    nonfinite = np.flatnonzero(~np.isfinite(rewards))
    if nonfinite.size:
        raise CorruptLog(f"non-finite reward at round {nonfinite[0] + 1}")
    log = BanditLog(actions=actions, rewards=rewards, **meta)
    check_policy(log)
    return log
