"""Replicated Monte Carlo experiment engine with persisted results.

A plan is a list of cells; a cell fixes (policy, arms, K, T, R, bootstrap,
estimator set) and optionally a horizon grid for MSE-versus-time curves.
Replications run in fixed blocks of ``BLOCK`` (50).  A block's real
experiments run as one lockstep batch, the bootstrap replays of all its logs
as one ``debias`` call on their stack per horizon, and its IPW/AIPW
estimates at every horizon from one walk of the logs' prefix states, the
source of both propensities and AIPW's running means.  Streams are keyed
(master seed, cell index, block index), plus the horizon index for truncated-
horizon replays.  The block size never depends on the worker count, so a
rerun is bit-identical at any worker count.
Results stay per-replication columns from the replay to the writer: a cell
concatenates its blocks' columns and derives its summaries from them.
Per-replication failures (for example an undefined bootstrap bias) are
labelled and counted per cell, not fatal.
"""
from __future__ import annotations

import collections
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import distributions as dist
from . import estimators as est
from . import policies
from .bootstrap import BootstrapSpec
from .debias import MAX_REPLAYS, debias
from .policies import json_int, json_list, json_optional, json_str, read_dataclass, read_record
from .simulator import BanditLog, LawWorld, atomic_write_text, json_floats, run_batch, summarize, validate_config
from .simulator import run_experiment  # noqa: F401  (perfbench/tracing.py wraps harness.run_experiment)
from .streams import TAG_HARNESS_DEBIAS, TAG_HARNESS_MSE, TAG_HARNESS_SIM, child_seed, substream, task_map

BLOCK = 50  # replications per block of work, whatever the worker count


@dataclass(frozen=True)
class Cell:
    name: str  # a plain directory name: the cell's outputs go to <out_dir>/<name>
    policy: policies.PolicySpec
    arms: tuple
    K: int
    T: int
    replications: int
    bootstrap: BootstrapSpec = BootstrapSpec("mb", 1000)
    estimators: tuple = ("mean",)
    horizon_grid: tuple = ()
    mse_B: Optional[int] = None  # bootstrap size for truncated-horizon debiasing

    def __post_init__(self):
        if self.name in ("", ".", "..") or set(self.name) & set("/\\\0"):
            raise ValueError(f"cell name must be a plain directory name, got {self.name!r}")
        if len(self.arms) != self.K:
            raise ValueError(f"cell {self.name!r}: {self.K} arms expected")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if any(not self.K <= h <= self.T for h in self.horizon_grid):
            raise ValueError("horizon grid must lie in [K, T]")
        if list(self.horizon_grid) != sorted(set(self.horizon_grid)):
            raise ValueError("horizon grid must be strictly increasing")
        try:
            for horizon in (*self.horizon_grid, self.T):  # ETC must finish exploring
                validate_config(self.K, horizon, self.policy, self.arms)
        except ValueError as exc:
            raise ValueError(f"cell {self.name!r}: {exc}") from None
        if self.mse_B is not None and self.mse_B < 1:
            raise ValueError("mse_B must be >= 1")
        block = min(BLOCK, self.replications)  # the logs of one debias call
        for field, B in (("bootstrap.B", self.bootstrap.B), ("mse_B", self.mse_B or 1)):
            if block * B > MAX_REPLAYS:
                raise ValueError(f"cell {self.name!r}: {field} = {B} over a block of {block} replications "
                                 f"asks for more than MAX_REPLAYS = {MAX_REPLAYS} replays")
        unknown = set(self.estimators) - set(est.NAMES)
        if unknown:
            raise ValueError(f"cell {self.name!r}: unknown estimator(s) {sorted(unknown)}")


_CELL_FIELDS = {
    "name": json_str, "policy": policies.spec_from_dict, "arms": json_list(dist.from_dict),
    "K": json_int, "T": json_int, "replications": json_int,
    "bootstrap": lambda record: read_dataclass(BootstrapSpec, record),
    "estimators": json_list(json_str), "horizon_grid": json_list(json_int), "mse_B": json_optional(json_int),
}


@dataclass(frozen=True)
class ExperimentPlan:
    master_seed: int
    cells: tuple

    def __post_init__(self):
        names = [cell.name for cell in self.cells]
        if len(set(names)) < len(names):
            raise ValueError(f"cell names must be distinct, got {names}")

    @staticmethod
    def from_dict(d: dict, master_seed: Optional[int] = None) -> "ExperimentPlan":
        """A plan from its JSON record; a given ``master_seed`` replaces the record's, which may then be left out."""
        parsers = {"master_seed": json_int, "cells": json_list(lambda cell: read_dataclass(Cell, cell, _CELL_FIELDS))}
        plan = read_record(d, parsers, None if master_seed is None else {"master_seed": master_seed})
        return ExperimentPlan(plan["master_seed"] if master_seed is None else master_seed, plan["cells"])


@dataclass
class CellResult:
    """A cell's per-replication columns and the summaries derived from them.

    A ZeroCountArm row keeps only its IPW/AIPW estimates; a DivisionHazard row is NaN throughout.
    """

    cell: Cell
    raw: np.ndarray             # (R, K) sample means
    estimated_bias: np.ndarray  # (R, K)
    estimates: dict             # estimator -> {horizon -> (R, K)}
    errors: list                # per replication, its failure label or None

    @property
    def corrected(self) -> np.ndarray:
        return self.estimates[self.cell.bootstrap.kind][self.cell.T]

    @property
    def true_means(self) -> np.ndarray:
        return np.array([a.mean() for a in self.cell.arms])

    @property
    def mean_raw(self) -> np.ndarray:
        return _nan_columns(np.nanmean, self.raw)

    @property
    def mc_bias(self) -> np.ndarray:
        return self.mean_raw - self.true_means

    @property
    def mc_bias_se(self) -> np.ndarray:
        n_valid = np.sum(~np.isnan(self.raw), axis=0)
        # One valid replication gives no spread: its SE is undefined, not 0.
        return np.where(n_valid > 1, _nan_columns(np.nanstd, self.raw) / np.sqrt(np.maximum(n_valid, 1)), np.nan)

    @property
    def mean_estimated_bias(self) -> np.ndarray:
        return _nan_columns(np.nanmean, self.estimated_bias)

    @property
    def mean_corrected(self) -> np.ndarray:
        return _nan_columns(np.nanmean, self.corrected)

    @property
    def mse(self) -> dict:
        """estimator -> {horizon -> per-arm MSE} over the horizon grid."""
        truth = self.true_means
        grid = self.cell.horizon_grid
        return {
            name: {h: _nan_columns(np.nanmean, (table[h] - truth) ** 2) for h in grid}
            for name, table in self.estimates.items()
        } if grid else {}

    @property
    def error_counts(self) -> dict:
        return dict(collections.Counter(filter(None, self.errors)))

    def summary_dict(self) -> dict:
        return {
            "cell": self.cell.name,
            "K": self.cell.K,
            "T": self.cell.T,
            "replications": self.cell.replications,
            "policy": self.cell.policy.to_dict(),
            "bootstrap": {"kind": self.cell.bootstrap.kind, "B": self.cell.bootstrap.B},
            "true_means": [a.mean() for a in self.cell.arms],
            "mc_bias": json_floats(self.mc_bias),
            "mc_bias_se": json_floats(self.mc_bias_se),
            "mean_raw": json_floats(self.mean_raw),
            "mean_estimated_bias": json_floats(self.mean_estimated_bias),
            "mean_corrected": json_floats(self.mean_corrected),
            "mse": {name: {str(h): json_floats(v) for h, v in table.items()} for name, table in self.mse.items()},
            "error_counts": self.error_counts,
        }


def _block_count(cell: Cell) -> int:
    return -(-cell.replications // BLOCK)


def _debias_rows(logs: BanditLog, spec: BootstrapSpec, seed: int) -> tuple:
    """``debias`` of stacked logs scattered into NaN-filled (n, K) raw, bias and corrected
    arrays, plus masks of the logs with no bootstrap world and with an undefined bias."""
    no_world = (summarize(logs).counts == 0).any(axis=1)
    columns = np.full((3, len(no_world), logs.K), np.nan)
    undefined = np.zeros(len(no_world), dtype=bool)
    if not no_world.all():
        pulled = BanditLog(logs.K, logs.T, logs.actions[~no_world], logs.rewards[~no_world], logs.policy)
        report = debias(pulled, spec, seed)
        columns[:, ~no_world] = report.raw_means, report.estimated_bias, report.corrected_means
        undefined[~no_world] = (report.b_effective == 0).any(axis=1)
    return *columns, no_world, undefined


def _run_block(args) -> tuple:
    """One block's columns: raw means and estimated biases (n, K), estimates
    {estimator: {horizon: (n, K)}}, and per row its failure label or None."""
    cell, master_seed, cell_index, block = args
    K, T, kind = cell.K, cell.T, cell.bootstrap.kind
    n = min(BLOCK, cell.replications - block * BLOCK)
    rng = substream(master_seed, TAG_HARNESS_SIM, cell_index, block)
    sim = run_batch(n, K, T, cell.policy, LawWorld(cell.arms), rng, record_logs=True)
    logs = BanditLog(K, T, sim.actions, sim.rewards, cell.policy)
    seed = child_seed(master_seed, TAG_HARNESS_DEBIAS, cell_index, block)
    raw, bias, corrected, no_world, undefined = _debias_rows(logs, cell.bootstrap, seed)
    estimates = {kind: {T: corrected}}
    mse_spec = BootstrapSpec(kind, cell.mse_B or cell.bootstrap.B)
    for h_index, horizon in enumerate(cell.horizon_grid):
        if horizon < T:  # the full horizon reuses the terminal debias
            seed = child_seed(master_seed, TAG_HARNESS_MSE, cell_index, block, h_index)
            estimates[kind][horizon] = _debias_rows(logs.truncated(horizon), mse_spec, seed)[2]
    first_zero, weighted = est.weighted_estimates(logs, cell.estimators, {T, *cell.horizon_grid})
    hazard = first_zero >= 0  # a zero chosen-arm propensity fails its replication, not the block
    estimates.update(weighted)
    for column in (raw, bias, *estimates[kind].values()):  # a DivisionHazard row is NaN throughout
        column[hazard] = np.nan
    # A log with an unpulled arm has no bootstrap world, but the log itself
    # is fine: its propensity-weighted estimates stay.
    errors = [
        "DivisionHazard" if h else "ZeroCountArm" if z else "UndefinedBias" if u else None
        for h, z, u in zip(hazard, no_world, undefined)
    ]
    return raw, bias, estimates, errors


_run_replication = _run_block  # perfbench/tracing.py wraps harness._run_replication; the unit of work is a block


def run_plan(plan: ExperimentPlan, workers: int = 1, out_dir: Optional[str] = None) -> list[CellResult]:
    """Execute every cell; optionally persist summary.json / replications.csv / mse.csv.

    With workers > 1 one process pool, of at most one process per block,
    runs the blocks of every cell.
    """
    tasks = [
        (cell, plan.master_seed, cell_index, block)
        for cell_index, cell in enumerate(plan.cells)
        for block in range(_block_count(cell))
    ]
    with task_map(_run_block, tasks, workers) as blocks:
        return _collect(plan, blocks, out_dir)


def _collect(plan: ExperimentPlan, blocks, out_dir: Optional[str]) -> list[CellResult]:
    """Concatenate (and persist) each cell's columns as soon as its blocks, taken in task order, are in."""
    results = []
    for cell in plan.cells:
        raw, bias, estimates, errors = zip(*(next(blocks) for _ in range(_block_count(cell))))
        tables = {
            name: {h: np.concatenate([block[name][h] for block in estimates]) for h in table}
            for name, table in estimates[0].items()
        }
        labels = [label for block in errors for label in block]
        results.append(CellResult(cell, np.concatenate(raw), np.concatenate(bias), tables, labels))
        if out_dir is not None:
            _persist(results[-1], out_dir)
    return results


def _nan_columns(reduce, x: np.ndarray) -> np.ndarray:
    """reduce(x, axis=0) of a NaN-skipping reducer; NaN, with no warning, where a column is all NaN."""
    empty = np.isnan(x).all(axis=0)
    return np.where(empty, np.nan, reduce(np.where(empty, 0.0, x), axis=0))


def _persist(result: CellResult, out_dir: str) -> None:
    cell_dir = os.path.join(out_dir, result.cell.name)
    os.makedirs(cell_dir, exist_ok=True)
    atomic_write_text(os.path.join(cell_dir, "summary.json"), json.dumps(result.summary_dict(), indent=2) + "\n")
    columns = [result.raw, result.estimated_bias, result.corrected]
    # Blank where the cell has no such estimator or the row is a DivisionHazard.
    weighted = [result.estimates.get(name, {}).get(result.cell.T) for name in ("ipw", "aipw")]
    lines = ["replication,arm,raw_mean,estimated_bias,corrected_mean,ipw,aipw"]
    for r, error in enumerate(result.errors):
        for k in range(result.cell.K):
            values = [repr(float(c[r, k])) for c in columns]
            values += ["" if w is None or error == "DivisionHazard" else repr(float(w[r, k])) for w in weighted]
            lines.append(f"{r},{k + 1}," + ",".join(values))
    atomic_write_text(os.path.join(cell_dir, "replications.csv"), "\n".join(lines) + "\n")
    if result.mse:
        lines = ["estimator,horizon,arm,mse"]
        for name, table in result.mse.items():
            for horizon, values in table.items():
                for k in range(result.cell.K):
                    lines.append(f"{name},{horizon},{k + 1},{float(values[k])!r}")
        atomic_write_text(os.path.join(cell_dir, "mse.csv"), "\n".join(lines) + "\n")
