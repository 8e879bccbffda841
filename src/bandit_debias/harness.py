"""Replicated Monte Carlo experiment engine with persisted results.

A plan is a list of cells; a cell fixes (policy, arms, K, T, R, bootstrap,
estimator set) and optionally a horizon grid for MSE-versus-time curves.
Replications run in fixed blocks of ``BLOCK`` (50).  A block's real
experiments run as one lockstep batch, the bootstrap replays of all its logs
as one ``debias_stack`` per horizon, and its IPW/AIPW estimates come from
one propensity call.  Streams are keyed (master seed, cell index, block
index), plus the horizon index for truncated-horizon replays.  The block
size never depends on the worker count, so a rerun is bit-identical at any
worker count.  Per-replication failures (for example an undefined bootstrap
bias) are counted per cell, not fatal.
"""
from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import distributions as dist
from . import estimators as est
from . import policies
from .bootstrap import BootstrapSpec
from .debias import debias  # noqa: F401  (perfbench/tracing.py wraps harness.debias)
from .debias import debias_stack
from .simulator import BanditLog, atomic_write_text, json_floats, run_batch, summarize, validate_config
from .simulator import run_experiment  # noqa: F401  (perfbench/tracing.py wraps harness.run_experiment)
from .streams import TAG_HARNESS_DEBIAS, TAG_HARNESS_MSE, TAG_HARNESS_SIM, child_seed, substream

BLOCK = 50  # replications per block of work, whatever the worker count


@dataclass(frozen=True)
class Cell:
    name: str
    policy: policies.PolicySpec
    arms: tuple
    K: int
    T: int
    replications: int
    bootstrap: BootstrapSpec
    estimators: tuple = ("mean",)
    horizon_grid: tuple = ()
    mse_B: Optional[int] = None  # bootstrap size for truncated-horizon debiasing

    def __post_init__(self):
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
        unknown = set(self.estimators) - set(est.NAMES)
        if unknown:
            raise ValueError(f"cell {self.name!r}: unknown estimator(s) {sorted(unknown)}")


@dataclass(frozen=True)
class ExperimentPlan:
    master_seed: int
    cells: tuple

    @staticmethod
    def from_dict(d: dict) -> "ExperimentPlan":
        cells = []
        known = {f.name for f in fields(Cell)}
        for c in d["cells"]:
            unknown = set(c) - known
            if unknown:
                raise ValueError(f"cell {c.get('name')!r}: unknown key(s) {sorted(unknown)}")
            boot = c.get("bootstrap", {"kind": "mb", "B": 1000})
            cells.append(
                Cell(
                    name=str(c["name"]),
                    policy=policies.spec_from_dict(c["policy"]),
                    arms=tuple(dist.from_dict(a) for a in c["arms"]),
                    K=int(c["K"]),
                    T=int(c["T"]),
                    replications=int(c["replications"]),
                    bootstrap=BootstrapSpec(boot["kind"], int(boot["B"])),
                    estimators=tuple(c.get("estimators", ["mean"])),
                    horizon_grid=tuple(int(h) for h in c.get("horizon_grid", [])),
                    mse_B=None if c.get("mse_B") is None else int(c["mse_B"]),
                )
            )
        return ExperimentPlan(master_seed=int(d["master_seed"]), cells=tuple(cells))


@dataclass
class ReplicationRecord:
    raw: np.ndarray
    estimated_bias: np.ndarray
    corrected: np.ndarray
    ipw: Optional[np.ndarray]
    aipw: Optional[np.ndarray]
    # estimator -> horizon -> per-arm estimate
    horizon_estimates: dict = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class CellResult:
    cell: Cell
    mc_bias: np.ndarray
    mc_bias_se: np.ndarray
    mean_raw: np.ndarray
    mean_estimated_bias: np.ndarray
    mean_corrected: np.ndarray
    mse: dict  # estimator -> {horizon -> per-arm MSE}
    error_counts: dict
    records: list

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


def _failed_record(cell: Cell, label: str) -> ReplicationRecord:
    nan = np.full(cell.K, np.nan)
    return ReplicationRecord(raw=nan, estimated_bias=nan, corrected=nan, ipw=None, aipw=None, error=label)


def _block_count(cell: Cell) -> int:
    return -(-cell.replications // BLOCK)


def _debias_rows(logs: BanditLog, spec: BootstrapSpec, seed: int) -> list:
    """Per row of the stacked logs, its debias report, or None where the log
    left an arm unpulled and has no bootstrap world."""
    rows = np.flatnonzero((summarize(logs).counts > 0).all(axis=1))
    reports = [None] * len(logs.actions)
    if rows.size:
        pulled = BanditLog(logs.K, logs.T, logs.actions[rows], logs.rewards[rows], logs.policy)
        for r, report in zip(rows, debias_stack(pulled, spec, seed)):
            reports[r] = report
    return reports


def _run_block(args) -> list[ReplicationRecord]:
    """Records of the replications in one block of a cell."""
    cell, master_seed, cell_index, block = args
    K, T, kind = cell.K, cell.T, cell.bootstrap.kind
    n = min(BLOCK, cell.replications - block * BLOCK)
    rng = substream(master_seed, TAG_HARNESS_SIM, cell_index, block)
    sim = run_batch(n, K, T, cell.policy, cell.arms, rng, record_logs=True)
    logs = BanditLog(K, T, sim.actions, sim.rewards, cell.policy)
    nan = np.full(K, np.nan)

    def corrected(reports):
        return [nan if rep is None else rep.corrected_means for rep in reports]

    reports = _debias_rows(logs, cell.bootstrap, child_seed(master_seed, TAG_HARNESS_DEBIAS, cell_index, block))
    # estimator -> horizon -> one per-arm estimate per row
    estimates: dict[str, dict] = {kind: {T: corrected(reports)}}
    mse_spec = BootstrapSpec(kind, cell.mse_B or cell.bootstrap.B)
    for h_index, horizon in enumerate(cell.horizon_grid):
        if horizon < T:  # the full horizon reuses the terminal debias
            seed = child_seed(master_seed, TAG_HARNESS_MSE, cell_index, block, h_index)
            estimates[kind][horizon] = corrected(_debias_rows(logs.truncated(horizon), mse_spec, seed))
    hazard = np.zeros(n, dtype=bool)
    props = None
    if {"ipw", "aipw"} & set(cell.estimators):
        props = policies.propensity(cell.policy, sim.actions, sim.rewards, K)
    if props is not None:
        # A zero chosen-arm propensity fails its replication, not the block.
        hazard = est.division_hazards(sim.actions, props)
        good = np.flatnonzero(~hazard)
        for name, kernel in (("ipw", est.ipw_batch), ("aipw", est.aipw_batch)):
            if name in cell.estimators:
                estimates[name] = {}
                for h in {T, *cell.horizon_grid}:
                    estimates[name][h] = np.full((n, K), np.nan)
                    estimates[name][h][good] = kernel(sim.actions[good, :h], sim.rewards[good, :h], props[good, :h])
    records = []
    for r, report in enumerate(reports):
        if hazard[r]:
            records.append(_failed_record(cell, "DivisionHazard"))
            continue
        # A log with an unpulled arm has no bootstrap world, but the log
        # itself is fine: its propensity-weighted estimates stay.
        error = "ZeroCountArm" if report is None else ("UndefinedBias" if report.undefined_arms else None)
        records.append(
            ReplicationRecord(
                raw=nan if report is None else report.raw_means,
                estimated_bias=nan if report is None else report.estimated_bias,
                corrected=estimates[kind][T][r],
                ipw=estimates["ipw"][T][r] if "ipw" in estimates else None,
                aipw=estimates["aipw"][T][r] if "aipw" in estimates else None,
                horizon_estimates={
                    name: {h: table[h][r] for h in cell.horizon_grid} for name, table in estimates.items()
                },
                error=error,
            )
        )
    return records


# perfbench/tracing.py wraps harness._run_replication; the unit of work is a block.
_run_replication = _run_block


def run_plan(plan: ExperimentPlan, workers: int = 1, out_dir: Optional[str] = None) -> list[CellResult]:
    """Execute every cell; optionally persist summary.json / replications.csv / mse.csv.

    With workers > 1 one process pool runs the blocks of every cell.
    """
    tasks = [
        (cell, plan.master_seed, cell_index, block)
        for cell_index, cell in enumerate(plan.cells)
        for block in range(_block_count(cell))
    ]
    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return _collect(plan, pool.map(_run_block, tasks), out_dir)
    return _collect(plan, map(_run_block, tasks), out_dir)


def _collect(plan: ExperimentPlan, blocks, out_dir: Optional[str]) -> list[CellResult]:
    """Aggregate (and persist) each cell as soon as its blocks, taken in task order, are in."""
    results = []
    for cell in plan.cells:
        records = [rec for _ in range(_block_count(cell)) for rec in next(blocks)]
        results.append(_aggregate(cell, records))
        if out_dir is not None:
            _persist(results[-1], out_dir)
    return results


def _aggregate(cell: Cell, records: Sequence[ReplicationRecord]) -> CellResult:
    true_means = np.array([a.mean() for a in cell.arms])
    raw = np.stack([r.raw for r in records])
    bias = np.stack([r.estimated_bias for r in records])
    corrected = np.stack([r.corrected for r in records])
    n_valid = np.sum(~np.isnan(raw), axis=0)
    mean_raw = _nan_columns(np.nanmean, raw)
    mc_bias_se = _nan_columns(np.nanstd, raw) / np.sqrt(np.maximum(n_valid, 1))
    mse: dict[str, dict[int, np.ndarray]] = {}
    for name in (cell.bootstrap.kind, "ipw", "aipw"):
        horizons = sorted({h for r in records for h in r.horizon_estimates.get(name, {})})
        if horizons:
            nan = np.full(cell.K, np.nan)
            mse[name] = {
                h: _nan_columns(
                    np.nanmean,
                    (np.stack([r.horizon_estimates.get(name, {}).get(h, nan) for r in records]) - true_means) ** 2,
                )
                for h in horizons
            }
    error_counts: dict[str, int] = {}
    for r in records:
        if r.error:
            error_counts[r.error] = error_counts.get(r.error, 0) + 1
    return CellResult(
        cell=cell,
        mc_bias=mean_raw - true_means,
        mc_bias_se=mc_bias_se,
        mean_raw=mean_raw,
        mean_estimated_bias=_nan_columns(np.nanmean, bias),
        mean_corrected=_nan_columns(np.nanmean, corrected),
        mse=mse,
        error_counts=error_counts,
        records=list(records),
    )


def _nan_columns(reduce, x: np.ndarray) -> np.ndarray:
    """reduce(x, axis=0) of a NaN-skipping reducer; NaN, with no warning, where a column is all NaN."""
    empty = np.isnan(x).all(axis=0)
    return np.where(empty, np.nan, reduce(np.where(empty, 0.0, x), axis=0))


def _persist(result: CellResult, out_dir: str) -> None:
    cell_dir = os.path.join(out_dir, result.cell.name)
    os.makedirs(cell_dir, exist_ok=True)
    atomic_write_text(os.path.join(cell_dir, "summary.json"), json.dumps(result.summary_dict(), indent=2) + "\n")
    lines = ["replication,arm,raw_mean,estimated_bias,corrected_mean,ipw,aipw"]
    for r_index, rec in enumerate(result.records):
        for k in range(result.cell.K):
            ipw = "" if rec.ipw is None else repr(float(rec.ipw[k]))
            aipw = "" if rec.aipw is None else repr(float(rec.aipw[k]))
            lines.append(
                f"{r_index},{k + 1},{float(rec.raw[k])!r},{float(rec.estimated_bias[k])!r},"
                f"{float(rec.corrected[k])!r},{ipw},{aipw}"
            )
    atomic_write_text(os.path.join(cell_dir, "replications.csv"), "\n".join(lines) + "\n")
    if result.mse:
        lines = ["estimator,horizon,arm,mse"]
        for name, table in result.mse.items():
            for horizon, values in table.items():
                for k in range(result.cell.K):
                    lines.append(f"{name},{horizon},{k + 1},{float(values[k])!r}")
        atomic_write_text(os.path.join(cell_dir, "mse.csv"), "\n".join(lines) + "\n")
