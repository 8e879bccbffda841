"""Replicated Monte Carlo experiment engine with persisted results.

A plan is a list of cells; a cell fixes (policy, arms, K, T, R, bootstrap,
estimator set) and optionally a horizon grid for MSE-versus-time curves.
Each replication runs simulate -> debias -> estimate on seeds derived from
(master seed, cell index, replication index), so a rerun is bit-identical
at any worker count.  Per-replication failures (for example an undefined
bootstrap bias) are counted per cell, not fatal.
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
from .bootstrap import BootstrapSpec, ZeroCountArm
from .debias import debias
from .simulator import atomic_write_text, json_floats, run_experiment, validate_config
from .streams import TAG_HARNESS_DEBIAS, TAG_HARNESS_MSE, TAG_HARNESS_SIM, child_seed


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


def _run_replication(cell: Cell, master_seed: int, cell_index: int, r: int) -> ReplicationRecord:
    try:
        return _run_replication_inner(cell, master_seed, cell_index, r)
    except est.DivisionHazard as exc:
        return _failed_record(cell, type(exc).__name__)


def _run_replication_inner(cell: Cell, master_seed: int, cell_index: int, r: int) -> ReplicationRecord:
    sim_seed = child_seed(master_seed, TAG_HARNESS_SIM, cell_index, r)
    log = run_experiment(cell.K, cell.T, cell.policy, cell.arms, seed=sim_seed)
    nan = np.full(cell.K, np.nan)
    error = None
    try:
        report = debias(log, cell.bootstrap, seed=child_seed(master_seed, TAG_HARNESS_DEBIAS, cell_index, r))
        raw, est_bias, corrected = report.raw_means, report.estimated_bias, report.corrected_means
        if report.undefined_arms:
            error = "UndefinedBias"
    except ZeroCountArm as exc:
        # The bootstrap world is undefined, but the log itself is fine;
        # keep the propensity-weighted estimates so they stay unconditional.
        raw = est_bias = corrected = nan
        error = type(exc).__name__
    ipw = aipw = None
    props = None
    if {"ipw", "aipw"} & set(cell.estimators):
        props = est.propensity_trace(log)
        if props is not None:
            if "ipw" in cell.estimators:
                ipw = est.ipw_estimate(log, props)
            if "aipw" in cell.estimators:
                aipw = est.aipw_estimate(log, props)
    record = ReplicationRecord(
        raw=raw,
        estimated_bias=est_bias,
        corrected=corrected,
        ipw=ipw,
        aipw=aipw,
        error=error,
    )
    kind = cell.bootstrap.kind
    for h_index, horizon in enumerate(cell.horizon_grid):
        if horizon == cell.T:
            # The full-horizon truncation is the log itself; reuse the
            # terminal debias/estimates so the grid endpoint matches run_plan.
            record.horizon_estimates.setdefault(kind, {})[horizon] = corrected
            if ipw is not None:
                record.horizon_estimates.setdefault("ipw", {})[horizon] = ipw
            if aipw is not None:
                record.horizon_estimates.setdefault("aipw", {})[horizon] = aipw
            continue
        trunc = log.truncated(horizon)
        boot = BootstrapSpec(kind, cell.mse_B or cell.bootstrap.B)
        try:
            trep = debias(trunc, boot, seed=child_seed(master_seed, TAG_HARNESS_MSE, cell_index, r, h_index))
            record.horizon_estimates.setdefault(kind, {})[horizon] = trep.corrected_means
        except ZeroCountArm:
            record.horizon_estimates.setdefault(kind, {})[horizon] = nan
        if props is not None:
            tprops = props[:horizon]
            if "ipw" in cell.estimators:
                record.horizon_estimates.setdefault("ipw", {})[horizon] = est.ipw_estimate(trunc, tprops)
            if "aipw" in cell.estimators:
                record.horizon_estimates.setdefault("aipw", {})[horizon] = est.aipw_estimate(trunc, tprops)
    return record


def _run_block(args) -> list[ReplicationRecord]:
    cell, master_seed, cell_index, r_lo, r_hi = args
    return [_run_replication(cell, master_seed, cell_index, r) for r in range(r_lo, r_hi)]


def run_plan(plan: ExperimentPlan, workers: int = 1, out_dir: Optional[str] = None) -> list[CellResult]:
    """Execute every cell; optionally persist summary.json / replications.csv / mse.csv."""
    results = []
    for cell_index, cell in enumerate(plan.cells):
        block = 50
        tasks = [
            (cell, plan.master_seed, cell_index, lo, min(lo + block, cell.replications))
            for lo in range(0, cell.replications, block)
        ]
        if workers > 1 and len(tasks) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(_run_block, tasks))
        else:
            blocks = [_run_block(t) for t in tasks]
        records = [rec for blk in blocks for rec in blk]
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
