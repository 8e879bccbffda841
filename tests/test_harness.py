import json
import os

import numpy as np
import pytest

from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.distributions import Bernoulli, Gaussian
from bandit_debias.harness import Cell, ExperimentPlan, run_plan
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec


def _gauss_cell(name="etc", R=20, B=30, **kw):
    defaults = dict(
        policy=EtcSpec(10),
        arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)),
        K=2, T=100, replications=R,
        bootstrap=BootstrapSpec("mb", B),
    )
    defaults.update(kw)
    return Cell(name=name, **defaults)


def test_plan_from_dict_round_trip():
    d = {
        "master_seed": 9,
        "cells": [
            {
                "name": "ts_bern",
                "policy": {"name": "ts"},
                "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}],
                "K": 2, "T": 50, "replications": 5,
                "bootstrap": {"kind": "efron", "B": 20},
                "estimators": ["mean", "ipw", "aipw"],
                "horizon_grid": [25, 50],
                "mse_B": 10,
            }
        ],
    }
    plan = ExperimentPlan.from_dict(d)
    assert plan.master_seed == 9
    cell = plan.cells[0]
    assert cell.policy == TsSpec()
    assert cell.arms == (Bernoulli(0.3), Bernoulli(0.6))
    assert cell.bootstrap == BootstrapSpec("efron", 20)
    assert cell.horizon_grid == (25, 50)
    assert cell.mse_B == 10


def test_cell_validation():
    with pytest.raises(ValueError):
        _gauss_cell(K=3)
    with pytest.raises(ValueError):
        _gauss_cell(R=0)
    with pytest.raises(ValueError):
        _gauss_cell(horizon_grid=(50, 25))
    with pytest.raises(ValueError):
        _gauss_cell(horizon_grid=(1,))


def test_single_degenerate_replication():
    cell = Cell(name="point", policy=EtcSpec(5),
                arms=(Gaussian(2.0, 0.0), Gaussian(3.0, 0.0)),
                K=2, T=20, replications=1, bootstrap=BootstrapSpec("mb", 10))
    (res,) = run_plan(ExperimentPlan(master_seed=1, cells=(cell,)))
    assert res.mc_bias.tolist() == [0.0, 0.0]
    assert res.mc_bias_se.tolist() == [0.0, 0.0]
    assert res.mean_estimated_bias.tolist() == [0.0, 0.0]
    assert res.error_counts == {}


def test_worker_count_bit_identical():
    plan = ExperimentPlan(master_seed=5, cells=(_gauss_cell(R=120, B=20),))
    (a,) = run_plan(plan, workers=1)
    (b,) = run_plan(plan, workers=2)
    assert np.array_equal(a.mc_bias, b.mc_bias)
    assert np.array_equal(a.mean_corrected, b.mean_corrected)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.raw, rb.raw)
        assert np.array_equal(ra.corrected, rb.corrected)


def test_rerun_is_deterministic():
    plan = ExperimentPlan(master_seed=6, cells=(_gauss_cell(R=30, B=15),))
    (a,) = run_plan(plan)
    (b,) = run_plan(plan)
    assert np.array_equal(a.mean_raw, b.mean_raw)
    assert np.array_equal(a.mean_estimated_bias, b.mean_estimated_bias)


def test_failed_replications_counted_not_fatal():
    # epsilon-greedy at T=30 leaves arm 2 unpulled in a sizable fraction of runs
    cell = Cell(name="eg", policy=EgSpec(0.05),
                arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)),
                K=2, T=30, replications=60, bootstrap=BootstrapSpec("mb", 10),
                estimators=("mean", "ipw"))
    (res,) = run_plan(ExperimentPlan(master_seed=3, cells=(cell,)))
    assert res.error_counts.get("ZeroCountArm", 0) > 0
    n_failed = sum(1 for r in res.records if np.isnan(r.raw).all())
    assert n_failed == res.error_counts["ZeroCountArm"]
    assert np.all(np.isfinite(res.mc_bias))
    # propensity estimates survive bootstrap failure: they stay unconditional
    failed = [r for r in res.records if r.error == "ZeroCountArm"]
    assert all(r.ipw is not None and np.all(np.isfinite(r.ipw)) for r in failed)


def test_horizon_grid_endpoint_matches_terminal():
    # Corrected estimates are filed under the cell's bootstrap kind.
    for kind in ("mb", "efron"):
        cell = _gauss_cell(R=10, horizon_grid=(50, 100), mse_B=10, bootstrap=BootstrapSpec(kind, 20))
        (res,) = run_plan(ExperimentPlan(master_seed=8, cells=(cell,)))
        for rec in res.records:
            assert np.array_equal(rec.horizon_estimates[kind][100], rec.corrected)
        assert set(res.mse) == {kind}
        assert set(res.mse[kind]) == {50, 100}
        terminal = np.nanmean(
            (np.stack([r.corrected for r in res.records]) - np.array([1.0, 1.5])) ** 2, axis=0)
        np.testing.assert_allclose(res.mse[kind][100], terminal, rtol=0, atol=1e-15)


def test_mse_curves_shape():
    cell = Cell(name="eg_curves", policy=EgSpec(0.1),
                arms=(Bernoulli(0.3), Bernoulli(0.6)),
                K=2, T=60, replications=40, bootstrap=BootstrapSpec("mb", 20),
                estimators=("mean", "ipw", "aipw"), horizon_grid=(30, 60), mse_B=10)
    table = run_plan(ExperimentPlan(master_seed=2, cells=(cell,)))[0].mse
    assert set(table) == {"mb", "ipw", "aipw"}
    for name in table:
        assert set(table[name]) == {30, 60}
        assert table[name][30].shape == (2,)


def test_persistence_files(tmp_path):
    cell = _gauss_cell(R=8, B=10, horizon_grid=(50, 100), mse_B=5)
    run_plan(ExperimentPlan(master_seed=4, cells=(cell,)), out_dir=str(tmp_path))
    base = tmp_path / "etc"
    summary = json.loads((base / "summary.json").read_text())
    assert summary["replications"] == 8
    assert summary["true_means"] == [1.0, 1.5]
    assert len(summary["mc_bias"]) == 2
    lines = (base / "replications.csv").read_text().splitlines()
    assert lines[0] == "replication,arm,raw_mean,estimated_bias,corrected_mean,ipw,aipw"
    assert len(lines) == 1 + 8 * 2
    mse_lines = (base / "mse.csv").read_text().splitlines()
    assert mse_lines[0] == "estimator,horizon,arm,mse"
    # values round-trip through repr
    float(lines[1].split(",")[2])
    float(mse_lines[1].split(",")[3])


def test_se_honesty_split_seeds():
    """Disjoint-seed halves agree within 3 pooled SE on every arm."""
    kw = dict(R=150, B=10)
    (a,) = run_plan(ExperimentPlan(master_seed=100, cells=(_gauss_cell(**kw),)))
    (b,) = run_plan(ExperimentPlan(master_seed=200, cells=(_gauss_cell(**kw),)))
    pooled = np.sqrt(a.mc_bias_se**2 + b.mc_bias_se**2)
    assert np.all(np.abs(a.mc_bias - b.mc_bias) < 3 * pooled)


def test_four_arm_etc_normal_bias():
    """K=4 ETC cell, Gaussian arms with alternating spreads.

    Targets are exact commit-selection integrals:
    the noisier third arm carries the large bias because it is the one that
    wins exploration on an overestimate.
    """
    arms = (Gaussian(2.0, 4.0), Gaussian(2.5, 1.0), Gaussian(3.0, 4.0), Gaussian(3.5, 1.0))
    cell = Cell(name="etc4", policy=EtcSpec(10), arms=arms, K=4, T=100,
                replications=600, bootstrap=BootstrapSpec("mb", 2))
    (res,) = run_plan(ExperimentPlan(master_seed=21, cells=(cell,)))
    oracle = np.array([-0.0152, -0.0036, -0.1502, -0.0423])
    assert np.all(np.abs(res.mc_bias - oracle) < 4 * res.mc_bias_se + 1e-4)


@pytest.fixture(scope="module")
def ts_gaussian_curves():
    cell = Cell(name="ts", policy=TsSpec(),
                arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)),
                K=2, T=100, replications=400, bootstrap=BootstrapSpec("mb", 100),
                estimators=("mean", "ipw", "aipw"), horizon_grid=(25, 100), mse_B=100)
    (res,) = run_plan(ExperimentPlan(master_seed=12, cells=(cell,)), workers=1)
    return res


def test_ts_small_horizon_ipw_noisier_than_corrected(ts_gaussian_curves):
    res = ts_gaussian_curves
    assert np.all(res.mse["ipw"][25] > res.mse["mb"][25])


@pytest.mark.xfail(
    strict=True,
    reason="plain uniform-weight IPW keeps a 1/propensity variance penalty on "
    "the starved arm even at T=100; observed MSE ratio stays near 5, not <2",
)
def test_ts_terminal_mse_within_factor_two(ts_gaussian_curves):
    res = ts_gaussian_curves
    tables = [res.mse[name][100] for name in ("mb", "ipw", "aipw")]
    lo = np.min(tables, axis=0)
    hi = np.max(tables, axis=0)
    assert np.all(hi <= 2 * lo)
