import hashlib
import json
import os

import numpy as np
import pytest

from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.debias import chunk_bounds
from bandit_debias.distributions import Bernoulli, Gaussian
from bandit_debias import harness
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
    # Integral floats read as integers; a fractional or boolean master seed is refused.
    assert ExperimentPlan.from_dict({**d, "master_seed": 9.0}) == plan
    for seed in (9.5, True):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            ExperimentPlan.from_dict({**d, "master_seed": seed})


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
    assert np.isnan(res.mc_bias_se).all()  # one replication: no spread to measure
    assert res.mean_estimated_bias.tolist() == [0.0, 0.0]
    assert res.error_counts == {}


def test_worker_count_bit_identical():
    plan = ExperimentPlan(master_seed=5, cells=(_gauss_cell(R=120, B=20),))
    (a,) = run_plan(plan, workers=1)
    (b,) = run_plan(plan, workers=2)
    assert np.array_equal(a.mc_bias, b.mc_bias)
    assert np.array_equal(a.mean_corrected, b.mean_corrected)
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.corrected, b.corrected)


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
    n_failed = np.isnan(res.raw).all(axis=1).sum()
    assert n_failed == res.error_counts["ZeroCountArm"]
    assert np.all(np.isfinite(res.mc_bias))
    # propensity estimates survive bootstrap failure: they stay unconditional
    failed = np.array([e == "ZeroCountArm" for e in res.errors])
    assert np.all(np.isfinite(res.estimates["ipw"][30][failed]))


def test_horizon_grid_endpoint_matches_terminal():
    # Corrected estimates are filed under the cell's bootstrap kind.
    for kind in ("mb", "efron"):
        cell = _gauss_cell(R=10, horizon_grid=(50, 100), mse_B=10, bootstrap=BootstrapSpec(kind, 20))
        (res,) = run_plan(ExperimentPlan(master_seed=8, cells=(cell,)))
        assert np.array_equal(res.estimates[kind][100], res.raw - res.estimated_bias)
        assert set(res.mse) == {kind}
        assert set(res.mse[kind]) == {50, 100}
        terminal = np.nanmean((res.raw - res.estimated_bias - np.array([1.0, 1.5])) ** 2, axis=0)
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


@pytest.mark.filterwarnings("error")
def test_cell_without_a_successful_replication_writes_strict_json(tmp_path):
    # EG with epsilon 0 never leaves arm 1 (an unpulled arm's mean is 0), so
    # every replication's bootstrap world is undefined.
    cell = Cell(name="eg0", policy=EgSpec(0.0), arms=(Bernoulli(0.3), Bernoulli(0.6)),
                K=2, T=30, replications=3, bootstrap=BootstrapSpec("mb", 10),
                estimators=("mean", "ipw", "aipw"), horizon_grid=(15, 30), mse_B=10)
    run_plan(ExperimentPlan(master_seed=1, cells=(cell,)), out_dir=str(tmp_path))

    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    summary = json.loads((tmp_path / "eg0" / "summary.json").read_text(), parse_constant=reject)
    assert summary["error_counts"] == {"ZeroCountArm": 3}
    for key in ("mc_bias", "mc_bias_se", "mean_raw", "mean_estimated_bias", "mean_corrected"):
        assert summary[key] == [None, None]
    assert summary["mse"]["mb"] == {"15": [None, None], "30": [None, None]}
    # EG at epsilon 0 does not randomize, so it has no IPW/AIPW to report.
    assert set(summary["mse"]) == {"mb"}
    rows = (tmp_path / "eg0" / "replications.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all(row.endswith(",,") for row in rows)


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


def test_chunk_straddling_cell_is_worker_invariant(tmp_path):
    # One block of 9 logs x B=1000 replays in two balanced chunks: rows
    # 4500.. of log 5 spill into the second.  The second cell gives the
    # shared pool two tasks.
    assert chunk_bounds(9 * 1000, 2)[1][0] % 1000 != 0
    cells = (
        _gauss_cell(name="straddle", R=9, B=1000, policy=TsSpec(), T=40,
                    bootstrap=BootstrapSpec("efron", 1000), horizon_grid=(20, 40), mse_B=1000,
                    estimators=("mean", "ipw", "aipw")),
        _gauss_cell(name="second", R=3, B=10),
    )
    outputs = []
    for workers in (1, 2):
        run_plan(ExperimentPlan(master_seed=31, cells=cells), workers=workers, out_dir=str(tmp_path / str(workers)))
        outputs.append({f: (tmp_path / str(workers) / "straddle" / f).read_bytes()
                        for f in ("summary.json", "replications.csv", "mse.csv")})
    assert outputs[0] == outputs[1]
    assert b"nan" not in outputs[0]["replications.csv"]


def test_block_with_a_zero_count_arm_log_fills_the_others():
    cell = Cell(name="eg", policy=EgSpec(0.05), arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)),
                K=2, T=30, replications=harness.BLOCK, bootstrap=BootstrapSpec("mb", 20),
                estimators=("mean", "ipw", "aipw"), horizon_grid=(20, 30), mse_B=20)
    (res,) = run_plan(ExperimentPlan(master_seed=3, cells=(cell,)))
    failed = np.array([e == "ZeroCountArm" for e in res.errors])
    fine = np.array([e is None for e in res.errors])
    assert 0 < failed.sum() == res.error_counts["ZeroCountArm"] < harness.BLOCK
    assert np.all(np.isfinite(res.estimates["ipw"][30])) and np.all(np.isfinite(res.estimates["aipw"][30]))
    for column in (res.raw, res.corrected, res.estimates["mb"][30]):
        assert np.all(np.isfinite(column[fine]))
    assert np.isnan(res.raw[failed]).all() and np.isnan(res.estimates["mb"][20][failed]).all()


def test_zero_propensity_fails_only_its_replication(zero_propensities):
    zero_propensities(6, slice(1, 2))  # log 1 of every block meets a zero chosen-arm propensity at round 6
    cell = _gauss_cell(R=4, B=10, policy=EgSpec(0.2), estimators=("mean", "ipw"), horizon_grid=(50,), mse_B=10)
    (res,) = run_plan(ExperimentPlan(master_seed=9, cells=(cell,)))
    assert res.error_counts == {"DivisionHazard": 1}
    assert res.errors == [None, "DivisionHazard", None, None]
    assert set(res.estimates) == {"mb", "ipw"}
    # The failed replication is NaN in every column; the others are whole.
    for column in (res.raw, res.estimated_bias, *(t for table in res.estimates.values() for t in table.values())):
        assert np.isnan(column[1]).all() and np.all(np.isfinite(column[[0, 2, 3]]))


def test_division_hazard_outranks_zero_count_arm(zero_propensities):
    # A log that left an arm unpulled and also met a zero propensity is labelled DivisionHazard.
    cell = Cell(name="eg", policy=EgSpec(0.05), arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)),
                K=2, T=30, replications=20, bootstrap=BootstrapSpec("mb", 10), estimators=("mean", "ipw"))
    plan = ExperimentPlan(master_seed=3, cells=(cell,))
    (plain,) = run_plan(plan)
    assert plain.error_counts["ZeroCountArm"] > 0
    zero_propensities(6, slice(None))
    (res,) = run_plan(plan)
    assert res.error_counts == {"DivisionHazard": 20}
    assert np.isnan(res.estimates["ipw"][30]).all() and np.isnan(res.corrected).all()

GOLDEN_PLAN_SHA256 = {
    "eg/summary.json": "aa48d23ad31cf5e4e841f8223c7fcf0d8eaf629d9aed53fef8dbd99545ff2fb3",
    "eg/replications.csv": "988a863e24758b8463a2138ce1320f221583aa726fd31602bfdd7c05497eec90",
    "eg/mse.csv": "2e69953a93305dd663decce9d0bfae7ca44f260179911117fda4accf126f07bb",
    "etc/summary.json": "8cab38d6e8b04ad88edfda88219c7b9ed62f583b47f233ecbc10f61c5391e732",
    "etc/replications.csv": "6bfe03a566dc3ca22f2cbd0b98a6e49c3d3af3df6bbc5dece7db60b7b4e38cfe",
    "etc/mse.csv": "07a65567a6adbb7c2721b46cb7ec901e6a78a598bb210795f62d12307ce3b88e",
}


def test_plan_outputs_golden(tmp_path, zero_propensities):
    # Pinned bytes: a rewrite of how replications are collected and written
    # must not move a plan's outputs.  Log 1's zero propensity makes it a
    # DivisionHazard row; EG at T=30 leaves arm 2 unpulled in some others.
    zero_propensities(6, slice(1, 2))
    cells = (
        Cell(name="eg", policy=EgSpec(0.05), arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0)),
             K=2, T=30, replications=12, bootstrap=BootstrapSpec("efron", 20),
             estimators=("mean", "ipw", "aipw"), horizon_grid=(15, 30), mse_B=10),
        _gauss_cell(name="etc", R=6, B=20, policy=EtcSpec(5), T=30, horizon_grid=(15, 30), mse_B=10),
    )
    (eg, _) = run_plan(ExperimentPlan(master_seed=17, cells=cells), out_dir=str(tmp_path))
    assert eg.error_counts["DivisionHazard"] == 1 and eg.error_counts["ZeroCountArm"] > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_PLAN_SHA256}
    assert digests == GOLDEN_PLAN_SHA256


# Cells for the weighted-table digests: TS at K = 2 and 4 and EG, each with a
# horizon before log 1's forced zero propensity (round 6) and some after it.
WEIGHTED_CELLS = {
    "ts-k2": Cell(name="ts-k2", policy=TsSpec(), arms=(Bernoulli(0.3), Bernoulli(0.6)), K=2, T=30,
                  replications=12, bootstrap=BootstrapSpec("mb", 5), estimators=("ipw", "aipw"),
                  horizon_grid=(2, 7, 20), mse_B=5),
    "ts-k4": Cell(name="ts-k4", policy=TsSpec(0.5, 2.0, 0.5), K=4, T=20, replications=12,
                  arms=(Gaussian(1.0, 1.0), Bernoulli(0.6), Gaussian(0.5, 2.0), Bernoulli(0.2)),
                  bootstrap=BootstrapSpec("mb", 5), estimators=("ipw", "aipw"), horizon_grid=(4, 11), mse_B=5),
    "eg": Cell(name="eg", policy=EgSpec(0.1), arms=(Gaussian(1.0, 1.0), Gaussian(1.5, 1.0), Bernoulli(0.5)),
               K=3, T=30, replications=12, bootstrap=BootstrapSpec("mb", 5), estimators=("mean", "ipw", "aipw"),
               horizon_grid=(3, 15), mse_B=5),
}
# sha256 over the ipw, then the aipw, tables' bytes, horizon by horizon in
# increasing order; recorded before IPW and AIPW became one pass per block.
# The TS digests were re-pinned when the normal CDF moved from scipy.special
# to numpy: the tables moved by at most 7.5e-16 (K = 2) and 4.8e-15 (K = 4)
# relative, and scipy's CDFs still give the old digests.
GOLDEN_WEIGHTED_SHA256 = {
    "ts-k2": "c310acff843e54df7cb6add6f809a4854a878da00e4948c112eb3831a57b7b1d",
    "ts-k4": "23ad072eb7a8ef9ccefb09df737a4f45ded2ed48dd27062f08efc7019ffeb78a",
    "eg": "f752aaef27ca0d24752f5f8c7690e1852f5a2ade20abebc116ced0b1da42c407",
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_CELLS))
def test_weighted_tables_golden(name, zero_propensities):
    zero_propensities(6, slice(1, 2))
    (res,) = run_plan(ExperimentPlan(master_seed=21, cells=(WEIGHTED_CELLS[name],)))
    assert res.errors[1] == "DivisionHazard" and res.error_counts["DivisionHazard"] == 1
    digest = hashlib.sha256()
    for estimator in ("ipw", "aipw"):
        for h in sorted(res.estimates[estimator]):
            digest.update(res.estimates[estimator][h].tobytes())
    assert digest.hexdigest() == GOLDEN_WEIGHTED_SHA256[name]
