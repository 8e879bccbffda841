"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single [PASS]/[FAIL] line (visible with -s, or in the
captured output of a failing test).  These runs are sized like the real
study, so the file takes several minutes; everyday development should rely
on the per-module suites instead.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bandit_debias.bootstrap import BootstrapSpec
from bandit_debias.cli import dispatch
from bandit_debias.debias import debias
from bandit_debias.distributions import Bernoulli, Gaussian
from bandit_debias.harness import Cell, ExperimentPlan, run_plan
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec
from bandit_debias.simulator import run_batch, run_experiment, summarize
from bandit_debias.streams import substream
from bandit_debias import theory as th

MASTER_SEED = 20260826
NORMAL_ARMS = (Gaussian(1.0, 1.0), Gaussian(1.5, 1.0))
BERN_ARMS = (Bernoulli(0.3), Bernoulli(0.6))
POLICIES = [("etc", EtcSpec(10)), ("ucb", UcbSpec()), ("ts", TsSpec()), ("eg", EgSpec(0.05))]


def _line(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}", flush=True)


@pytest.fixture(scope="module")
def two_arm_grid_results():
    cells = []
    for pname, policy in POLICIES:
        for rname, arms in (("normal", NORMAL_ARMS), ("bern", BERN_ARMS)):
            cells.append(Cell(
                name=f"{pname}_{rname}", policy=policy, arms=arms, K=2, T=100,
                replications=1000, bootstrap=BootstrapSpec("mb", 1000),
            ))
    results = run_plan(ExperimentPlan(master_seed=MASTER_SEED, cells=tuple(cells)))
    return {r.cell.name: r for r in results}


@pytest.mark.slow
def test_criterion_01_etc_gaussian_anchor(two_arm_grid_results):
    p = th.EtcGaussianParams(1.0, 1.5, 1.0, 1.0, 10, 100)
    closed = [th.etc_bias_gaussian(p, k) for k in (1, 2)]
    res = two_arm_grid_results["etc_normal"]
    ok = all(abs(c + 0.042446) < 5e-6 for c in closed)
    ok &= all(abs(res.mc_bias[k] - closed[k]) < 0.02 for k in range(2))
    paper_est = (-0.0377, -0.0396)
    ok &= all(abs(res.mean_estimated_bias[k] - paper_est[k]) < 0.02 for k in range(2))
    detail = (f"closed={closed[0]:.6f} mc_raw={np.round(res.mc_bias, 4).tolist()} "
              f"mb_est={np.round(res.mean_estimated_bias, 4).tolist()}")
    _line(1, ok, "ETC Gaussian cell matches the closed form and reference estimates", detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_02_correction_improves_most_cells(two_arm_grid_results):
    improved = 0
    for res in two_arm_grid_results.values():
        truth = np.array([a.mean() for a in res.cell.arms])
        for k in range(2):
            if abs(res.mean_corrected[k] - truth[k]) < abs(res.mean_raw[k] - truth[k]):
                improved += 1
    ok = improved >= 14
    _line(2, ok, "corrected beats raw on >= 14 of 16 arm entries", f"improved={improved}/16")
    assert ok, f"improved {improved}/16"


def test_criterion_03_bootstrap_matches_plugin_closed_form():
    # Frozen seeds.  Note a literal all-40-within-3-SE family check trips on
    # ~1 in 10 seed choices by pure chance; systematic disagreement would
    # show up as z values growing with B, which the module suite also guards.
    rng = np.random.default_rng(406)
    worst = 0.0
    for i in range(20):
        mu1, mu2 = rng.uniform(0.0, 2.0, size=2)
        var1, var2 = rng.uniform(0.5, 2.0, size=2)
        arms = [Gaussian(mu1, var1), Gaussian(mu2, var2)]
        log = run_experiment(2, 100, EtcSpec(10), arms, seed=9200 + i)
        s = summarize(log)
        report = debias(log, BootstrapSpec("mb", 100_000), seed=700 + i)
        plugin = th.EtcGaussianParams(float(s.means[0]), float(s.means[1]),
                                      float(s.variances[0]), float(s.variances[1]), 10, 100)
        for k in range(2):
            z = abs(report.estimated_bias[k] - th.etc_bias_gaussian(plugin, k + 1))
            z /= report.bootstrap_se[k]
            worst = max(worst, z)
    ok = worst < 3.0
    _line(3, ok, "B=1e5 bootstrap estimate matches plug-in closed form on 20 random logs",
          f"worst |z|={worst:.2f}")
    assert ok, f"worst z {worst}"


def test_criterion_04_raw_bias_sign():
    out = run_batch(10_000, 2, 100, EtcSpec(10), list(NORMAL_ARMS), substream(515))
    means = out.means
    bias = means.mean(axis=0) - np.array([1.0, 1.5])
    se = means.std(axis=0) / math.sqrt(len(means))
    upper = bias + 2.576 * se
    ok = bool(np.all(upper < 0.0))
    _line(4, ok, "ETC Gaussian raw bias negative with 99% CI excluding zero",
          f"bias={np.round(bias, 4).tolist()} upper99={np.round(upper, 4).tolist()}")
    assert ok


def test_criterion_05_sharp_tail_ratio():
    prof = th.bahadur_rao_constants(Bernoulli(0.3), 0.6)
    ratios = []
    for m in (25, 50, 100, 200):
        prob, _ = th.exact_mean_tail(Bernoulli(0.3), 0.6, m)
        approx = prof.c0 * math.exp(-m * prof.rate) / math.sqrt(2 * math.pi * m * prof.eta_second)
        ratios.append(prob / approx)
    ok = 0.95 <= ratios[-1] <= 1.05
    gaps = [abs(r - 1.0) for r in ratios]
    ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
    _line(5, ok, "exact binomial tail over sharp asymptotic in [0.95, 1.05], monotone",
          f"ratios={[round(r, 4) for r in ratios]}")
    assert ok, ratios


def test_criterion_06_normalized_tail_expectation():
    prof = th.bahadur_rao_constants(Bernoulli(0.3), 0.6)
    limit = th.tail_expectation_limit(prof)
    _, expect = th.exact_mean_tail(Bernoulli(0.3), 0.6, 200)
    ratio = th.tail_normalizer(prof, 200) * expect / limit
    ok = abs(ratio - 1.0) < 0.10
    _line(6, ok, "normalized tail expectation within 10% of its lattice limit",
          f"ratio={ratio:.4f} limit={limit:.4f}")
    assert ok, ratio


def test_criterion_07_plugin_log_bias_ratio():
    """Plug-in over true log-bias concentration across exploration lengths.

    Faithfully sized; known to fail.  The ratio's spread decays like
    1/(gap * sqrt(m)) with a front factor near 2.3, so at m=1000 only about
    half the replications land inside [0.9, 1.1]; ~90% coverage would need
    m around 8000.  The median error is also not strictly monotone at the
    small-m end.  Kept red deliberately rather than resized.
    """
    p = th.EtcGaussianParams(1.0, 1.5, 1.0, 1.0, 10, 100)
    res = th.log_bias_ratio_experiment(p, [10, 50, 200, 1000], 500, seed=606)
    medians = [res[m]["median_abs_error"] for m in (10, 50, 200, 1000)]
    frac = res[1000]["frac_within_10pct"]
    ok = all(a > b for a, b in zip(medians, medians[1:])) and frac >= 0.90
    detail = f"median|ratio-1|={[round(v, 3) for v in medians]} frac@m=1000={frac:.2f} (need >=0.90)"
    _line(7, ok, "log-bias ratio medians strictly decreasing and 90% within 10% at m=1000", detail)
    assert ok, detail


def test_criterion_08_rate_ratio_limits():
    gauss = th.bootstrap_rate_ratio_check(Gaussian(1.0, 1.0), 1.5, [2000], 2000, seed=707)
    g_med = gauss["per_m"][2000]["median"]
    ok = 0.9 <= g_med <= 1.1
    bern = th.bootstrap_rate_ratio_check(Bernoulli(0.3), 0.6, [2000], 2000, seed=708)
    b_med = bern["per_m"][2000]["median"]
    # analytic limit: Gaussianized rate (gap^2 / 2 sigma^2) over the true
    # rate, evaluated at the Bernoulli configuration; numerically 1.116
    limit = ((0.6 - 0.3) ** 2 / (2.0 * 0.21)) / 0.19204199316179815
    ok &= abs(b_med - limit) < 0.05
    ok &= b_med < bern["bound"]
    detail = (f"gauss_median={g_med:.4f} bern_median={b_med:.4f} "
              f"limit={limit:.4f} bound={bern['bound']:.4f}")
    _line(8, ok, "plug-in rate ratio medians hit their analytic limits and bound", detail)
    assert ok, detail


@pytest.fixture(scope="module")
def propensity_cells():
    cells = []
    for pname, policy in (("ts", TsSpec()), ("eg", EgSpec(0.05))):
        cells.append(Cell(
            name=f"{pname}_bern_prop", policy=policy, arms=BERN_ARMS, K=2, T=100,
            replications=2000, bootstrap=BootstrapSpec("mb", 100),
            estimators=("mean", "ipw", "aipw"), horizon_grid=(25, 100), mse_B=100,
        ))
    results = run_plan(ExperimentPlan(master_seed=MASTER_SEED + 1, cells=tuple(cells)))
    return {r.cell.name: r for r in results}


@pytest.mark.slow
def test_criterion_09_propensity_estimators(propensity_cells):
    truth = np.array([0.3, 0.6])
    ok = True
    details = []
    for name, res in propensity_cells.items():
        for label in ("ipw", "aipw"):
            hazard = np.array([e == "DivisionHazard" for e in res.errors])
            stacked = res.estimates[label][res.cell.T][~hazard]
            err = stacked.mean(axis=0) - truth
            se = stacked.std(axis=0) / math.sqrt(len(stacked))
            z = np.abs(err) / se
            ok &= bool(np.all(z < 3.0))
            details.append(f"{name}/{label} z={np.round(z, 2).tolist()}")
    ts = propensity_cells["ts_bern_prop"]
    ok &= bool(np.all(ts.mse["ipw"][25] > ts.mse["mb"][25]))
    factor = np.max([ts.mse[n][100] for n in ("mb", "ipw", "aipw")], axis=0) / np.min(
        [ts.mse[n][100] for n in ("mb", "ipw", "aipw")], axis=0)
    ok &= bool(np.all(factor < 2.0))
    eg = propensity_cells["eg_bern_prop"]
    ok &= bool(np.all(eg.mse["ipw"][25] > eg.mse["mb"][25]))
    details.append(f"ts T=100 max/min MSE factor={np.round(factor, 2).tolist()}")
    _line(9, ok, "IPW/AIPW unbiased within 3 SE; small-T and terminal MSE patterns",
          "; ".join(details))
    assert ok, details


def test_criterion_10_worker_invariant_outputs(tmp_path):
    arms_path = tmp_path / "arms.json"
    arms_path.write_text(json.dumps([
        {"type": "gaussian", "mean": 1.0, "variance": 1.0},
        {"type": "gaussian", "mean": 1.5, "variance": 1.0},
    ]))
    log = str(tmp_path / "log.csv")
    assert dispatch(["simulate", "--policy", "etc", "--m", "10", "--K", "2", "--T", "100",
                     "--arms", str(arms_path), "--seed", "3", "--out", log]) == 0
    reports = []
    for w in ("1", "3"):
        out = str(tmp_path / f"debias_w{w}.json")
        assert dispatch(["debias", "--log", log, "--meta", log + ".meta.json", "--B", "9000",
                         "--seed", "11", "--workers", w, "--out", out]) == 0
        reports.append(Path(out).read_text())
    plan = {
        "cells": [{
            "name": "cell", "policy": {"name": "ts"},
            "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}],
            "K": 2, "T": 50, "replications": 120,
            "bootstrap": {"kind": "efron", "B": 50},
            "estimators": ["mean", "ipw", "aipw"],
        }]
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    plan_outputs = []
    for w in ("1", "2"):
        out_dir = tmp_path / f"plan_w{w}"
        assert dispatch(["plan", "--plan", str(plan_path), "--seed", "77",
                         "--workers", w, "--out-dir", str(out_dir)]) == 0
        plan_outputs.append(
            (out_dir / "cell" / "summary.json").read_text()
            + (out_dir / "cell" / "replications.csv").read_text()
        )
    ok = reports[0] == reports[1] and plan_outputs[0] == plan_outputs[1]
    _line(10, ok, "debias and plan outputs byte-identical across worker counts")
    assert ok
