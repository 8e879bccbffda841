"""The benchmark's four workloads.

Each workload writes its inputs (arms, logs, plan files) from the seed,
then runs a fixed list of ``bandit_debias.cli.dispatch`` commands, one
after another from one caller (a closed loop).  One run of that list is a
pass.  Each timed command is filed under a part, with the work it did
(replay rounds, replications or oracle calls), so every part reports a
throughput.  Checks run outside the timed region.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Checks:
    items: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


# The reference job's nominal duration.  A pass's times are rescaled by
# REF_SECONDS / (mean wall of the reference runs between its commands).  On
# a shared 2-core host the same job's wall time moves by 20-50% within
# seconds; the rescaling halves the run-to-run spread of pass times.
REF_SECONDS = 0.1


def reference_job() -> int:
    """Fixed small-array numpy work in a Python loop, like a replay round."""
    rng = np.random.default_rng(12345)
    x = np.zeros((512, 2))
    total = 0
    for _ in range(2400):
        x += rng.standard_normal((512, 2))
        total += int(np.argmax(x, axis=1).sum())
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


@dataclass
class Pass:
    out: Path
    parts: list = field(default_factory=list)  # (part, seconds, work units)
    refs: list = field(default_factory=list)   # reference job seconds

    def calibrate(self) -> None:
        self.refs.append(time_reference())

    @property
    def busy(self) -> float:
        """Seconds spent in the timed commands."""
        return sum(seconds for _, seconds, _ in self.parts)

    @property
    def scale(self) -> float:
        return REF_SECONDS / statistics.mean(self.refs)

    def calibrated_parts(self) -> list:
        return [(part, seconds * self.scale, units) for part, seconds, units in self.parts]

    def digest(self) -> str:
        return digest_dir(self.out)


def digest_dir(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def same_files(a: Path, b: Path, names) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def _cli():
    # run.py imports the package after this module; looking ``dispatch`` up
    # per call also sends the traced pass through its wrapper.
    return sys.modules["bandit_debias.cli"]


def _corrected_ok(raw, bias, corrected) -> bool:
    """corrected = raw - estimated_bias exactly; undefined where the bias is."""
    if bias is None or math.isnan(bias):
        return corrected is None or math.isnan(corrected)
    return corrected == raw - bias


def _gaussian(mean, var):
    return {"type": "gaussian", "mean": float(mean), "variance": float(var)}


def _bernoulli(p):
    return {"type": "bernoulli", "p": float(p)}


NORMAL_ARMS = [_gaussian(1.0, 1.0), _gaussian(1.5, 1.0)]
BERN_ARMS = [_bernoulli(0.3), _bernoulli(0.6)]
BERN4_ARMS = [_bernoulli(p) for p in (0.3, 0.4, 0.5, 0.6)]
POLICY_SPECS = {
    "etc": lambda m: {"name": "etc", "m": m},
    "ucb": lambda m: {"name": "ucb"},
    "ts": lambda m: {"name": "ts"},
    "eg": lambda m: {"name": "eg", "epsilon": 0.05},
}
# Criterion 1's ETC anchor: the closed-form bias for N(1,1) vs N(1.5,1).
ETC_ANCHOR = (1.0, 1.5, 1.0, 1.0)
Z_LIMIT = 4.0


class Workload:
    name = ""
    workers = 1

    def __init__(self, work: Path, seed: int, smoke: bool, checks: Checks):
        self.work = work
        self.smoke = smoke
        self.checks = checks
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.extra: dict = {}

    def seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def command(self, p: Pass, part: str, units: float, argv: list, calibrate: bool = True) -> None:
        """Time one CLI command; ``calibrate`` ends the segment with a reference run."""
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        rc = _cli().dispatch(argv)
        seconds = time.perf_counter() - start
        p.parts.append((part, seconds, units))
        if rc != 0:
            self.checks.add(f"exit.{argv[0]}", False, f"exit code {rc}: {' '.join(argv)}")
        if calibrate:
            p.calibrate()

    def run(self, out: Path, workers: int | None = None, **options) -> Pass:
        out.mkdir(parents=True)
        p = Pass(out)
        p.calibrate()
        self.run_pass(p, self.workers if workers is None else workers, **options)
        return p

    def check_passes(self, passes: list[Pass]) -> None:
        first = passes[0].digest()
        self.checks.add(
            "rerun.same_seed_identical",
            all(p.digest() == first for p in passes[1:]),
            f"{len(passes)} passes",
        )
        self.check(passes[0])

    def named(self, passes: list[Pass]) -> dict:
        """The workload's own metrics: per part, work units per calibrated second."""
        work: dict[str, float] = {}
        wall: dict[str, float] = {}
        for p in passes:
            for part, seconds, units in p.calibrated_parts():
                work[part] = work.get(part, 0.0) + units
                wall[part] = wall.get(part, 0.0) + seconds
        return {f"{part}.{self.unit_name}": (work[part] / wall[part], "1/s") for part in work}

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, p: Pass, workers: int) -> None:
        raise NotImplementedError

    def check(self, p: Pass) -> None:
        raise NotImplementedError


class DebiasReplay(Workload):
    name = "debias-replay"
    why = (
        "debias on one log per policy at B=1e4, T=1000, mb and efron: the replay kernel "
        "(run_batch, select_batch, sample) does nearly all the work in 4096-wide chunks"
    )
    unit_name = "rounds_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.T, self.B, self.m = (100, 300, 10) if self.smoke else (1000, 10_000, 100)

    def prepare(self) -> None:
        arms = _write_json(self.work / "arms.json", NORMAL_ARMS)
        self.logs = {}
        for name in POLICY_SPECS:
            log = self.work / f"{name}.csv"
            extra = {"etc": ["--m", self.m], "eg": ["--epsilon", 0.05]}.get(name, [])
            argv = ["simulate", "--policy", name, *extra, "--K", 2, "--T", self.T, "--arms", arms, "--seed", self.seed(), "--out", log]
            if _cli().dispatch([str(a) for a in argv]) != 0:
                raise RuntimeError(f"input generation failed: {argv}")
            self.logs[name] = (log, self.seed(), self.seed())

    def run_pass(self, p: Pass, workers: int, kinds=("mb", "efron")) -> None:
        for name, (log, mb_seed, efron_seed) in self.logs.items():
            for kind in kinds:
                seed = mb_seed if kind == "mb" else efron_seed
                self.command(p, f"debias.{name}", self.B * self.T, [
                    "debias", "--log", log, "--meta", f"{log}.meta.json", "--bootstrap", kind,
                    "--B", self.B, "--seed", seed, "--workers", workers, "--out", p.out / f"{name}_{kind}.json",
                ])

    def check(self, p: Pass) -> None:
        from bandit_debias import theory
        from bandit_debias.simulator import load_log, summarize

        for report_path in sorted(p.out.glob("*.json")):
            r = json.loads(report_path.read_text())
            exact = all(map(_corrected_ok, r["raw_mean"], r["estimated_bias"], r["corrected_mean"]))
            self.checks.add(f"debias.{report_path.stem}.corrected_is_raw_minus_bias", exact)
            counted = all(b + z == r["B"] for b, z in zip(r["b_effective"], r["zero_pull_replays"]))
            self.checks.add(f"debias.{report_path.stem}.replays_add_up", counted)
        log_path = self.logs["etc"][0]
        s = summarize(load_log(str(log_path), f"{log_path}.meta.json"))
        plugin = theory.EtcGaussianParams(*map(float, (*s.means, *s.variances)), self.m, self.T)
        r = json.loads((p.out / "etc_mb.json").read_text())
        z = [abs(r["estimated_bias"][k] - theory.etc_bias_gaussian(plugin, k + 1)) / r["bootstrap_se"][k] for k in range(2)]
        self.checks.add("debias.etc_mb.matches_plugin_closed_form", max(z) < Z_LIMIT, f"z={[round(v, 2) for v in z]}")
        rerun = self.run(self.work / "rerun-w2", workers=2, kinds=("mb",))
        names = [f"{name}_mb.json" for name in self.logs]
        self.checks.add("debias.rerun_at_2_workers_identical", same_files(p.out, rerun.out, names))


def _prop_cell(name, policy, arms, T, R, B, grid):
    return {
        "name": name, "policy": policy, "arms": arms, "K": len(arms), "T": T, "replications": R,
        "bootstrap": {"kind": "mb", "B": B}, "estimators": ["mean", "ipw", "aipw"],
        "horizon_grid": grid, "mse_B": B,
    }


def _replication_rows(cell_dir: Path) -> list[dict]:
    with open(cell_dir / "replications.csv", newline="") as f:
        return list(csv.DictReader(f))


def _check_rows(checks: Checks, cell_dir: Path, rows: list[dict]) -> None:
    """corrected = raw - estimated_bias exactly, in every replication."""
    ok = all(
        _corrected_ok(float(r["raw_mean"]), float(r["estimated_bias"]), float(r["corrected_mean"]))
        for r in rows
        if math.isfinite(float(r["raw_mean"]))
    )
    checks.add(f"{cell_dir.name}.corrected_is_raw_minus_bias", ok)


class PlanPropensity(Workload):
    name = "plan-propensity"
    why = (
        "plan with IPW/AIPW at T=100 and small B, including TS with K=4: per-round Python "
        "(n=1 runs, the scalar propensity trace) dominates; replay-kernel width does not matter"
    )
    unit_name = "replications_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.T, self.B, self.R2, self.R4, self.grid = 40, 20, 60, 2, [10, 40]
        else:
            # 200 replications per K=2 cell: how often a replication skips
            # its debias step (an arm never pulled) varies with the seed.
            self.T, self.B, self.R2, self.R4, self.grid = 100, 100, 200, 10, [25, 100]

    def prepare(self) -> None:
        k2 = [
            _prop_cell(f"{name}_bern_prop", POLICY_SPECS[name](0), BERN_ARMS, self.T, self.R2, self.B, self.grid)
            for name in ("ts", "eg")
        ]
        ts4 = [_prop_cell("ts4_bern_prop", POLICY_SPECS["ts"](0), BERN4_ARMS, self.T, self.R4, self.B, self.grid)]
        self.plans = {
            "plan_prop.k2": (_write_json(self.work / "k2.json", {"cells": k2}), self.seed(), 2 * self.R2),
            "plan_prop.ts4": (_write_json(self.work / "ts4.json", {"cells": ts4}), self.seed(), self.R4),
        }

    def run_pass(self, p: Pass, workers: int, parts=None) -> None:
        for part, (plan, seed, reps) in self.plans.items():
            if parts is None or part in parts:
                self.command(p, part, reps, [
                    "plan", "--plan", plan, "--seed", seed, "--workers", workers, "--out-dir", p.out / part,
                ])

    def check(self, p: Pass) -> None:
        errors = replications = 0
        for summary_path in sorted(p.out.glob("*/*/summary.json")):
            cell_dir = summary_path.parent
            summary = json.loads(summary_path.read_text())
            errors += sum(summary["error_counts"].values())
            replications += summary["replications"]
            rows = _replication_rows(cell_dir)
            _check_rows(self.checks, cell_dir, rows)
            self.checks.add(f"{cell_dir.name}.mse_written", (cell_dir / "mse.csv").is_file())
            # Every replication that got as far as its debias step has both.
            has_props = all(r["ipw"] and r["aipw"] for r in rows if math.isfinite(float(r["raw_mean"])))
            self.checks.add(f"{cell_dir.name}.propensity_estimates_present", has_props)
            if summary["K"] != 2 or not has_props:
                # K=4 runs only a few replications: too few for a z-test.
                continue
            for label in ("ipw", "aipw"):
                for k, mean_true in enumerate(summary["true_means"]):
                    x = np.array([float(r[label]) for r in rows if r[label] and int(r["arm"]) == k + 1])
                    z = abs(x.mean() - mean_true) / (x.std() / math.sqrt(len(x)))
                    self.checks.add(f"{cell_dir.name}.{label}.arm{k + 1}.unbiased", z < Z_LIMIT, f"z={z:.2f}")
        self.extra["harness.error_replication_ratio"] = errors / replications
        rerun = self.run(self.work / "rerun-w2", workers=2, parts=("plan_prop.k2",))
        self.checks.add("plan.rerun_at_2_workers_identical", digest_dir(rerun.out / "plan_prop.k2") == digest_dir(p.out / "plan_prop.k2"))


class AcceptanceGrid(Workload):
    name = "acceptance-grid"
    why = (
        "criterion-1 grid (4 policies x 2 reward laws, B=1000, T=100) at workers=2: mid-width "
        "replays plus the harness process pool, started per cell and fed 50-replication blocks"
    )
    unit_name = "replications_per_s"
    workers = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.T, self.B, self.R, self.m = (40, 30, 60, 5) if self.smoke else (100, 1000, 100, 10)

    def prepare(self) -> None:
        # One plan per cell, so the reference job can run between cells; the
        # harness starts a fresh pool per cell either way.
        self.plans = []
        for name, spec in POLICY_SPECS.items():
            for world, arms in (("normal", NORMAL_ARMS), ("bern", BERN_ARMS)):
                cell = {
                    "name": f"{name}_{world}", "policy": spec(self.m), "arms": arms, "K": 2, "T": self.T,
                    "replications": self.R, "bootstrap": {"kind": "mb", "B": self.B},
                }
                self.plans.append((_write_json(self.work / f"{cell['name']}.json", {"cells": [cell]}), self.seed()))

    def run_pass(self, p: Pass, workers: int, cells: int | None = None) -> None:
        for plan, seed in self.plans[:cells]:
            self.command(p, "grid", self.R, [
                "plan", "--plan", plan, "--seed", seed, "--workers", workers, "--out-dir", p.out,
            ])

    def check(self, p: Pass) -> None:
        from bandit_debias import theory

        errors = 0
        for cell_dir in sorted(d for d in p.out.iterdir() if d.is_dir()):
            _check_rows(self.checks, cell_dir, _replication_rows(cell_dir))
            errors += sum(json.loads((cell_dir / "summary.json").read_text())["error_counts"].values())
        self.extra["harness.error_replication_ratio"] = errors / (len(self.plans) * self.R)
        etc = json.loads((p.out / "etc_normal" / "summary.json").read_text())
        closed = theory.etc_bias_gaussian(theory.EtcGaussianParams(*ETC_ANCHOR, self.m, self.T), 1)
        z = [abs(etc["mc_bias"][k] - closed) / etc["mc_bias_se"][k] for k in range(2)]
        self.checks.add("grid.etc_normal.mc_bias_matches_closed_form", max(z) < Z_LIMIT, f"closed={closed:.6f} z={[round(v, 2) for v in z]}")
        head = self.run(self.work / "head-w1", workers=1, cells=2)
        names = [f"{cell}/{f}" for cell in ("etc_normal", "etc_bern") for f in ("summary.json", "replications.csv")]
        self.checks.add("grid.workers_1_and_2_identical", same_files(p.out, head.out, names))


class TheoryOracles(Workload):
    name = "theory-oracles"
    why = (
        "theory on Bernoulli, lattice and Gaussian pairs up to m=4000, plus the criterion-7 and "
        "-8 Monte Carlo checks at test size: convolution, quadrature and long narrow ETC replays"
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.m_grid = (5, 20) if self.smoke else (10, 100, 1000, 4000)

    def prepare(self) -> None:
        r = self.rng
        p1 = r.uniform(0.2, 0.4)
        lattice = sorted((r.dirichlet(2.0 * np.ones(5)) for _ in range(2)), key=lambda q: q @ np.arange(5))
        mu1 = r.uniform(0.8, 1.2)
        self.families = {
            "bernoulli": [_bernoulli(p1), _bernoulli(p1 + r.uniform(0.15, 0.3))],
            "lattice": [{"type": "discrete", "support": [0, 0.25, 0.5, 0.75, 1], "probs": q.tolist()} for q in lattice],
            "gaussian": [_gaussian(mu1, r.uniform(0.5, 1.5)), _gaussian(mu1 + r.uniform(0.3, 0.7), r.uniform(0.5, 1.5))],
        }
        for family, arms in self.families.items():
            _write_json(self.work / f"{family}.json", arms)
        self.mc_seeds = [self.seed() for _ in range(3)]

    def run_pass(self, p: Pass, workers: int) -> None:
        from bandit_debias import distributions as dist
        from bandit_debias import theory

        for family in self.families:
            for m in self.m_grid:
                self.command(p, "theory.oracle", 1, [
                    "theory", "--arms", self.work / f"{family}.json", "--m", m, "--T", 4 * m,
                    "--out", p.out / f"{family}_m{m}.json",
                ], calibrate=m == self.m_grid[-1])
        # Criteria 7 and 8 at their test sizes, looked up on the module so
        # the traced pass wraps them.
        anchor = theory.EtcGaussianParams(*ETC_ANCHOR, 10, 100)
        experiments = [
            (theory.log_bias_ratio_experiment, anchor, [10, 50, 200, 1000], 500),
            (theory.bootstrap_rate_ratio_check, dist.Gaussian(1.0, 1.0), 1.5, [2000], 2000),
            (theory.bootstrap_rate_ratio_check, dist.Bernoulli(0.3), 0.6, [2000], 2000),
        ]
        results = []
        for (fn, *args), seed in zip(experiments, self.mc_seeds):
            start = time.perf_counter()
            results.append(fn(*args, seed=seed))
            p.parts.append(("theory.mc", time.perf_counter() - start, 1))
            p.calibrate()
        c7, c8g, c8b = results
        _write_json(p.out / "mc.json", {
            "criterion7": {str(m): {k: v for k, v in res.items() if k != "ratios"} for m, res in c7.items()},
            "criterion8": {
                "gaussian_median": c8g["per_m"][2000]["median"],
                "bernoulli_median": c8b["per_m"][2000]["median"],
                "bernoulli_bound": c8b["bound"],
            },
        })

    def named(self, passes: list[Pass]) -> dict:
        calls = wall = 0.0
        mc = []
        for p in passes:
            parts = p.calibrated_parts()
            calls += sum(units for part, _, units in parts if part == "theory.oracle")
            wall += sum(s for part, s, _ in parts if part == "theory.oracle")
            mc.append(sum(s for part, s, _ in parts if part == "theory.mc"))
        return {"theory.oracle_calls_per_s": (calls / wall, "1/s"), "theory.mc_check_s": (statistics.median(mc), "s")}

    def check(self, p: Pass) -> None:
        from bandit_debias import distributions as dist
        from bandit_debias import theory

        g = self.families["gaussian"]
        for m in self.m_grid:
            out = json.loads((p.out / f"gaussian_m{m}.json").read_text())
            params = theory.EtcGaussianParams(g[0]["mean"], g[1]["mean"], g[0]["variance"], g[1]["variance"], m, 4 * m)
            gaps = [abs(out["bias_exact"][f"arm{k}"] - theory.etc_bias_gaussian(params, k)) for k in (1, 2)]
            scale = abs(theory.etc_bias_gaussian(params, 1))
            self.checks.add(f"theory.gaussian_m{m}.exact_matches_closed_form", max(gaps) <= 1e-9 + 1e-6 * scale)
        for family in self.families:
            for m in self.m_grid:
                out = json.loads((p.out / f"{family}_m{m}.json").read_text())
                values = [out["profile"]["rate"], out["bias_asymptotic"], *out["bias_exact"].values()]
                self.checks.add(f"theory.{family}_m{m}.finite", all(math.isfinite(v) for v in values))
        # Criterion 5: exact binomial tail over its sharp asymptotic.
        law = dist.Bernoulli(0.3)
        prof = theory.bahadur_rao_constants(law, 0.6)
        ratios = []
        for m in (25, 50, 100, 200):
            prob, _ = theory.exact_mean_tail(law, 0.6, m)
            ratios.append(prob / (prof.c0 * math.exp(-m * prof.rate) / math.sqrt(2 * math.pi * m * prof.eta_second)))
        gaps = [abs(r - 1.0) for r in ratios]
        ok = 0.95 <= ratios[-1] <= 1.05 and all(a > b for a, b in zip(gaps, gaps[1:]))
        self.checks.add("theory.criterion5.sharp_tail_ratio", ok, f"ratios={[round(r, 4) for r in ratios]}")
        mc = json.loads((p.out / "mc.json").read_text())
        c8 = mc["criterion8"]
        limit = ((0.6 - 0.3) ** 2 / (2.0 * 0.21)) / 0.19204199316179815
        ok = 0.9 <= c8["gaussian_median"] <= 1.1
        ok &= abs(c8["bernoulli_median"] - limit) < 0.05 and c8["bernoulli_median"] < c8["bernoulli_bound"]
        self.checks.add("theory.criterion8.rate_ratio_limits", ok, json.dumps(c8))
        # Criterion 7 is a known finding at these sizes: record, do not count.
        self.extra["criterion7"] = mc["criterion7"]


WORKLOADS = {w.name: w for w in (DebiasReplay, PlanPropensity, AcceptanceGrid, TheoryOracles)}
