import concurrent.futures
import json
import warnings
from pathlib import Path

import pytest

from bandit_debias.cli import dispatch
from bandit_debias.debias import CHUNK_CELLS, chunk_bounds


@pytest.fixture
def gauss_arms(tmp_path):
    path = tmp_path / "arms.json"
    path.write_text(json.dumps([
        {"type": "gaussian", "mean": 1.0, "variance": 1.0},
        {"type": "gaussian", "mean": 1.5, "variance": 1.0},
    ]))
    return str(path)


@pytest.fixture
def bern_arms(tmp_path):
    path = tmp_path / "barms.json"
    path.write_text(json.dumps([
        {"type": "bernoulli", "p": 0.3},
        {"type": "bernoulli", "p": 0.6},
    ]))
    return str(path)


def _simulate(tmp_path, gauss_arms, policy="etc", extra=(), name="log.csv"):
    out = str(tmp_path / name)
    rc = dispatch(["simulate", "--policy", policy, *extra, "--K", "2", "--T", "100",
                   "--arms", gauss_arms, "--seed", "5", "--out", out])
    assert rc == 0
    return out


def test_simulate_writes_log_and_meta(tmp_path, gauss_arms):
    out = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    assert (tmp_path / "log.csv").exists()
    meta = json.loads((tmp_path / "log.csv.meta.json").read_text())
    assert meta["policy"] == {"name": "etc", "m": 10}
    assert len((tmp_path / "log.csv").read_text().splitlines()) == 101


def test_debias_round_trip(tmp_path, gauss_arms):
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    out = str(tmp_path / "report.json")
    rc = dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                   "--B", "200", "--seed", "7", "--out", out])
    assert rc == 0
    report = json.loads(Path(out).read_text())
    assert report["B"] == 200 and report["bootstrap"] == "mb"
    for k in range(2):
        assert report["corrected_mean"][k] == pytest.approx(
            report["raw_mean"][k] - report["estimated_bias"][k], abs=1e-12)
        assert report["estimated_bias"][k] < 0  # ETC arms are biased down


def test_debias_workers_bit_identical(tmp_path, gauss_arms):
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    outs = []
    for w in ("1", "3"):
        out = str(tmp_path / f"report{w}.json")
        rc = dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                       "--B", "9000", "--seed", "7", "--workers", w, "--out", out])
        assert rc == 0
        outs.append(Path(out).read_text())
    assert outs[0] == outs[1]


def test_evaluate_ts_log(tmp_path, bern_arms):
    log = _simulate(tmp_path, bern_arms, policy="ts")
    out = str(tmp_path / "eval.json")
    rc = dispatch(["evaluate", "--log", log, "--meta", log + ".meta.json", "--out", out])
    assert rc == 0
    payload = json.loads(Path(out).read_text())
    assert payload["propensities_defined"] is True
    assert len(payload["ipw"]) == 2 and len(payload["aipw"]) == 2


def test_evaluate_unknown_estimator(tmp_path, bern_arms):
    log = _simulate(tmp_path, bern_arms, policy="ts")
    rc = dispatch(["evaluate", "--log", log, "--meta", log + ".meta.json",
                   "--estimators", "mean,winsor", "--out", str(tmp_path / "x.json")])
    assert rc == 1


@pytest.mark.parametrize("names", [",", "", " , "])
def test_evaluate_no_estimator_is_usage_error(tmp_path, bern_arms, capsys, names):
    log = _simulate(tmp_path, bern_arms, policy="ts")
    rc = dispatch(["evaluate", "--log", log, "--meta", log + ".meta.json",
                   "--estimators", names, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "names no estimator" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_theory_command(tmp_path, bern_arms):
    out = str(tmp_path / "theory.json")
    rc = dispatch(["theory", "--arms", bern_arms, "--m", "10", "--T", "100", "--out", out])
    assert rc == 0
    payload = json.loads(Path(out).read_text())
    assert payload["profile"]["zeta"] == pytest.approx(1.2527629684953678)
    assert payload["bias_exact"]["arm1"] == pytest.approx(-0.018787962827561525)
    assert payload["bias_asymptotic"] < 0


def test_theory_sets_up_its_profile_and_tie_lattice_once(tmp_path, monkeypatch):
    """One profile serves ``profile`` and ``bias_asymptotic``; the two arms' ties share one joint lattice.

    Five rationalizations are left: the profile's own and joint lattices,
    one per arm's mean pmf, and the joint tie lattice.
    """
    from bandit_debias import distributions, theory

    laws = [{"type": "discrete", "support": [0, 0.25, 0.5, 0.75, 1], "probs": probs}
            for probs in ([0.3, 0.2, 0.2, 0.2, 0.1], [0.1, 0.2, 0.2, 0.2, 0.3])]
    (tmp_path / "arms.json").write_text(json.dumps(laws))
    calls = {"bahadur_rao_constants": 0, "_lattice": 0}
    for name in calls:
        def counting(*args, _fn=getattr(theory, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(theory, name, counting)
    out = tmp_path / "theory.json"
    argv = ["theory", "--arms", str(tmp_path / "arms.json"), "--m", "40", "--T", "160", "--out", str(out)]
    assert dispatch(argv) == 0
    assert calls["bahadur_rao_constants"] == 1 and calls["_lattice"] <= 5, calls
    monkeypatch.undo()
    arm1, arm2 = map(distributions.from_dict, laws)
    payload = json.loads(out.read_text())
    profile = theory.bahadur_rao_constants(arm1, arm2.mean())
    assert payload["bias_asymptotic"] == theory.etc_bias_from_profile(profile, 40, 160)
    assert [payload["bias_exact"][f"arm{k}"] for k in (1, 2)] == list(theory.etc_bias_general([arm1, arm2], 40, 160))


@pytest.mark.parametrize("given", [["--m", "10"], ["--T", "100"]], ids=["m_only", "T_only"])
def test_theory_needs_m_and_T_together(tmp_path, bern_arms, given):
    out = tmp_path / "theory.json"
    assert dispatch(["theory", "--arms", bern_arms, *given, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("laws", [0, 3])
def test_theory_takes_one_or_two_laws(tmp_path, capsys, laws):
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([{"type": "bernoulli", "p": 0.3}] * laws))
    out = tmp_path / "theory.json"
    assert dispatch(["theory", "--arms", str(arms), "--mu2", "0.5", "--m", "10", "--T", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: theory takes one or two reward laws, the arms file has {laws}\n"
    assert not out.exists()


def test_theory_near_sure_commitment_is_exact(tmp_path):
    """Bernoulli(0.3) vs Bernoulli(0.52) at m = 1000, T = 4m: both biases
    match 150-digit references, not rounding noise, with no warning."""
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.52}]))
    out = tmp_path / "theory.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = dispatch(["theory", "--arms", str(arms), "--m", "1000", "--T", "4000", "--out", str(out)])
    assert rc == 0
    exact = json.loads(out.read_text())["bias_exact"]
    assert exact["arm1"] == pytest.approx(-1.62063859836051e-25, rel=1e-9)
    assert exact["arm2"] == pytest.approx(-1.76719400376051e-25, rel=1e-9)


def test_theory_out_of_range_is_exit_2(tmp_path, bern_arms):
    rc = dispatch(["theory", "--arms", bern_arms, "--mu2", "1.5",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_theory_outside_the_support_hull_writes_nothing(tmp_path, capsys):
    """Arm 2's mean 0.5 lies outside arm 1's support hull, so the profile is
    undefined; the defined bias_exact is not written either: all or nothing."""
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([{"type": "discrete", "support": [0.1, 0.3333333333], "probs": [0.5, 0.5]},
                                {"type": "bernoulli", "p": 0.5}]))
    out = tmp_path / "theory.json"
    assert dispatch(["theory", "--arms", str(arms), "--m", "10", "--T", "40", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("OutOfRange: threshold 0.5 outside the attainable slope range")
    assert not out.exists()


def test_theory_zero_probability_atom_is_not_support(tmp_path, capsys):
    """Arm 1's atom at 1 has probability 0, so its hull is [0, 0.5] and 0.8 is out of range."""
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([{"type": "discrete", "support": [0, 0.5, 1], "probs": [0.5, 0.5, 0]},
                                {"type": "bernoulli", "p": 0.8}]))
    out = tmp_path / "theory.json"
    assert dispatch(["theory", "--arms", str(arms), "--m", "10", "--T", "40", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("OutOfRange: threshold 0.8 outside the attainable slope range (0.0, 0.5)")
    assert not out.exists()


@pytest.mark.parametrize("mu2", ["nan", "inf", "-inf"])
def test_theory_nonfinite_mu2_is_usage_error(tmp_path, capsys, bern_arms, mu2):
    out = tmp_path / "x.json"
    assert dispatch(["theory", "--arms", bern_arms, f"--mu2={mu2}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --mu2 must be finite, got {float(mu2)}\n"
    assert not out.exists()


def test_theory_one_law_needs_mu2(tmp_path, capsys):
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([{"type": "bernoulli", "p": 0.3}]))
    out = tmp_path / "x.json"
    assert dispatch(["theory", "--arms", str(arms), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --mu2 is required when the arms file has a single distribution\n"
    assert not out.exists()


def test_theory_threshold_at_the_mean_is_exit_2(tmp_path, capsys, bern_arms):
    """At arm 1's own mean the tail does not decay: no tilt, so no profile."""
    out = tmp_path / "x.json"
    assert dispatch(["theory", "--arms", bern_arms, "--mu2", "0.3", "--m", "10", "--T", "40", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("OutOfRange: threshold equals the mean")
    assert not out.exists()


def test_missing_seed_is_usage_error(tmp_path, gauss_arms):
    rc = dispatch(["simulate", "--policy", "etc", "--m", "10", "--K", "2", "--T", "100",
                   "--arms", gauss_arms, "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_missing_policy_param(tmp_path, gauss_arms):
    rc = dispatch(["simulate", "--policy", "etc", "--K", "2", "--T", "100",
                   "--arms", gauss_arms, "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1  # etc needs --m


def test_bad_arms_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = dispatch(["simulate", "--policy", "ucb", "--K", "2", "--T", "10",
                   "--arms", str(bad), "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    rc = dispatch(["simulate", "--policy", "ucb", "--K", "2", "--T", "10",
                   "--arms", str(tmp_path / "absent.json"), "--seed", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_request_too_large_for_memory_is_one_line_exit_1(tmp_path, capsys, monkeypatch, bern_arms):
    # 10**18 rounds need exabytes: numpy refuses the first array at once, whatever
    # the machine, so the test allocates nothing.
    out = tmp_path / "x.csv"
    rc = dispatch(["simulate", "--policy", "ts", "--K", "2", "--T", str(10**18),
                   "--arms", bern_arms, "--seed", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the simulate request is too large for memory: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [Path(bern_arms).name]
    # A bare MemoryError, as building debias's task list at --B 10**13 raises,
    # still gives a reason; the replay pool is patched to raise it.
    log = _simulate(tmp_path, bern_arms, extra=["--m", "3"])
    capsys.readouterr()

    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr("bandit_debias.debias.task_map", no_memory)
    report = tmp_path / "report.json"
    rc = dispatch(["debias", "--log", log, "--meta", log + ".meta.json", "--B", "10", "--seed", "1",
                   "--out", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == "error: the debias request is too large for memory: an allocation failed\n"
    assert not report.exists()


def test_theory_refuses_atoms_the_cap_cannot_separate(tmp_path, capsys):
    """1 and 1 + 1e-10 (or 0 and 1e-10) rationalize to one fraction: the
    exact enumeration refuses the support (exit 1, no file).  Writing both
    atoms to one lattice index dropped a quarter of the mass (the m = 3 pmf
    summed to 0.42) and reported arm 1's bias as +0.00499; a zero span
    ended in ZeroDivisionError."""
    near = {"type": "discrete", "support": [0, 1, 1.0000000001], "probs": [0.5, 0.25, 0.25]}
    tiny = {"type": "discrete", "support": [0, 1e-10], "probs": [0.5, 0.5]}
    for laws, flags in (([near, {"type": "bernoulli", "p": 0.4}], ["--m", "5", "--T", "20"]),
                        ([tiny, tiny], ["--mu2", "8e-11", "--m", "3", "--T", "12"])):
        arms = tmp_path / "arms.json"
        arms.write_text(json.dumps(laws))
        out = tmp_path / "theory.json"
        assert dispatch(["theory", "--arms", str(arms), *flags, "--out", str(out)]) == 1
        support = [float(x) for x in laws[0]["support"]]
        message = f"error: support {support} has no rational lattice that keeps its atoms apart\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_theory_profile_reads_atoms_the_cap_merges_as_non_lattice(tmp_path):
    """Without --m the profile alone is written.  1 and 1 + 1e-10 share a
    lattice index, so arm 1's law is read as non-lattice, c0 = 1/|zeta|, as
    for an atom with no rational form; the span-1 lattice it was given
    before (c0 2.9999999996) ignored the third atom."""
    near = {"type": "discrete", "support": [0, 1, 1.0000000001], "probs": [0.5, 0.25, 0.25]}
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([near, {"type": "bernoulli", "p": 0.4}]))
    out = tmp_path / "theory.json"
    assert dispatch(["theory", "--arms", str(arms), "--out", str(out)]) == 0
    profile = json.loads(out.read_text())["profile"]
    assert profile["lattice"] is False and profile["span"] is None and profile["threshold_span"] is None
    assert profile["c0"] == pytest.approx(1.0 / abs(profile["zeta"]), rel=1e-15)
    assert profile["c0"] == pytest.approx(2.466, abs=1e-3)


@pytest.mark.parametrize("policy, flags, message", [
    ("ucb", ["--m", "3", "--epsilon", "0.5"], "policy.epsilon is not a known field"),
    ("etc", ["--m", "3", "--prior-mean", "1"], "policy.prior_mean is not a known field"),
    ("ts", ["--prior-variance", "nan"], "policy is invalid: TS prior_variance must be finite and > 0, got nan"),
    ("ts", ["--likelihood-variance", "inf"],
     "policy is invalid: TS likelihood_variance must be finite and > 0, got inf"),
], ids=["ucb_with_m_and_epsilon", "etc_with_prior_mean", "ts_nan_prior_variance", "ts_inf_likelihood_variance"])
def test_simulate_refuses_flags_the_policy_does_not_take(tmp_path, gauss_arms, capsys, policy, flags, message):
    out = tmp_path / "x.csv"
    rc = dispatch(["simulate", "--policy", policy, *flags, "--K", "2", "--T", "10",
                   "--arms", gauss_arms, "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists() and not (tmp_path / "x.csv.meta.json").exists()


def test_arms_file_typo_is_usage_error(tmp_path, capsys):
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps([{"type": "bernoulli", "p": 0.3}, {"type": "gaussian", "mean": 1.0, "varience": 2.0}]))
    rc = dispatch(["simulate", "--policy", "ucb", "--K", "2", "--T", "10",
                   "--arms", str(arms), "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: arms[1].variance is missing\n"
    assert not (tmp_path / "x.csv").exists()


def test_simulate_nan_mean_is_usage_error(tmp_path, capsys):
    arms = tmp_path / "nan_arms.json"
    arms.write_text('[{"type": "gaussian", "mean": NaN, "variance": 1.0}, {"type": "bernoulli", "p": 0.5}]')
    rc = dispatch(["simulate", "--policy", "ucb", "--K", "2", "--T", "10",
                   "--arms", str(arms), "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.csv.meta.json").exists()


def test_debias_zero_count_arm_is_exit_2(tmp_path, gauss_arms):
    # eg with epsilon 0 pins itself to one arm; its log defeats the bootstrap
    log = _simulate(tmp_path, gauss_arms, policy="eg", extra=["--epsilon", "0.0"])
    rc = dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                   "--B", "10", "--seed", "2", "--out", str(tmp_path / "r.json")])
    assert rc == 2


def test_debias_se_of_one_replay_is_null(tmp_path, gauss_arms):
    # One replay per arm gives no spread: its SE is undefined, not a point mass's 0.
    log = str(tmp_path / "ucb.csv")
    assert dispatch(["simulate", "--policy", "ucb", "--K", "2", "--T", "50",
                     "--arms", gauss_arms, "--seed", "3", "--out", log]) == 0
    for B, defined in (("1", False), ("2", True)):
        out = tmp_path / f"r{B}.json"
        assert dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                         "--B", B, "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["b_effective"] == [int(B)] * 2
        assert [se is not None for se in report["bootstrap_se"]] == [defined] * 2, report


def test_plan_se_of_one_replication_is_null(tmp_path):
    plan = json.loads(Path(_plan_file(tmp_path)).read_text())
    plan["cells"][0]["replications"] = 1
    plan_path = tmp_path / "one.json"
    plan_path.write_text(json.dumps(plan))
    assert dispatch(["plan", "--plan", str(plan_path), "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "cell" / "summary.json").read_text())
    assert summary["mc_bias_se"] == [None, None]
    assert None not in summary["mc_bias"]


def test_plan_command_and_worker_invariance(tmp_path, monkeypatch):
    plan = {
        "cells": [
            {
                "name": "cell_a",
                "policy": {"name": "etc", "m": 5},
                "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}],
                "K": 2, "T": 40, "replications": 60,
                "bootstrap": {"kind": "mb", "B": 30},
            }
        ]
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    outputs = []
    for w, sub in (("1", "w1"), ("2", "w2")):
        out_dir = tmp_path / sub
        rc = dispatch(["plan", "--plan", str(plan_path), "--seed", "99",
                       "--workers", w, "--out-dir", str(out_dir)])
        assert rc == 0
        outputs.append({
            "summary": (out_dir / "cell_a" / "summary.json").read_text(),
            "rows": (out_dir / "cell_a" / "replications.csv").read_text(),
        })
    assert outputs[0] == outputs[1]


def test_workers_env_default(tmp_path, gauss_arms, monkeypatch):
    monkeypatch.setenv("BANDIT_DEBIAS_WORKERS", "2")
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    out = str(tmp_path / "env.json")
    rc = dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                   "--B", "5000", "--seed", "7", "--out", out])
    assert rc == 0
    ref = str(tmp_path / "ref.json")
    monkeypatch.delenv("BANDIT_DEBIAS_WORKERS")
    rc = dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                   "--B", "5000", "--seed", "7", "--out", ref])
    assert rc == 0
    assert Path(out).read_text() == Path(ref).read_text()


def test_plan_rejects_bad_cells(tmp_path):
    base = {
        "name": "cell", "policy": {"name": "etc", "m": 5},
        "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}],
        "K": 2, "T": 40, "replications": 2, "bootstrap": {"kind": "mb", "B": 5},
        "horizon_grid": [20, 40],
    }
    # ETC needs m*K <= T at every horizon, checked before any cell runs: a
    # short grid point or a short second cell must not leave results behind.
    short_second = [base, {**base, "name": "short", "T": 8, "horizon_grid": []}]
    plans = [{"cells": [{**base, **extra}]} for extra in (
        {"mse_B": "ten"}, {"mse_B": 0}, {"mse_b": 10}, {"estimators": ["mean", "ipww"]},
        {"horizon_grid": [5, 40]},
        # A typo'd key in every kind of record, and a non-finite TS parameter.
        {"policy": {"name": "etc", "m": 5, "mm": 6}},
        {"bootstrap": {"kind": "mb", "B": 5, "b": 6}},
        {"arms": [{"type": "bernoulli", "p": 0.3, "q": 0.4}, {"type": "bernoulli", "p": 0.6}]},
        {"arms": {"first": {"type": "bernoulli", "p": 0.3}, "second": {"type": "bernoulli", "p": 0.6}}},
        {"policy": {"name": "ts", "prior_variance": float("inf")}},
    )] + [{"cells": short_second}, {"cells": [base], "cels": []}]
    for plan in plans:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        rc = dispatch(["plan", "--plan", str(plan_path), "--seed", "1",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 1, plan
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("cells", {"name": "cell"}), ("arms", {"type": "bernoulli", "p": 0.3}), ("estimators", "ipw"),
    ("horizon_grid", "40"),
])
def test_plan_list_fields_must_be_lists(tmp_path, capsys, field, value):
    # A string would be read as its characters: "ipw" as the estimators i, p and w.
    plan = json.loads(Path(_plan_file(tmp_path)).read_text())
    if field == "cells":
        plan["cells"] = value
    else:
        plan["cells"][0][field] = value
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    rc = dispatch(["plan", "--plan", str(plan_path), "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    path = "plan.cells" if field == "cells" else f"plan.cells[0].{field}"
    assert capsys.readouterr().err == f"error: {path} must be a JSON list, got {value!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names", [
    ["../escape"], ["ABSOLUTE"], ["a/b"], ["."], [".."], [""], ["ok", "ok"],
], ids=["parent", "absolute", "separator", "dot", "dotdot", "empty", "repeated"])
def test_plan_rejects_unsafe_or_repeated_cell_names(tmp_path, capsys, names):
    # A cell's outputs go to <out-dir>/<name>: a name that leaves --out-dir, or two
    # cells that share a directory, must stop the plan before any cell runs.
    work = tmp_path / "work"
    work.mkdir()
    names = [str(tmp_path / "absolute") if n == "ABSOLUTE" else n for n in names]
    cell = json.loads(Path(_plan_file(work)).read_text())["cells"][0]
    (work / "plan.json").write_text(json.dumps({"cells": [{**cell, "name": n} for n in names]}))
    rc = dispatch(["plan", "--plan", str(work / "plan.json"), "--seed", "1", "--out-dir", str(work / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plan") and err.count("\n") == 1, err
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["work", "work/plan.json"]


@pytest.mark.parametrize("edit, message", [
    ({"K": 2.7}, "plan.cells[0].K must be an integer, got 2.7"),
    ({"T": 40.5}, "plan.cells[0].T must be an integer, got 40.5"),
    ({"replications": True}, "plan.cells[0].replications must be an integer, got True"),
    ({"bootstrap": {"kind": "mb", "B": 5.5}}, "plan.cells[0].bootstrap.B must be an integer, got 5.5"),
    ({"mse_B": 10.5}, "plan.cells[0].mse_B must be an integer, got 10.5"),
    ({"horizon_grid": [20.5, 40]}, "plan.cells[0].horizon_grid[0] must be an integer, got 20.5"),
    ({"policy": {"name": "etc", "m": 2.5}}, "plan.cells[0].policy.m must be an integer, got 2.5"),
], ids=["K", "T", "replications", "B", "mse_B", "horizon_grid", "m"])
def test_plan_non_integer_field_is_usage_error(tmp_path, capsys, edit, message):
    # int() would truncate each of these and run the plan.
    cell = json.loads(Path(_plan_file(tmp_path)).read_text())["cells"][0]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"cells": [{**cell, **edit}]}))
    rc = dispatch(["plan", "--plan", str(plan_path), "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_plan_nan_arm_mean_is_usage_error(tmp_path, capsys):
    # A NaN arm mean in the second cell stops the plan before the first cell runs.
    ok = {"name": "ok", "policy": {"name": "ucb"}, "K": 2, "T": 20, "replications": 2,
          "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}]}
    nan = {**ok, "name": "nan", "arms": [{"type": "gaussian", "mean": float("nan"), "variance": 1.0}] * 2}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"cells": [ok, nan]}))
    rc = dispatch(["plan", "--plan", str(plan_path), "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _corrupt_log(tmp_path, gauss_arms, edit, policy="eg", extra=("--epsilon", "0.2")):
    log = _simulate(tmp_path, gauss_arms, policy=policy, extra=extra)
    with open(log) as f:
        lines = f.read().splitlines()
    edit(lines)
    with open(log, "w") as f:
        f.write("\n".join(lines) + "\n")
    return dispatch(["debias", "--log", log, "--meta", log + ".meta.json",
                     "--B", "10", "--seed", "2", "--out", str(tmp_path / "r.json")])


def test_debias_repeated_round_is_exit_2(tmp_path, gauss_arms):
    def repeat_round_3(lines):
        lines[4] = "3," + lines[4].split(",", 1)[1]  # row of round 4 claims round 3
    assert _corrupt_log(tmp_path, gauss_arms, repeat_round_3) == 2


def test_debias_nan_reward_is_exit_2(tmp_path, gauss_arms):
    def nan_reward(lines):
        lines[10] = lines[10].rsplit(",", 1)[0] + ",nan"
    assert _corrupt_log(tmp_path, gauss_arms, nan_reward) == 2


def test_overflowing_rewards_are_a_data_error(tmp_path, capsys):
    # Finite rewards of +-1e200: the squared deviations, so the MLE variance, overflow.
    log = tmp_path / "big.csv"
    log.write_text("t,arm,reward\n" + "".join(f"{t},{(t - 1) % 2 + 1},{(-1) ** (t // 2) * 1e200!r}\n"
                                             for t in range(1, 41)))
    meta = tmp_path / "big.csv.meta.json"
    meta.write_text(json.dumps({"K": 2, "T": 40, "policy": {"name": "eg", "epsilon": 0.2}}))
    for kind in ("mb", "efron"):
        rc = dispatch(["debias", "--log", str(log), "--meta", str(meta), "--bootstrap", kind, "--B", "10",
                       "--seed", "2", "--out", str(tmp_path / "r.json")])
        assert rc == 2, kind
        assert capsys.readouterr().err.startswith("OverflowError: arm 1 has a non-finite MLE variance")
    assert not (tmp_path / "r.json").exists()
    # evaluate needs no variance: exit 0 and no overflow warning.
    assert dispatch(["evaluate", "--log", str(log), "--meta", str(meta), "--out", str(tmp_path / "e.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("reward, T, arm", [(1.7e308, 40, 1), (1e307, 10, 2)])
def test_evaluate_stops_when_finite_rewards_overflow_an_estimate(tmp_path, capsys, reward, T, arm):
    # 1.7e308: both arms' sums overflow.  1e307: the sums are finite, but arm
    # 2's propensity is 0.1 in every round, so its IPW weights overflow.
    log = tmp_path / "big.csv"
    log.write_text("t,arm,reward\n" + "".join(f"{t},{(t - 1) % 2 + 1},{reward!r}\n" for t in range(1, T + 1)))
    meta = tmp_path / "big.csv.meta.json"
    meta.write_text(json.dumps({"K": 2, "T": T, "policy": {"name": "eg", "epsilon": 0.2}}))
    out = tmp_path / "e.json"
    assert dispatch(["evaluate", "--log", str(log), "--meta", str(meta), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"OverflowError: arm {arm} has a non-finite estimate")
    assert not out.exists()


def test_evaluate_zero_propensity_is_exit_2(tmp_path, capsys):
    # A TS log: arm 1 pays 0.0 forty times, arm 2 pays 50.0 forty times, then
    # arm 1 plays once at a propensity that underflows to exactly 0.
    arms = [1] * 40 + [2] * 40 + [1]
    log = tmp_path / "ts.csv"
    log.write_text("t,arm,reward\n" + "".join(f"{t},{a},{50.0 if a == 2 else 0.0}\n" for t, a in enumerate(arms, 1)))
    meta = tmp_path / "ts.csv.meta.json"
    meta.write_text(json.dumps({"K": 2, "T": len(arms), "policy": {"name": "ts"}}))
    out = tmp_path / "e.json"
    assert dispatch(["evaluate", "--log", str(log), "--meta", str(meta), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "DivisionHazard: propensity of chosen arm 1 at round 81 is zero\n"
    assert not out.exists()


def _relabel_first_rounds(lines):
    for i in range(1, 11):  # swap arms 1 and 2 in rounds 1..10
        t, arm, reward = lines[i].split(",")
        lines[i] = f"{t},{3 - int(arm)},{reward}"


def _flip_round(t):
    def edit(lines):
        round_, arm, reward = lines[t].split(",")
        lines[t] = f"{round_},{3 - int(arm)},{reward}"
    return edit


@pytest.mark.parametrize("edit, round_, policy, extra", [
    (_relabel_first_rounds, 1, "etc", ("--m", "5")),
    (_flip_round(60), 60, "etc", ("--m", "5")),
    (_flip_round(10), 10, "ucb", ()),
    (_flip_round(30), 30, "eg", ("--epsilon", "0")),
], ids=["wrong_schedule", "committed_block_switches", "ucb_round_flipped", "eg0_leaves_greedy_arm"])
def test_etc_log_etc_could_not_produce_is_exit_2(tmp_path, gauss_arms, capsys, edit, round_, policy, extra):
    # ETC, UCB and EG with epsilon = 0 choose without drawing: any other arm is impossible.
    assert _corrupt_log(tmp_path, gauss_arms, edit, policy=policy, extra=extra) == 2
    assert f"PolicyMismatch: round {round_}:" in capsys.readouterr().err
    log = str(tmp_path / "log.csv")
    rc = dispatch(["evaluate", "--log", log, "--meta", log + ".meta.json", "--out", str(tmp_path / "e.json")])
    assert rc == 2
    assert f"PolicyMismatch: round {round_}:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "e.json").exists()


def _set_field(column, value):
    def edit(lines):
        fields = lines[4].split(",")
        fields[column] = value
        lines[4] = ",".join(fields)
    return edit


def _drop_arm_column(lines):
    lines[:] = [",".join(f for i, f in enumerate(line.split(",")) if i != 1) for line in lines]


def _short_row(lines):
    lines[4] = lines[4].rsplit(",", 1)[0]


@pytest.mark.parametrize("edit", [
    _set_field(1, "7"), _set_field(1, "0"), _set_field(2, "abc"), _set_field(0, "x"),
    _drop_arm_column, _short_row,
], ids=["arm_7", "arm_0", "reward_abc", "t_x", "no_arm_column", "short_row"])
def test_debias_malformed_row_is_exit_2(tmp_path, gauss_arms, edit):
    assert _corrupt_log(tmp_path, gauss_arms, edit) == 2


def _extra_column(lines):
    lines[0] += ",note"
    lines[2] += ",junk,more"


def _extra_field(lines):
    lines[7] += ",junk"


def _huge_header(lines):
    lines[0] += "x" * 131_073


@pytest.mark.parametrize("edit, message", [
    (_extra_column, "CorruptLog: columns ['t', 'arm', 'reward', 'note'] are not exactly t, arm, reward\n"),
    (_extra_field, "CorruptLog: data row 7 has more than 3 fields\n"),
    (_short_row, "CorruptLog: data row 4 has fewer than 3 fields\n"),
    (_set_field(2, "zero"),
     "CorruptLog: data row 4 has an unparsable 'reward' field: could not convert string to float: 'zero'\n"),
    (_set_field(1, "1.5"),
     "CorruptLog: data row 4 has an unparsable 'arm' field: invalid literal for int() with base 10: '1.5'\n"),
    # int() reads it; only the int64 column refuses it.
    (_set_field(0, "99999999999999999999"),
     "CorruptLog: data row 4 has an unparsable 't' field: Python int too large to convert to C long\n"),
    # Past the csv module's field size limit, the row cannot be read at all.
    (_set_field(2, "1" * 131_073), "CorruptLog: data row 4 is unreadable: field larger than field limit (131072)\n"),
    (_huge_header, "CorruptLog: the header is unreadable: field larger than field limit (131072)\n"),
], ids=["extra_column", "extra_field", "short_row", "reward_zero", "arm_1.5", "t_past_int64", "huge_field",
        "huge_header"])
def test_extra_csv_fields_are_exit_2(tmp_path, gauss_arms, capsys, edit, message):
    assert _corrupt_log(tmp_path, gauss_arms, edit) == 2
    assert capsys.readouterr().err == message
    log = str(tmp_path / "log.csv")
    rc = dispatch(["evaluate", "--log", log, "--meta", log + ".meta.json", "--out", str(tmp_path / "e.json")])
    assert rc == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "e.json").exists()


def _not_utf8(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    lines[4] = lines[4].replace(b"\n", b"\xff\n")
    return b"".join(lines)


@pytest.mark.parametrize("edit, start", [
    # A 0xff byte is no UTF-8; a locale whose codec reads it gets an unparsable reward instead.
    (_not_utf8, "CorruptLog: "),
    (lambda data: b"", "CorruptLog: missing column(s) ['arm', 'reward', 't']\n"),
], ids=["not_utf8", "empty"])
def test_log_bytes_that_are_no_log_are_exit_2(tmp_path, gauss_arms, capsys, edit, start):
    log = Path(_simulate(tmp_path, gauss_arms, policy="eg", extra=("--epsilon", "0.2")))
    log.write_bytes(edit(log.read_bytes()))
    meta = str(log) + ".meta.json"
    for command in (["debias", "--B", "10", "--seed", "2"], ["evaluate"]):
        rc = dispatch([*command, "--log", str(log), "--meta", meta, "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1, err
    assert not (tmp_path / "r.json").exists()


def _plan_file(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"cells": [{
        "name": "cell", "policy": {"name": "etc", "m": 5},
        "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}],
        "K": 2, "T": 40, "replications": 2, "bootstrap": {"kind": "mb", "B": 5},
    }]}))
    return str(plan_path)


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_is_usage_error(tmp_path, gauss_arms, monkeypatch, workers):
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    debias_args = ["debias", "--log", log, "--meta", log + ".meta.json", "--B", "10", "--seed", "7",
                   "--out", str(tmp_path / "r.json")]
    plan_args = ["plan", "--plan", _plan_file(tmp_path), "--seed", "1", "--out-dir", str(tmp_path / "out")]
    for argv in (debias_args, plan_args):
        assert dispatch([*argv, "--workers", workers]) == 1, argv[0]
        monkeypatch.setenv("BANDIT_DEBIAS_WORKERS", workers)
        assert dispatch(argv) == 1, argv[0]
        monkeypatch.delenv("BANDIT_DEBIAS_WORKERS")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "out").exists()


def test_non_integer_workers_env_names_the_variable(tmp_path, gauss_arms, monkeypatch, capsys):
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    debias_args = ["debias", "--log", log, "--meta", log + ".meta.json", "--B", "10", "--seed", "7",
                   "--out", str(tmp_path / "r.json")]
    plan_args = ["plan", "--plan", _plan_file(tmp_path), "--seed", "1", "--out-dir", str(tmp_path / "out")]
    monkeypatch.setenv("BANDIT_DEBIAS_WORKERS", "two")
    for argv in (debias_args, plan_args):
        assert dispatch(argv) == 1, argv[0]
        assert "BANDIT_DEBIAS_WORKERS must be an integer, got 'two'" in capsys.readouterr().err, argv[0]
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "out").exists()


def _without(key):
    return lambda meta: json.dumps({k: v for k, v in meta.items() if k != key})


def _policy_edit(**fields):
    return lambda meta: json.dumps({**meta, "policy": {**meta["policy"], **fields}})


@pytest.mark.parametrize("edit, field", [
    (_without("policy"), "sidecar.policy is missing"),
    (lambda meta: json.dumps({**meta, "K": "two"}), "sidecar.K must be an integer, got 'two'"),
    (lambda meta: json.dumps(meta)[:-10], "JSON"),
    (_policy_edit(prior_variance=-1),
     "sidecar.policy is invalid: TS prior_variance must be finite and > 0, got -1"),
    (lambda meta: json.dumps({**meta, "policy": {"name": "etc"}}), "sidecar.policy.m is missing"),
    (lambda meta: json.dumps({**meta, "world": "foo"}), "sidecar.world is invalid: unknown world tag 'foo'"),
    (lambda meta: json.dumps({**meta, "K": 0}), "sidecar.K must be an integer >= 1, got 0"),
    (lambda meta: json.dumps({**meta, "T": 0}), "sidecar.T must be an integer >= 1, got 0"),
    # int() would truncate these to K = 2, T = 1 and m = 2.
    (lambda meta: json.dumps({**meta, "K": 2.7}), "sidecar.K must be an integer, got 2.7"),
    (lambda meta: json.dumps({**meta, "T": True}), "sidecar.T must be an integer, got True"),
    (lambda meta: json.dumps({**meta, "policy": {"name": "etc", "m": 2.5}}),
     "sidecar.policy.m must be an integer, got 2.5"),
    # A typo'd key would replay the default prior; a non-finite TS parameter gives no report.
    (_policy_edit(prior_men=5), "sidecar.policy.prior_men is not a known field"),
    (lambda meta: json.dumps({**meta, "sed": 5}), "sidecar.sed is not a known field"),
    (_policy_edit(prior_variance=float("nan")),
     "sidecar.policy is invalid: TS prior_variance must be finite and > 0, got nan"),
    (_policy_edit(likelihood_variance=float("inf")),
     "sidecar.policy is invalid: TS likelihood_variance must be finite and > 0, got inf"),
    (lambda meta: json.dumps({**meta, "policy": "ts"}), "sidecar.policy must be a JSON object, got str"),
], ids=["no_policy", "K_two", "truncated_json", "negative_prior_variance", "etc_without_m", "world_foo", "K_0", "T_0",
        "K_2.7", "T_true", "m_2.5", "policy_typo", "sidecar_typo", "nan_prior_variance", "inf_likelihood_variance",
        "policy_string"])
def test_debias_bad_sidecar_is_exit_2(tmp_path, gauss_arms, capsys, edit, field):
    log = _simulate(tmp_path, gauss_arms, policy="ts")
    meta = tmp_path / "log.csv.meta.json"
    meta.write_text(edit(json.loads(meta.read_text())))
    rc = dispatch(["debias", "--log", log, "--meta", str(meta), "--B", "10", "--seed", "2",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("CorruptLog: ") and field in err, err
    assert not (tmp_path / "r.json").exists()


def test_debias_missing_sidecar_is_usage_error(tmp_path, gauss_arms, capsys):
    log = _simulate(tmp_path, gauss_arms, policy="ts")
    rc = dispatch(["debias", "--log", log, "--meta", str(tmp_path / "absent.json"), "--B", "10", "--seed", "2",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "No such file" in capsys.readouterr().err


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the process pools started, by a stand-in that runs their tasks in this process."""
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes.append))
    return sizes


def recording_pool(on_start):
    """A ProcessPoolExecutor stand-in that runs its tasks in this process
    and calls on_start(max_workers) as each pool is built."""

    class RecordingPool:
        def __init__(self, max_workers):
            on_start(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    return RecordingPool


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("B,chunks", [(2 * (CHUNK_CELLS // 2) + 1, 3), (1000, 1)], ids=["three_chunks", "one_chunk"])
def test_debias_pool_is_sized_by_its_chunks(tmp_path, gauss_arms, monkeypatch, pool_sizes, source, B, chunks):
    assert len(chunk_bounds(B, 2)) == chunks
    pool = [chunks] if chunks > 1 else []
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    argv = ["debias", "--log", log, "--meta", log + ".meta.json", "--B", str(B), "--seed", "7"]
    rc = dispatch([*argv, "--out", str(tmp_path / "ref.json")])  # one worker: no pool
    if source == "flag":
        rc += dispatch([*argv, "--workers", "5000", "--out", str(tmp_path / "r.json")])
    else:
        monkeypatch.setenv("BANDIT_DEBIAS_WORKERS", "5000")
        rc += dispatch([*argv, "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert pool_sizes == pool
    assert (tmp_path / "r.json").read_text() == (tmp_path / "ref.json").read_text()


@pytest.mark.parametrize("source", ["flag", "env"])
def test_plan_pool_is_sized_by_its_blocks(tmp_path, monkeypatch, pool_sizes, source):
    cell = {"policy": {"name": "etc", "m": 2}, "arms": [{"type": "bernoulli", "p": 0.3}] * 2,
            "K": 2, "T": 10, "bootstrap": {"kind": "mb", "B": 5}}
    plan_path = tmp_path / "plan.json"  # 2 + 1 blocks of 50 replications
    plan_path.write_text(json.dumps({"cells": [{**cell, "name": "a", "replications": 60},
                                               {**cell, "name": "b", "replications": 10}]}))
    argv = ["plan", "--plan", str(plan_path), "--seed", "3", "--out-dir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--workers", "5000"]
    else:
        monkeypatch.setenv("BANDIT_DEBIAS_WORKERS", "5000")
    assert dispatch(argv) == 0
    assert pool_sizes == [3]
    assert (tmp_path / "out" / "b" / "summary.json").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("replays were set up for a request over MAX_REPLAYS")


def _replay_plan(tmp_path, name="plan.json", **fields):
    """A plan of one 60-replication ETC cell (blocks of 50 logs) with the given fields."""
    cell = {"name": "a", "policy": {"name": "etc", "m": 2}, "arms": [{"type": "bernoulli", "p": 0.3}] * 2,
            "K": 2, "T": 10, "replications": 60, "bootstrap": {"kind": "mb", "B": 5}, **fields}
    (tmp_path / name).write_text(json.dumps({"cells": [cell]}))
    return ["plan", "--plan", str(tmp_path / name), "--seed", "3", "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_replay_count_that_cannot_finish_is_refused_at_once(tmp_path, gauss_arms, monkeypatch, pool_sizes, capsys,
                                                            workers):
    """B = 10**13 would be about 2.4e9 replay tasks: refused before the first is built, with one line and exit 1.

    The stand-ins make a request that got past the limit fail at once
    instead of building its task list: ``debias`` builds its world just
    before the list, and a plan reaches its replays through ``harness.debias``.
    """
    monkeypatch.setattr("bandit_debias.debias.build_world", _refuse)
    monkeypatch.setattr("bandit_debias.harness.debias", _refuse)
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    huge = 10**13
    runs = [
        (["debias", "--log", log, "--meta", log + ".meta.json", "--B", str(huge), "--seed", "7",
          "--out", str(tmp_path / "r.json")], f"{huge} replays (B = {huge} for each of 1 log(s)) exceed MAX_REPLAYS"),
        (_replay_plan(tmp_path, "b.json", bootstrap={"kind": "efron", "B": huge}),
         f"bootstrap.B = {huge} over a block of 50"),
        (_replay_plan(tmp_path, "mse.json", horizon_grid=[5], mse_B=huge), f"mse_B = {huge} over a block of 50"),
    ]
    for argv, message in runs:
        assert dispatch([*argv, "--workers", workers]) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert pool_sizes == []
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "out").exists()


def test_replay_limit_admits_its_own_size(tmp_path, gauss_arms, monkeypatch, capsys):
    """W x B = MAX_REPLAYS runs and one more replay is refused, for ``debias`` (W = 1) and a plan (W = 50)."""
    for module in ("debias", "harness"):
        monkeypatch.setattr(f"bandit_debias.{module}.MAX_REPLAYS", 500)
    log = _simulate(tmp_path, gauss_arms, extra=["--m", "10"])
    debias_args = ["debias", "--log", log, "--meta", log + ".meta.json", "--seed", "7",
                   "--out", str(tmp_path / "r.json")]
    assert dispatch([*debias_args, "--B", "500"]) == 0
    assert dispatch([*debias_args, "--B", "501"]) == 1
    assert dispatch(_replay_plan(tmp_path, bootstrap={"kind": "mb", "B": 10})) == 0
    assert dispatch(_replay_plan(tmp_path, horizon_grid=[5], mse_B=11)) == 1
    assert capsys.readouterr().err.count("MAX_REPLAYS = 500") == 2
