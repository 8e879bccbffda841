import json
from pathlib import Path

import pytest

from bandit_debias.cli import dispatch


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


def test_theory_command(tmp_path, bern_arms):
    out = str(tmp_path / "theory.json")
    rc = dispatch(["theory", "--arms", bern_arms, "--m", "10", "--T", "100", "--out", out])
    assert rc == 0
    payload = json.loads(Path(out).read_text())
    assert payload["profile"]["zeta"] == pytest.approx(1.2527629684953678)
    assert payload["bias_exact"]["arm1"] == pytest.approx(-0.018787962827561525)
    assert payload["bias_asymptotic"] < 0


@pytest.mark.parametrize("given", [["--m", "10"], ["--T", "100"]], ids=["m_only", "T_only"])
def test_theory_needs_m_and_T_together(tmp_path, bern_arms, given):
    out = tmp_path / "theory.json"
    assert dispatch(["theory", "--arms", bern_arms, *given, "--out", str(out)]) == 1
    assert not out.exists()


def test_theory_out_of_range_is_exit_2(tmp_path, bern_arms):
    rc = dispatch(["theory", "--arms", bern_arms, "--mu2", "1.5",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2


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
    plans = [[{**base, **extra}] for extra in (
        {"mse_B": "ten"}, {"mse_B": 0}, {"mse_b": 10}, {"estimators": ["mean", "ipww"]},
        {"horizon_grid": [5, 40]},
    )] + [short_second]
    for cells in plans:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"cells": cells}))
        rc = dispatch(["plan", "--plan", str(plan_path), "--seed", "1",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 1, cells
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    ({"K": 2.7}, "cell 'cell': K must be an integer, got 2.7"),
    ({"T": 40.5}, "cell 'cell': T must be an integer, got 40.5"),
    ({"replications": True}, "cell 'cell': replications must be an integer, got True"),
    ({"bootstrap": {"kind": "mb", "B": 5.5}}, "cell 'cell': B must be an integer, got 5.5"),
    ({"mse_B": 10.5}, "cell 'cell': mse_B must be an integer, got 10.5"),
    ({"horizon_grid": [20.5, 40]}, "cell 'cell': horizon_grid must be an integer, got 20.5"),
    ({"policy": {"name": "etc", "m": 2.5}}, "m must be an integer, got 2.5"),
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


def _without(key):
    return lambda meta: json.dumps({k: v for k, v in meta.items() if k != key})


@pytest.mark.parametrize("edit, field", [
    (_without("policy"), "'policy'"),
    (lambda meta: json.dumps({**meta, "K": "two"}), "'K'"),
    (lambda meta: json.dumps(meta)[:-10], "JSON"),
    (lambda meta: json.dumps({**meta, "policy": {**meta["policy"], "prior_variance": -1}}), "'policy'"),
    (lambda meta: json.dumps({**meta, "policy": {"name": "etc"}}), "'policy' field: no 'm' key"),
    (lambda meta: json.dumps({**meta, "world": "foo"}), "'world' field: unknown world tag 'foo'"),
    (lambda meta: json.dumps({**meta, "K": 0}), "'K' field: must be >= 1"),
    (lambda meta: json.dumps({**meta, "T": 0}), "'T' field: must be >= 1"),
    # int() would truncate these to K = 2, T = 1 and m = 2.
    (lambda meta: json.dumps({**meta, "K": 2.7}), "'K' field: K must be an integer, got 2.7"),
    (lambda meta: json.dumps({**meta, "T": True}), "'T' field: T must be an integer, got True"),
    (lambda meta: json.dumps({**meta, "policy": {"name": "etc", "m": 2.5}}), "'policy' field: m must be an integer"),
], ids=["no_policy", "K_two", "truncated_json", "negative_prior_variance", "etc_without_m", "world_foo", "K_0", "T_0",
        "K_2.7", "T_true", "m_2.5"])
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
