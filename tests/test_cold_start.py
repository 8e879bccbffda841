"""The package runs on numpy alone: no path loads scipy.

Thompson-sampling propensities (``evaluate``, and ``plan`` with ``ipw`` or
``aipw``) and ``theory`` with a Gaussian arm against a finite arm need the
normal CDF, and ``policies.ndtr`` and ``policies.log_ndtr`` give it on numpy.
Importing scipy.special would cost about 22 MiB and half a second.  This
test session imports scipy as a reference, so each check runs in a fresh
interpreter, and an ``ast`` scan keeps every scipy import out of ``src/``.
"""
import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The last line of a snippet: print the names of the scipy modules loaded.
_REPORT = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def _run(snippet: str) -> list:
    """Run a snippet in a fresh interpreter with src and tests importable; the JSON of its last stdout line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(snippet)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["bandit_debias", "bandit_debias.cli"])
def test_import_loads_no_scipy(module):
    assert _run(f"import {module}\n{_REPORT}") == []


def test_simulate_and_debias_load_no_scipy(tmp_path):
    arms, log = tmp_path / "arms.json", tmp_path / "log.csv"
    arms.write_text(json.dumps([{"type": "gaussian", "mean": 1.0, "variance": 1.0},
                                {"type": "bernoulli", "p": 0.3}]))
    loaded = _run(f"""
        from bandit_debias.cli import dispatch
        assert dispatch(["simulate", "--policy", "ucb", "--K", "2", "--T", "100", "--arms", {str(arms)!r},
                         "--seed", "5", "--out", {str(log)!r}]) == 0
        for kind in ("mb", "efron"):
            assert dispatch(["debias", "--log", {str(log)!r}, "--meta", {str(log) + ".meta.json"!r},
                             "--bootstrap", kind, "--B", "200", "--seed", "7",
                             "--out", {str(tmp_path / "report.json")!r}]) == 0
        {_REPORT}
    """)
    assert loaded == []


def test_evaluate_on_ts_logs_loads_no_scipy(tmp_path):
    """IPW and AIPW on TS logs: the two-arm closed form and the K = 3 quadrature."""
    arms = [{"type": "bernoulli", "p": p} for p in (0.3, 0.5, 0.6)]
    for K in (2, 3):
        (tmp_path / f"arms{K}.json").write_text(json.dumps(arms[:K]))
    loaded = _run(f"""
        from bandit_debias.cli import dispatch
        for K in (2, 3):
            log = {str(tmp_path)!r} + f"/log{{K}}.csv"
            assert dispatch(["simulate", "--policy", "ts", "--K", str(K), "--T", "60",
                             "--arms", {str(tmp_path)!r} + f"/arms{{K}}.json", "--seed", "5", "--out", log]) == 0
            assert dispatch(["evaluate", "--log", log, "--meta", log + ".meta.json",
                             "--out", {str(tmp_path)!r} + f"/eval{{K}}.json"]) == 0
        {_REPORT}
    """)
    assert loaded == []


def _plan_pools(tmp_path, policy: dict, estimators: list) -> dict:
    """Run ``plan --workers 2`` on a cell of ``policy`` (two blocks, so one pool) in a fresh interpreter,
    with pools run in-process; whether any scipy module was loaded as each pool was built."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"cells": [{
        "name": "a", "policy": policy, "arms": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}],
        "K": 2, "T": 10, "replications": 60, "bootstrap": {"kind": "mb", "B": 5}, "estimators": estimators,
    }]}))
    return _run(f"""
        import concurrent.futures, json, sys
        from test_cli import recording_pool

        built = []
        concurrent.futures.ProcessPoolExecutor = recording_pool(lambda size: built.append(any(m.split(".")[0] == "scipy" for m in sys.modules)))
        from bandit_debias.cli import dispatch
        rc = dispatch(["plan", "--plan", {str(plan)!r}, "--seed", "3", "--workers", "2",
                       "--out-dir", {str(tmp_path / "out")!r}])
        print(json.dumps({{"rc": rc, "built": built, "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules)}}))
    """)


def test_ts_weighted_plan_loads_no_scipy(tmp_path):
    """TS propensities use the numpy CDFs: neither the parent nor a pool, as it is built, has scipy."""
    policy = {"name": "ts"}
    assert _plan_pools(tmp_path, policy, ["mean", "ipw", "aipw"]) == {"rc": 0, "built": [False], "scipy": False}


def test_mean_only_plan_loads_no_scipy(tmp_path):
    assert _plan_pools(tmp_path, {"name": "ts"}, ["mean"]) == {"rc": 0, "built": [False], "scipy": False}


def test_eg_weighted_plan_loads_no_scipy(tmp_path):
    """EG propensities need no scipy, so neither the parent nor a worker imports it."""
    policy = {"name": "eg", "epsilon": 0.1}
    assert _plan_pools(tmp_path, policy, ["mean", "ipw", "aipw"]) == {"rc": 0, "built": [False], "scipy": False}


def test_theory_loads_no_scipy(tmp_path):
    """The oracles on Bernoulli, lattice, Gaussian and Gaussian-against-Bernoulli pairs, and the
    criterion-7 and -8 Monte Carlo checks."""
    pairs = {
        "bernoulli": [{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.55}],
        "lattice": [{"type": "discrete", "support": [0, 0.25, 0.5, 0.75, 1], "probs": [0.3, 0.2, 0.2, 0.2, 0.1]},
                    {"type": "discrete", "support": [0, 0.25, 0.5, 0.75, 1], "probs": [0.1, 0.2, 0.2, 0.2, 0.3]}],
        "gaussian": [{"type": "gaussian", "mean": 1.0, "variance": 1.0},
                     {"type": "gaussian", "mean": 1.5, "variance": 0.8}],
        "mixed": [{"type": "gaussian", "mean": 0.4, "variance": 0.2}, {"type": "bernoulli", "p": 0.55}],
    }
    for family, arms in pairs.items():
        (tmp_path / f"{family}.json").write_text(json.dumps(arms))
    loaded = _run(f"""
        from bandit_debias import theory
        from bandit_debias.cli import dispatch
        from bandit_debias.distributions import Bernoulli, Gaussian
        for family in {sorted(pairs)!r}:
            assert dispatch(["theory", "--arms", {str(tmp_path)!r} + f"/{{family}}.json", "--m", "100", "--T", "400",
                             "--out", {str(tmp_path)!r} + f"/{{family}}.out.json"]) == 0
        theory.log_bias_ratio_experiment(theory.EtcGaussianParams(1.0, 1.5, 1.0, 1.0, 10, 100), [10, 50], 50, seed=1)
        theory.bootstrap_rate_ratio_check(Gaussian(1.0, 1.0), 1.5, [50], 50, seed=2)
        theory.bootstrap_rate_ratio_check(Bernoulli(0.3), 0.6, [50], 50, seed=3)
        {_REPORT}
    """)
    assert loaded == []


def test_src_imports_no_scipy():
    found = []
    for path in sorted((ROOT / "src" / "bandit_debias").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []
