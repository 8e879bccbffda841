"""The CLI contract under malformed input, checked by mutating valid files.

Valid log CSVs, sidecars, arms files and plans are mutated one field at a
time: a field is dropped, retyped to another JSON type, made NaN, or given
an unknown sibling key (an extra item, in a list), or the file is truncated.
Every command that reads the file must then either exit 0 and write strict
JSON, or exit 1 or 2 with one stderr line and no file written; a log CSV
with a field or a row too many must exit 2.  No exception may escape
``dispatch`` and no warning may fire.
"""
import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandit_debias import distributions as dist
from bandit_debias.cli import dispatch
from bandit_debias.policies import spec_from_dict
from bandit_debias.simulator import run_experiment, save_log

ARMS = [
    {"type": "gaussian", "mean": 0.5, "variance": 1.0, "variance_proxy": 1.5},
    {"type": "discrete", "support": [0.0, 1.0, 2.0], "probs": [0.3, 0.4, 0.3]},
]
PLAN = {
    "master_seed": 4,
    "cells": [{
        "name": "cell",
        "policy": {"name": "ts", "prior_mean": 0.0, "prior_variance": 1.0, "likelihood_variance": 1.0},
        "arms": [{"type": "bernoulli", "p": 0.3}, ARMS[0]],
        "K": 2, "T": 12, "replications": 3,
        "bootstrap": {"kind": "efron", "B": 8},
        "estimators": ["mean", "ipw", "aipw"],
        "horizon_grid": [6, 12],
        "mse_B": 4,
    }],
}
POLICIES = {
    "etc": {"name": "etc", "m": 3},
    "ts": {"name": "ts", "prior_mean": 0.0, "prior_variance": 2.0, "likelihood_variance": 1.0},
    "eg": {"name": "eg", "epsilon": 0.3},
}
# Values of every JSON type that a retyped field takes, one of another type than its own.
RETYPED = [None, True, 7, 2.5, "x", [1], {"a": 1}]


def _log_files(policy: dict) -> tuple:
    """The CSV text and the sidecar of a seeded 12-round log."""
    log = run_experiment(2, 12, spec_from_dict(policy), [dist.from_dict(a) for a in ARMS], seed=3)
    with tempfile.TemporaryDirectory() as d:
        save_log(log, f"{d}/log.csv")
        return Path(f"{d}/log.csv").read_text(), json.loads(Path(f"{d}/log.csv.meta.json").read_text())


LOGS = {name: _log_files(policy) for name, policy in POLICIES.items()}
# Each target: the file it mutates and its valid content (a JSON value, or CSV rows of fields).
TARGETS = {
    **{f"sidecar:{name}": ("log.csv.meta.json", meta) for name, (_, meta) in LOGS.items()},
    **{f"log:{name}": ("log.csv", [row.split(",") for row in LOGS[name][0].splitlines()]) for name in ("etc", "eg")},
    "arms": ("arms.json", ARMS),
    "plan": ("plan.json", PLAN),
}


def _paths(value, path=()) -> list:
    """Paths to every value inside a JSON document (the document itself first)."""
    out = [path]
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        out += _paths(item, path + (key,))
    return out


# A site is a target and a path in it, each target as likely as another.
SITES = st.sampled_from(list(TARGETS)).flatmap(
    lambda target: st.sampled_from([(target, path) for path in _paths(TARGETS[target][1])])
)


def _mutate(target: str, path: tuple, mutation: str, choice: int, cut: int) -> str:
    """The text of the target's file after one mutation at ``path``."""
    doc = json.loads(json.dumps(TARGETS[target][1]))
    csv = target.startswith("log:")
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    here = holder[path[-1]] if path else doc
    if mutation in ("retype", "nan"):
        others = [v for v in RETYPED if type(v) is not type(here)]
        new = float("nan") if mutation == "nan" else others[choice % len(others)]
        new = ("nan" if mutation == "nan" else json.dumps(new)) if csv else new
        if path:
            holder[path[-1]] = new
        else:
            doc = new
    elif mutation == "drop":
        if not path:
            return ""
        del holder[path[-1]]
    elif mutation == "unknown":  # an unknown key in an object; in a list, one item too many
        box = here if isinstance(here, (dict, list)) else holder
        if isinstance(box, dict):
            box["extra"] = 1
        else:
            box.append(json.loads(json.dumps(box[-1])) if box else 1)
    if not csv:
        text = json.dumps(doc)
    elif isinstance(doc, list):
        text = "\n".join(",".join(row) if isinstance(row, list) else row for row in doc) + "\n"
    else:
        text = doc
    return text[: len(text) * cut // 100] if mutation == "truncate" else text


def _commands(target: str, work: Path) -> list:
    arms, out = str(work / "arms.json"), work / "out"
    if target == "arms":
        return [
            ["simulate", "--policy", "ts", "--K", "2", "--T", "12", "--arms", arms, "--seed", "1",
             "--out", str(out / "sim.csv")],
            ["theory", "--arms", arms, "--m", "3", "--T", "12", "--out", str(out / "theory.json")],
        ]
    if target == "plan":
        return [["plan", "--plan", str(work / "plan.json"), "--seed", "5", "--out-dir", str(out / "plan")]]
    log = ["--log", str(work / "log.csv"), "--meta", str(work / "log.csv.meta.json")]
    return [
        ["debias", *log, "--B", "16", "--seed", "2", "--out", str(out / "debias.json")],
        ["evaluate", *log, "--out", str(out / "evaluate.json")],
    ]


def _refuse(constant: str):
    raise ValueError(f"non-strict JSON constant {constant}")


def _files(root: Path) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _check(argv: list, work: Path, expect=None) -> None:
    before = _files(work)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = dispatch(argv)
    written = {p: b for p, b in _files(work).items() if before.get(p) != b}
    assert expect in (None, rc), (rc, argv)
    if rc == 0:
        for p, content in written.items():
            if p.suffix == ".json":
                json.loads(content, parse_constant=_refuse)
        return
    assert rc in (1, 2), (rc, argv)
    assert re.fullmatch(r"(error|[A-Z]\w*): [^\n]+\n", err.getvalue()), err.getvalue()
    assert not written, sorted(written)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    site=SITES,
    mutation=st.sampled_from(["drop", "retype", "nan", "truncate", "unknown"]),
    choice=st.integers(0, len(RETYPED) - 1),
    cut=st.integers(0, 99),
)
# Faults this test found in the hand-written parsers that the record reader replaced:
# tracebacks from a field of the wrong JSON type, and a NaN TS prior mean that
# debias replayed into a report of bare NaN tokens.
@example(site=("plan", ("cells", 0, "bootstrap")), mutation="retype", choice=2, cut=0)  # "bootstrap": 7
@example(site=("plan", ("cells", 0, "policy")), mutation="retype", choice=4, cut=0)  # "policy": "x"
@example(site=("plan", ("cells", 0, "arms")), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells", 0, "policy")), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells", 0, "policy", "prior_mean")), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells", 0, "policy", "prior_variance")), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells", 0, "policy", "likelihood_variance")), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells", 0)), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells",)), mutation="retype", choice=0, cut=0)
@example(site=("plan", ("cells",)), mutation="retype", choice=4, cut=0)
@example(site=("plan", ()), mutation="retype", choice=0, cut=0)
@example(site=("arms", (1, "support")), mutation="retype", choice=0, cut=0)
@example(site=("arms", (1, "probs")), mutation="retype", choice=0, cut=0)
@example(site=("arms", (0, "mean")), mutation="retype", choice=0, cut=0)
@example(site=("arms", (0,)), mutation="retype", choice=0, cut=0)
@example(site=("sidecar:ts", ("policy", "prior_mean")), mutation="nan", choice=0, cut=0)
# A log row with one field too many, which load_log once read as a valid log.
@example(site=("log:eg", (3,)), mutation="unknown", choice=0, cut=0)
def test_mutated_inputs_keep_the_cli_contract(site, mutation, choice, cut):
    target, path = site
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        (work / "arms.json").write_text(json.dumps(ARMS))
        (work / "plan.json").write_text(json.dumps(PLAN))
        name = target.split(":")[-1] if ":" in target else "eg"
        (work / "log.csv").write_text(LOGS[name][0])
        (work / "log.csv.meta.json").write_text(json.dumps(LOGS[name][1]))
        (work / TARGETS[target][0]).write_text(_mutate(target, path, mutation, choice, cut))
        (work / "out").mkdir()
        expect = 2 if target.startswith("log:") and mutation == "unknown" else None
        for argv in _commands(target, work):
            _check(argv, work, expect)
