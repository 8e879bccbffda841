"""In-memory span tracer for the traced benchmark pass.

The tracer replaces public functions of ``bandit_debias`` with wrappers in
the namespace where their callers look them up (``debias.run_batch``, not
only ``simulator.run_batch``), and methods on the classes that own them.
Each call records one span: name, start, end and the id of the enclosing
span.  Spans stay in compact arrays until the run writes them out.

Forked pool workers inherit the wrappers but their spans stay in the
child's memory and are lost, so worker-side layers are measured from a
workers=1 pass.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def patch(self, owner, attr: str, name, on_call=None, on_result=None) -> None:
        """Wrap owner.attr.  ``name`` is a string or a function of the call's
        (args, kwargs); ``on_call``/``on_result`` update ``self.counters``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counters = self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(counters, args, kwargs)
            sid = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(counters, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds.

        Self time is the span minus the time covered by its direct
        children; calls are single-threaded, so children never overlap.
        """
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def dump(self, label: str) -> dict:
        return {
            "label": label,
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counters": dict(self.counters),
        }


def write_spans(path: str, dumps: list[dict]) -> None:
    with gzip.open(path, "wt") as f:
        json.dump(dumps, f)


# --- wrappers around the package -------------------------------------------


def _arg(args, kwargs, i: int, name: str):
    """Argument i of a call, whether passed by position or by name."""
    return args[i] if len(args) > i else kwargs[name]


def _world(arms) -> str:
    return {"Gaussian": "gaussian", "Bernoulli": "bernoulli", "FiniteDiscrete": "discrete"}[type(arms[0]).__name__]


def _run_batch_name(args, kwargs) -> str:
    n, T = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 2, "T")
    policy, arms = _arg(args, kwargs, 3, "policy"), _arg(args, kwargs, 4, "arms")
    return f"simulator.run_batch:{policy.name}:{_world(arms)}:{n}:{T}"


def _count_rounds(counters, args, kwargs) -> None:
    counters["simulator.rounds"] += _arg(args, kwargs, 0, "n") * _arg(args, kwargs, 2, "T")


def _count_draws(cls_name):
    def hook(counters, args, kwargs):
        size = args[2] if len(args) > 2 else kwargs.get("size")  # args[0] is the law
        draws = 1 if size is None else int(np.prod(size))
        counters["distributions.draws"] += draws
        counters[f"distributions.{cls_name}.draws"] += draws
        counters["distributions.sample.calls"] += 1

    return hook


def _select_name(args, kwargs) -> str:
    return f"policies.select_batch:{_arg(args, kwargs, 0, 'spec').name}"


def _count_select(counters, args, kwargs) -> None:
    spec, state = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "state")
    counters[f"policies.select_batch:{spec.name}.rows"] += state.n


def _count_update(counters, args, kwargs) -> None:
    counters["policies.BatchPolicyState.update.rows"] += args[0].n


def _debias_name(context):
    def name(args, kwargs) -> str:
        log, spec = _arg(args, kwargs, 0, "log"), _arg(args, kwargs, 1, "spec")
        return f"debias.debias:{log.policy.name}:{spec.kind}:{spec.B}:{log.T}:{context.get('cell', '')}"

    return name


def _debias_result(counters, args, report) -> None:
    counters["debias.b_effective"] += int(report.b_effective.sum())
    counters["debias.b_requested"] += report.B * report.K
    counters["debias.zero_pull_replays"] += int(report.zero_pull_replays.sum())


def _trace_name(args, kwargs) -> str:
    log = _arg(args, kwargs, 0, "log")
    return f"estimators.propensity_trace:{log.policy.name}:k{log.K}"


def _write_bytes(counters, args, kwargs) -> None:
    counters["harness.write_bytes"] += len(_arg(args, kwargs, 1, "text").encode())


def install(tracer: Tracer) -> None:
    """Wrap the layers of the imported ``bandit_debias`` package."""
    cli, debias, distributions, estimators, harness, policies, simulator, theory = (
        importlib.import_module(f"bandit_debias.{m}")
        for m in ("cli", "debias", "distributions", "estimators", "harness", "policies", "simulator", "theory")
    )

    context: dict = {}

    def cell_context(args, kwargs) -> str:
        context["cell"] = _arg(args, kwargs, 0, "cell").name
        return "harness._run_replication"

    rb = dict(name=_run_batch_name, on_call=_count_rounds)
    for owner in (simulator, debias, theory):
        tracer.patch(owner, "run_batch", **rb)
    for owner in (simulator, debias, theory, policies):
        tracer.patch(owner, "substream", "streams.substream")
    tracer.patch(policies, "select_batch", _select_name, on_call=_count_select)
    tracer.patch(policies.BatchPolicyState, "update", "policies.BatchPolicyState.update", on_call=_count_update)
    tracer.patch(policies, "propensity_batch", "policies.propensity_batch")
    tracer.patch(policies, "propensity", "policies.propensity")
    for cls in (distributions.Gaussian, distributions.Bernoulli, distributions.FiniteDiscrete):
        tracer.patch(cls, "sample", f"distributions.{cls.__name__}.sample", on_call=_count_draws(cls.__name__))
    tracer.patch(debias, "summarize", "simulator.summarize")
    tracer.patch(debias, "build_world", lambda a, k: f"bootstrap.build_world:{_arg(a, k, 2, 'spec').kind}")
    for owner in (cli, harness):
        tracer.patch(owner, "debias", _debias_name(context), on_result=_debias_result)
    tracer.patch(estimators, "propensity_trace", _trace_name)
    for fn in ("ipw_estimate", "aipw_estimate", "plugin_mean_trace"):
        tracer.patch(estimators, fn, f"estimators.{fn}")
    for owner in (cli, harness):
        tracer.patch(owner, "run_experiment", "simulator.run_experiment")
    tracer.patch(cli, "load_log", "simulator.load_log")
    tracer.patch(cli, "atomic_write_text", "simulator.atomic_write_text")
    tracer.patch(cli, "run_plan", "harness.run_plan")
    tracer.patch(harness, "_run_replication", cell_context)
    tracer.patch(harness, "atomic_write_text", "harness.atomic_write_text", on_call=_write_bytes)
    for fn in (
        "etc_bias_general",
        "mean_pmf",
        "bahadur_rao_constants",
        "legendre_fenchel",
        "etc_bias_sharp_asymptotic",
        "log_bias_ratio_experiment",
        "bootstrap_rate_ratio_check",
    ):
        tracer.patch(theory, fn, f"theory.{fn}")
    tracer.patch(cli, "dispatch", "cli.dispatch")


# --- per-layer metrics -----------------------------------------------------

POLICIES = ("etc", "ucb", "ts", "eg")
WORLDS = ("gaussian", "bernoulli", "discrete")
WIDTHS = (1000, 4096)
TRACES = (("ts", 2), ("eg", 2), ("ts", 4))
THEORY_ORACLES = ("etc_bias_general", "mean_pmf", "bahadur_rao_constants", "legendre_fenchel")
THEORY_EXPERIMENTS = ("log_bias_ratio_experiment", "bootstrap_rate_ratio_check")
ESTIMATORS = ("ipw_estimate", "aipw_estimate", "plugin_mean_trace")
SAMPLERS = ("Gaussian", "Bernoulli", "FiniteDiscrete")
# Grid cells on Gaussian arms; their debias calls reproduce the baseline
# "debias at B=1000, T=100 on Gaussian arms" row.
GAUSSIAN_CELL_SUFFIX = "_normal"

# (name, unit, better); BENCHMARK.json's per_layer list mirrors this one.
PER_LAYER = (
    [(f"simulator.run_batch.ns_per_round.{p}.{w}", "ns", "lower") for p in POLICIES for w in WORLDS]
    + [(f"simulator.run_batch.ns_per_round.n{n}", "ns", "lower") for n in WIDTHS]
    + [(f"policies.select_batch.ns_per_row.{p}", "ns", "lower") for p in POLICIES]
    + [("policies.BatchPolicyState.update.ns_per_row", "ns", "lower")]
    + [(f"distributions.{c}.sample.ns_per_draw", "ns", "lower") for c in SAMPLERS]
    + [
        ("distributions.sample.calls", "count", "lower"),
        ("bootstrap.build_world.us.mb", "us", "lower"),
        ("bootstrap.build_world.us.efron", "us", "lower"),
        ("simulator.load_log.ms", "ms", "lower"),
        ("cli.dispatch.self_ms", "ms", "lower"),
        ("debias.self_ms", "ms", "lower"),
        ("debias.b_effective_ratio", "ratio", "higher"),
        ("debias.zero_pull_replays", "count", "lower"),
    ]
    + [(f"debias.ms.{p}.mb.b1000_t100", "ms", "lower") for p in POLICIES]
    + [(f"estimators.propensity_trace.ms.{p}.k{k}", "ms", "lower") for p, k in TRACES]
    + [
        ("policies.propensity.calls", "count", "lower"),
        ("policies.propensity.us", "us", "lower"),
        ("policies.propensity_batch.calls", "count", "lower"),
    ]
    + [(f"estimators.{e}.us", "us", "lower") for e in ESTIMATORS]
    + [
        ("simulator.run_experiment.us", "us", "lower"),
        ("streams.substream.calls", "count", "lower"),
        ("streams.substream.us", "us", "lower"),
        ("harness.self_s", "s", "lower"),
        ("harness.parallel_efficiency", "ratio", "higher"),
        ("harness.write_bytes", "bytes", "lower"),
        ("harness.error_replication_ratio", "ratio", "lower"),
    ]
    + [(f"theory.{f}.ms", "ms", "lower") for f in THEORY_ORACLES]
    + [(f"theory.{f}.self_s", "s", "lower") for f in THEORY_EXPERIMENTS]
    + [
        ("simulator.rounds", "count", "lower"),
        ("distributions.draws", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(summary: dict, counters: Counter, harness_summary: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``summary`` and ``counters`` come from the pass that saw the worker-side
    layers; ``harness_summary`` from the pass whose harness ran at the
    workload's own worker count; ``extra`` holds values measured outside the
    spans.  A layer the workload never reached reads 0.
    """
    groups: dict[str, list] = {}
    for name, s in summary.items():
        base, *tags = name.split(":")
        groups.setdefault(base, []).append((tags, s))

    def spans(prefix):
        return groups.get(prefix, [])

    def total(prefix, keep=lambda tags: True):
        return sum(s["total_s"] for tags, s in spans(prefix) if keep(tags))

    def calls(prefix, keep=lambda tags: True):
        return sum(s["calls"] for tags, s in spans(prefix) if keep(tags))

    def own(prefix):
        return sum(s["self_s"] for _, s in spans(prefix))

    def mean(prefix, scale, keep=lambda tags: True):
        return _ratio(total(prefix, keep), calls(prefix, keep), scale)

    def rounds(keep):
        return sum(s["calls"] * int(t[2]) * int(t[3]) for t, s in spans("simulator.run_batch") if keep(t))

    out: dict[str, float] = {}
    rb = "simulator.run_batch"
    for p in POLICIES:
        for w in WORLDS:
            keep = lambda t, p=p, w=w: t[0] == p and t[1] == w
            out[f"{rb}.ns_per_round.{p}.{w}"] = _ratio(total(rb, keep), rounds(keep), 1e9)
    for n in WIDTHS:
        keep = lambda t, n=n: int(t[2]) == n
        out[f"{rb}.ns_per_round.n{n}"] = _ratio(total(rb, keep), rounds(keep), 1e9)
    for p in POLICIES:
        out[f"policies.select_batch.ns_per_row.{p}"] = _ratio(
            total("policies.select_batch", lambda t, p=p: t[0] == p),
            counters[f"policies.select_batch:{p}.rows"],
            1e9,
        )
    out["policies.BatchPolicyState.update.ns_per_row"] = _ratio(
        total("policies.BatchPolicyState.update"), counters["policies.BatchPolicyState.update.rows"], 1e9
    )
    for c in SAMPLERS:
        out[f"distributions.{c}.sample.ns_per_draw"] = _ratio(
            total(f"distributions.{c}.sample"), counters[f"distributions.{c}.draws"], 1e9
        )
    out["distributions.sample.calls"] = counters["distributions.sample.calls"]
    for kind in ("mb", "efron"):
        out[f"bootstrap.build_world.us.{kind}"] = mean("bootstrap.build_world", 1e6, lambda t, k=kind: t[0] == k)
    out["simulator.load_log.ms"] = mean("simulator.load_log", 1e3)
    out["cli.dispatch.self_ms"] = _ratio(own("cli.dispatch"), calls("cli.dispatch"), 1e3)
    out["debias.self_ms"] = _ratio(own("debias.debias"), calls("debias.debias"), 1e3)
    out["debias.b_effective_ratio"] = _ratio(counters["debias.b_effective"], counters["debias.b_requested"])
    out["debias.zero_pull_replays"] = counters["debias.zero_pull_replays"]
    for p in POLICIES:
        keep = lambda t, p=p: t[:4] == [p, "mb", "1000", "100"] and t[4].endswith(GAUSSIAN_CELL_SUFFIX)
        out[f"debias.ms.{p}.mb.b1000_t100"] = mean("debias.debias", 1e3, keep)
    for p, k in TRACES:
        keep = lambda t, p=p, k=k: t == [p, f"k{k}"]
        out[f"estimators.propensity_trace.ms.{p}.k{k}"] = mean("estimators.propensity_trace", 1e3, keep)
    out["policies.propensity.calls"] = calls("policies.propensity")
    out["policies.propensity.us"] = mean("policies.propensity", 1e6)
    out["policies.propensity_batch.calls"] = calls("policies.propensity_batch")
    for e in ESTIMATORS:
        out[f"estimators.{e}.us"] = mean(f"estimators.{e}", 1e6)
    out["simulator.run_experiment.us"] = mean("simulator.run_experiment", 1e6)
    out["streams.substream.calls"] = calls("streams.substream")
    out["streams.substream.us"] = mean("streams.substream", 1e6)
    out["harness.self_s"] = sum(s["self_s"] for name, s in harness_summary.items() if name.startswith("harness."))
    out["harness.parallel_efficiency"] = extra.get("harness.parallel_efficiency", 0.0)
    out["harness.write_bytes"] = counters["harness.write_bytes"]
    out["harness.error_replication_ratio"] = extra.get("harness.error_replication_ratio", 0.0)
    for f in THEORY_ORACLES:
        out[f"theory.{f}.ms"] = mean(f"theory.{f}", 1e3)
    for f in THEORY_EXPERIMENTS:
        out[f"theory.{f}.self_s"] = own(f"theory.{f}")
    out["simulator.rounds"] = counters["simulator.rounds"]
    out["distributions.draws"] = counters["distributions.draws"]
    out["trace.overhead_frac"] = extra["trace.overhead_frac"]
    assert list(out) == [name for name, _, _ in PER_LAYER]
    return out
