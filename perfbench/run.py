"""Benchmark of the bandit-debias package, driven from outside it.

    python3 perfbench/run.py --workload debias-replay --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout.  The workload's inputs are generated from ``--seed``;
passes over its fixed command list repeat until ``--seconds`` would be
exceeded (at least one).  Outputs are checked after timing.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time for
a fresh interpreter to import ``bandit_debias.cli``), ``pass_s`` (median
seconds of command time per pass) and ``peak_rss_mib`` (largest resident
set of the benchmark process and its children).  Both times are rescaled
by a fixed reference job run around them (``workloads.REF_SECONDS``).
``--trace 1`` adds a pass with every layer wrapped (see ``tracing.py``)
and prints the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (output checks) and ``metrics``.  The lines
before it list the workload's own metrics by name, the output digest and
every failed check.  A full report, and for traced runs the spans, go to
``perfbench/results/``.  ``--smoke`` shrinks every input for a quick run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import REF_SECONDS, WORKLOADS, Checks, Workload, time_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_SAMPLES = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds for fresh interpreters to import the CLI module, each
    rescaled by the reference job run before and after it."""
    times = []
    before = time_reference()
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bandit_debias.cli"], env=_child_env(), cwd=ROOT, check=True)
        wall = time.perf_counter() - start
        after = time_reference()
        times.append(wall * 2 * REF_SECONDS / (before + after))
        before = after
    return times


def machine_info() -> dict:
    import multiprocessing

    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_passes(wl: Workload, work: Path, seconds: float) -> list:
    """Whole passes until another one would overrun the time budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run(work / f"pass{len(passes)}"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def traced_pass(wl: Workload, out: Path, workers: int | None = None):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        p = wl.run(out, workers)
    finally:
        tracer.unpatch_all()
    return p, tracer


def per_layer(wl: Workload, work: Path, untraced: list, checks: Checks) -> tuple[dict, list]:
    """Traced pass(es) and the per-layer metrics drawn from them.

    At workers > 1 the spans of pool workers are lost, so the harness's
    parent side comes from the pass at the workload's worker count and
    every other layer from a second traced pass at workers=1.
    """
    p, tracer = traced_pass(wl, work / "traced")
    checks.add("trace.outputs_unchanged", p.digest() == untraced[0].digest())
    base = statistics.median(u.busy for u in untraced)
    extra = {"trace.overhead_frac": p.busy / base - 1.0}
    dumps = [tracer.dump(f"workers={wl.workers}")]
    harness_summary = summary = tracer.summary()
    counters = tracer.counters
    if wl.workers > 1:
        p1, tracer1 = traced_pass(wl, work / "traced-w1", workers=1)
        checks.add("trace.workers_1_outputs_identical", p1.digest() == p.digest())
        extra["harness.parallel_efficiency"] = p1.busy / (wl.workers * p.busy)
        dumps.append(tracer1.dump("workers=1"))
        summary, counters = tracer1.summary(), tracer1.counters
    # Error counts come from the written summaries, which pool workers
    # cannot hide.
    extra["harness.error_replication_ratio"] = wl.extra.get("harness.error_replication_ratio", 0.0)
    return tracing.layer_metrics(summary, counters, harness_summary, extra), dumps


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, results: Path = RESULTS) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bandit_debias.cli  # noqa: F401  (the traced and untraced passes dispatch through it)

    setup = measure_setup(1 if smoke else SETUP_SAMPLES)
    checks = Checks()
    work = results / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](work, seed, smoke, checks)
        wl.prepare()
        # A traced run needs one untraced pass, as the base for the overhead.
        passes = timed_passes(wl, work, 0.0 if trace else seconds)
        wl.check_passes(passes)
        report = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "smoke": smoke,
            "machine": machine_info(),
            "setup_s": setup,
            "passes": [{"parts": p.parts, "references_s": p.refs} for p in passes],
            "digest": passes[0].digest(),
        }
        if trace:
            metrics, dumps = per_layer(wl, work, passes, checks)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            tracing.write_spans(str(results / f"{workload}-seed{seed}.spans.json.gz"), dumps)
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "pass_s": statistics.median(p.busy * p.scale for p in passes),
                "peak_rss_mib": peak_rss_mib(),
            }
            units = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}
        named = {**wl.named(passes), "setup_s": (statistics.median(setup), "s")}
        named["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        named["failed_frac"] = (checks.failed / checks.attempted, "ratio")
        report.update(named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                      extra=wl.extra, checks=checks.items, metrics=metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in report["named"].items():
        print(f"{workload}  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    raw = statistics.median(p.busy for p in passes)
    print(f"{workload}  times above are rescaled to a {REF_SECONDS} s reference job; raw pass_s {raw:.6g} s")
    print(f"{workload}  output digest {report['digest']}")
    for c in checks.items:
        if not c["ok"]:
            print(f"{workload}  FAILED CHECK {c['name']} {c['detail']}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one setup sample")
    args = parser.parse_args(argv)
    if not (SRC / "bandit_debias" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
