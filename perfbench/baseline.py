"""Re-measure the baseline table of ROADMAP.md from traced runs.

    python3 perfbench/baseline.py --seed 1 > perfbench/BASELINE.md

Runs the traced pass of debias-replay, plan-propensity and acceptance-grid
and prints a markdown table of:

* debias at B=1000, T=100 with mb, per policy, from the acceptance-grid
  replications on Gaussian arms (traced workers=1 pass);
* ``run_batch`` cost per experiment-round at widths 1000 (acceptance-grid
  replays) and 4096 (debias-replay chunks);
* ``propensity_trace`` for TS and EG at K=2 against TS at K=4.

Traced numbers include the wrappers' own cost; each run's
``trace.overhead_frac`` is printed with them.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

import run
import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = ("debias-replay", "plan-propensity", "acceptance-grid")
    m = {}
    with contextlib.redirect_stdout(sys.stderr):
        for w in workloads:
            result = run.run(w, args.seed, seconds=0.0, trace=True)
            m[w] = {k: v["value"] for k, v in result["metrics"].items()}
        info = run.machine_info()
    grid, replay, prop = m["acceptance-grid"], m["debias-replay"], m["plan-propensity"]
    print("# Baseline re-measured from the traced benchmark runs\n")
    print("Counterpart of the baseline table in ROADMAP.md (there: debias 10/15/22/16 ms, run_batch 86-155 "
          "ns/round for UCB, propensity_trace 5 ms vs 274 ms). Regenerate with `python3 perfbench/baseline.py "
          "--seed 1 > perfbench/BASELINE.md`; traced numbers include the wrappers' cost.\n")
    print(f"Measured with `perfbench/baseline.py --seed {args.seed}` (traced runs) on {info['nproc']} x "
          f"{info['cpu']}, Python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
          f"start method {info['start_method']}, commit {info['git_commit']}.\n")
    print("| Path | " + " | ".join(p.upper() for p in tracing.POLICIES) + " |")
    print("|---|" + "---|" * len(tracing.POLICIES))
    row = " | ".join(f"{grid[f'debias.ms.{p}.mb.b1000_t100']:.1f} ms" for p in tracing.POLICIES)
    print(f"| debias, mb, B=1000, T=100, Gaussian arms | {row} |\n")
    print("| Path | Value |")
    print("|---|---|")
    print(f"| run_batch, width 1000 (acceptance-grid) | {grid['simulator.run_batch.ns_per_round.n1000']:.0f} ns/round |")
    print(f"| run_batch, width 4096 (debias-replay) | {replay['simulator.run_batch.ns_per_round.n4096']:.0f} ns/round |")
    for p, k in tracing.TRACES:
        print(f"| propensity_trace, {p.upper()}, K={k}, T=100 | {prop[f'estimators.propensity_trace.ms.{p}.k{k}']:.1f} ms |")
    overhead = ", ".join(f"{w} {m[w]['trace.overhead_frac']:+.0%}" for w in workloads)
    print(f"\nTrace overhead (traced pass over untraced pass): {overhead}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
