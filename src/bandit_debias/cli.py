"""Command-line interface: simulate / debias / evaluate / theory / plan.

Exit codes: 0 success, 1 usage or validation error, 2 data or numeric
error.  Every command that consumes randomness requires an explicit
``--seed``; there is no wall-clock fallback.  Output files are written
atomically (temp file plus rename).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import distributions as dist
from . import estimators as est
from . import policies, theory
from .bootstrap import BootstrapSpec, ZeroCountArm
from .debias import debias
from .harness import ExperimentPlan, run_plan
from .simulator import CorruptLog, atomic_write_text, load_log, run_experiment, save_log

_DATA_ERRORS = (
    CorruptLog,
    ZeroCountArm,
    est.DivisionHazard,
    theory.OutOfRange,
    theory.LogOfZero,
    theory.EnumerationTooLarge,
    ArithmeticError,
)


def _workers(args) -> int:
    """--workers, else BANDIT_DEBIAS_WORKERS, else 1; below 1 is a usage error."""
    if args.workers is not None:
        workers, source = args.workers, "--workers"
    else:
        workers, source = int(os.environ.get("BANDIT_DEBIAS_WORKERS", "1")), "BANDIT_DEBIAS_WORKERS"
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bandit-debias")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one bandit experiment and write its log")
    p.add_argument("--policy", required=True, choices=["etc", "ucb", "ts", "eg"])
    p.add_argument("--m", type=int, help="ETC exploration pulls per arm")
    p.add_argument("--epsilon", type=float, help="epsilon-greedy exploration rate")
    p.add_argument("--prior-mean", type=float, default=0.0)
    p.add_argument("--prior-variance", type=float, default=1.0)
    p.add_argument("--likelihood-variance", type=float, default=1.0)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--arms", required=True, help="JSON file: list of reward distributions")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="log CSV path; sidecar goes to <out>.meta.json")

    p = sub.add_parser("debias", help="bootstrap bias correction of a logged experiment")
    p.add_argument("--log", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--bootstrap", default="mb", choices=["mb", "efron"])
    p.add_argument("--B", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="sample-mean / IPW / AIPW estimates from a log")
    p.add_argument("--log", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--estimators", default="mean,ipw,aipw")
    p.add_argument("--out", required=True)

    p = sub.add_parser("theory", help="large-deviation profile and ETC bias oracles")
    p.add_argument("--arms", required=True, help="JSON file: one or two reward distributions")
    p.add_argument("--mu2", type=float, help="threshold; defaults to the second arm's mean")
    p.add_argument("--m", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("plan", help="run a replicated experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--seed", type=int, required=True, help="master seed; overrides the plan file")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    return parser


def _policy_from_args(args) -> policies.PolicySpec:
    if args.policy == "etc":
        if args.m is None:
            raise ValueError("--m is required for the etc policy")
        return policies.EtcSpec(args.m)
    if args.policy == "ucb":
        return policies.UcbSpec()
    if args.policy == "ts":
        return policies.TsSpec(args.prior_mean, args.prior_variance, args.likelihood_variance)
    if args.epsilon is None:
        raise ValueError("--epsilon is required for the eg policy")
    return policies.EgSpec(args.epsilon)


def _load_arms(path: str) -> list:
    with open(path) as f:
        spec = json.load(f)
    if not isinstance(spec, list):
        raise ValueError("arms file must hold a JSON list of distributions")
    return [dist.from_dict(a) for a in spec]


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _cmd_simulate(args) -> int:
    arms = _load_arms(args.arms)
    policy = _policy_from_args(args)
    log = run_experiment(args.K, args.T, policy, arms, seed=args.seed)
    save_log(log, args.out)
    return 0


def _cmd_debias(args) -> int:
    workers = _workers(args)
    log = load_log(args.log, args.meta)
    spec = BootstrapSpec(args.bootstrap, args.B)
    report = debias(log, spec, seed=args.seed, workers=workers)
    _write_json(args.out, report.to_dict())
    return 0


def _cmd_evaluate(args) -> int:
    log = load_log(args.log, args.meta)
    names = tuple(n.strip() for n in args.estimators.split(",") if n.strip())
    unknown = set(names) - set(est.NAMES)
    if unknown:
        raise ValueError(f"unknown estimator(s): {sorted(unknown)}")
    _write_json(args.out, est.evaluate(log, names))
    return 0


def _cmd_theory(args) -> int:
    if (args.m is None) != (args.T is None):
        raise ValueError("--m and --T go together: give both or neither")
    arms = _load_arms(args.arms)
    mu2 = args.mu2 if args.mu2 is not None else (arms[1].mean() if len(arms) > 1 else None)
    if mu2 is None:
        raise ValueError("--mu2 is required when the arms file has a single distribution")
    payload: dict = {"profile": theory.bahadur_rao_constants(arms[0], mu2).to_dict()}
    if args.m is not None:
        payload["bias_asymptotic"] = theory.etc_bias_sharp_asymptotic(arms[0], mu2, args.m, args.T)
        if len(arms) > 1:
            payload["bias_exact"] = {
                f"arm{k}": theory.etc_bias_general(arms[:2], args.m, args.T, k) for k in (1, 2)
            }
    _write_json(args.out, payload)
    return 0


def _cmd_plan(args) -> int:
    workers = _workers(args)
    with open(args.plan) as f:
        raw = json.load(f)
    raw["master_seed"] = args.seed
    plan = ExperimentPlan.from_dict(raw)
    run_plan(plan, workers=workers, out_dir=args.out_dir)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "debias": _cmd_debias,
    "evaluate": _cmd_evaluate,
    "theory": _cmd_theory,
    "plan": _cmd_plan,
}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
