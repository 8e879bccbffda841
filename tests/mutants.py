"""Semantic mutants of the package, each with the tests that must kill it.

pytest does not collect this file (its name has no ``test_`` prefix).  A
mutant is one exact replacement in one file of ``src/bandit_debias``, whose
old text occurs there exactly once; ``tests/test_mutants_apply.py`` checks
that in every tier-1 run, so the list cannot rot silently.  Run the matrix
from the repository root:

    python tests/mutants.py [--scratch DIR] [NAME ...]

Each mutant (all of them, or those named) gets a fresh copy of ``src/``,
``tests/`` and ``pyproject.toml`` in a temporary directory under ``DIR``
(the system default if not given), its replacement, and one pytest run of
its tests there.  The script prints a kill table in Markdown: a mutant is
killed when pytest reports failing tests (exit code 1), and survives when
they all pass.  It exits 1 if any mutant was not killed.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str  # a slug, for the command line and test ids
    path: str  # from the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, from the repository root


MUTANTS = (
    Mutant("reduce-sign", "src/bandit_debias/debias.py",
           "estimated_bias = total.means - raw", "estimated_bias = raw - total.means",
           ("tests/test_debias.py", "tests/test_replay_oracle.py")),
    Mutant("etc-argmin", "src/bandit_debias/simulator.py",
           "committed = policies._argmax_rows(sums / m)", "committed = policies._argmax_rows(-sums / m)",
           ("tests/test_simulator.py", "tests/test_replay_oracle.py")),
    Mutant("efron-offset-minus-1", "src/bandit_debias/simulator.py",
           "self.values.take(offsets + (", "self.values.take(offsets - 1 + (",
           ("tests/test_simulator.py", "tests/test_replay_oracle.py")),
    Mutant("mean-count-plus-1", "src/bandit_debias/simulator.py",
           "self.sums / np.maximum(self.counts, 1)", "self.sums / (self.counts + 1)",
           ("tests/test_simulator.py", "tests/test_replay_oracle.py")),
    Mutant("efron-sum-last-round", "src/bandit_debias/simulator.py",
           "sums += self.values.take(", "sums = self.values.take(",
           ("tests/test_simulator.py", "tests/test_replay_oracle.py")),
    Mutant("repeated-key-kept", "src/bandit_debias/policies.py",
           '        if key in out:\n            raise RecordError(f"a JSON object repeats the key {key!r}")\n', "",
           ("tests/test_cli.py",)),
    Mutant("arms-bom", "src/bandit_debias/cli.py",
           'open(path, encoding="utf-8-sig")', 'open(path, encoding="utf-8")',
           ("tests/test_cli.py",)),
)


def run(mutant: Mutant, scratch) -> tuple[str, str]:
    """(verdict, pytest's last line) of ``mutant``'s tests on a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-", dir=scratch) as tmp:
        for part in COPIED:
            source, dest = ROOT / part, Path(tmp, part)
            if source.is_dir():
                shutil.copytree(source, dest, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, dest)
        target = Path(tmp, mutant.path)
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "does not apply", f"{mutant.old!r} occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=tmp, env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))},
                              capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or ["(no output)"])[-1].strip("= ")
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return verdict, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--scratch", default=None, help="directory for the per-mutant copies")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {sorted(unknown)}")
    print("| mutant | file | tests | verdict | pytest |")
    print("|---|---|---|---|---|")
    all_killed = True
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        verdict, last = run(mutant, args.scratch)
        all_killed &= verdict == "killed"
        tests = ", ".join(Path(t).name for t in mutant.tests)
        print(f"| {mutant.name} | {Path(mutant.path).name} | {tests} | {verdict} | {last} |", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main())
