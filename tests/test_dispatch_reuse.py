"""One command-line parser per process.

``cli.dispatch`` builds its parser on the first call and reuses it on every
later call in the same process.  So importing the CLI builds nothing, and a
caller that dispatches many commands in one process (a benchmark loop, this
test suite) pays for one parser.  Reuse must not leak state from one
command into the next: each command gives the exit code, stderr and output
bytes of a fresh interpreter running the same argv.  Each check runs in a
fresh interpreter, since this test session has built the parser already.
"""
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "100"}

# Record the prog of every parser built: the top-level one, then one per command.
_COUNT_PARSERS = """
import argparse
built = []
_init = argparse.ArgumentParser.__init__
def _counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    _init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = _counting_init
"""


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=ENV, capture_output=True, text=True)


def test_import_builds_no_parser(tmp_path):
    out = _python(_COUNT_PARSERS + "import json, bandit_debias.cli\nprint(json.dumps(built))", tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


def _inputs(where: Path) -> None:
    """An arms file and a log whose third reward is not a number."""
    where.mkdir()
    (where / "arms.json").write_text(json.dumps([{"type": "bernoulli", "p": 0.3}, {"type": "bernoulli", "p": 0.6}]))
    (where / "bad.csv").write_text("t,arm,reward\n1,1,0.0\n2,2,1.0\n3,1,zero\n4,2,1.0\n")
    (where / "bad.csv.meta.json").write_text(json.dumps({"K": 2, "T": 4, "policy": {"name": "ucb"}}))


ARGVS = [
    ["simulate", "--policy", "ucb", "--K", "2", "--T", "10", "--arms", "arms.json", "--seed", "1", "--out", "x.csv",
     "--bogus"],
    ["--help"],
    ["debias", "--log", "bad.csv", "--meta", "bad.csv.meta.json", "--B", "10", "--seed", "1", "--out", "bad.json"],
    *(["theory", "--arms", "arms.json", "--m", "5", "--T", "20", "--out", f"theory{i}.json"] for i in (1, 2)),
    *(["simulate", "--policy", "ts", "--K", "2", "--T", "50", "--arms", "arms.json", "--seed", str(i),
       "--out", f"log{i}.csv"] for i in (1, 2)),
    *(["debias", "--log", "log1.csv", "--meta", "log1.csv.meta.json", "--bootstrap", kind, "--B", "300",
       "--seed", "4", "--out", f"report_{kind}.json"] for kind in ("mb", "efron")),
]


def test_reused_parser_matches_fresh_interpreters(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    _inputs(reused)
    shutil.copytree(reused, fresh)
    out = _python(_COUNT_PARSERS + textwrap.dedent(f"""
        import contextlib, io, json
        from bandit_debias.cli import dispatch
        runs = []
        for argv in {ARGVS!r}:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = dispatch(argv)
            runs.append([rc, stdout.getvalue(), stderr.getvalue()])
        print(json.dumps({{"built": built, "runs": runs}}))
    """), reused)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    built = result["built"]
    assert built[0] == "bandit-debias" and len(built) == len(set(built)) == 6, built  # each built once
    for argv, (rc, stdout, stderr) in zip(ARGVS, result["runs"]):
        ref = subprocess.run([sys.executable, "-m", "bandit_debias.cli", *argv], cwd=fresh, env=ENV,
                             capture_output=True, text=True)
        assert [rc, stdout, stderr] == [ref.returncode, ref.stdout, ref.stderr], argv
    assert [rc for rc, _, _ in result["runs"]] == [1, 0, 2] + [0] * 6
    names = sorted(p.name for p in reused.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert all((reused / n).read_bytes() == (fresh / n).read_bytes() for n in names)
