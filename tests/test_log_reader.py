"""The streaming log reader against the ``csv.DictReader`` reader it replaced.

``dictreader_columns`` is that earlier reader, kept here as the reference:
it read every row into a dict, then checked the header, the field counts and
the columns.  On every CSV text that it accepts, ``load_log`` must return the
same arrays, and on every text that it refuses with ``CorruptLog``, raise
the same message.  The sidecar declares Thompson sampling, which can produce
any arm sequence, so the policy check never decides the outcome.  The one
text that the reference refuses otherwise, the empty file, is a missing
header to ``load_log``.  One text is newly accepted, and checked apart: a
log whose header follows one byte-order mark.
"""
import csv
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandit_debias.cli import dispatch
from bandit_debias.distributions import Bernoulli
from bandit_debias.policies import TsSpec
from bandit_debias.simulator import CorruptLog, load_log, meta_path_for, run_experiment, save_log

COLUMNS = ("t", "arm", "reward")
SRC = Path(__file__).resolve().parents[1] / "src"


def _dict_column(rows: list, name: str, kind: type, dtype) -> np.ndarray:
    out = np.empty(len(rows), dtype=dtype)
    try:
        for i, row in enumerate(rows):
            out[i] = kind(row[name])
    except (ValueError, OverflowError) as exc:
        raise CorruptLog(f"data row {i + 1} has an unparsable {name!r} field: {exc}") from None
    return out


def dictreader_columns(csv_path: str, K: int, T: int) -> tuple:
    """(actions, rewards) of a log CSV as the ``csv.DictReader`` reader read them, or its CorruptLog."""
    with open(csv_path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    header = reader.fieldnames or []
    missing = sorted({"t", "arm", "reward"} - set(header))
    if missing:
        raise CorruptLog(f"missing column(s) {missing}")
    if len(header) != 3:
        raise CorruptLog(f"columns {header} are not exactly t, arm, reward")
    # csv.DictReader files a long row's extra fields under None and fills a short row with None.
    bad = next((i for i, row in enumerate(rows) if None in row or None in row.values()), None)
    if bad is not None:
        raise CorruptLog(f"data row {bad + 1} has {'more' if None in rows[bad] else 'fewer'} than 3 fields")
    if len(rows) != T:
        raise CorruptLog(f"expected {T} rows, got {len(rows)}")
    t = _dict_column(rows, "t", int, np.int64) - 1
    hits = np.bincount(t[(t >= 0) & (t < T)], minlength=T)
    if np.any(hits != 1):
        raise CorruptLog(f"rounds are not 1..{T} once each: round {np.argmin(hits) + 1} is missing")
    actions = np.empty(T, dtype=np.int64)
    rewards = np.empty(T)
    actions[t] = _dict_column(rows, "arm", int, np.int64) - 1
    rewards[t] = _dict_column(rows, "reward", float, np.float64)
    bad_arm = np.flatnonzero((actions < 0) | (actions >= K))
    if bad_arm.size:
        raise CorruptLog(f"arm {actions[bad_arm[0]] + 1} at round {bad_arm[0] + 1} is outside 1..{K}")
    nonfinite = np.flatnonzero(~np.isfinite(rewards))
    if nonfinite.size:
        raise CorruptLog(f"non-finite reward at round {nonfinite[0] + 1}")
    return actions, rewards


GARBAGE = st.one_of(
    st.integers(-2, 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " 1", "1.5", "x", "nan", "-Infinity", "1e999", "0x1", "1_0", "99999999999999999999", "a,b",
                     '"']),
)


@st.composite
def log_files(draw) -> tuple:
    """(K, T, CSV text): a valid log's rows under a drawn header, then up to three edits."""
    K, T = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    header = list(draw(st.permutations(COLUMNS)))
    kind = draw(st.sampled_from(["valid"] * 4 + ["extra", "any"]))
    if kind == "extra":
        header.insert(draw(st.integers(0, 3)), draw(st.sampled_from(["note", "", "t"])))
    elif kind == "any":
        header = draw(st.lists(st.sampled_from(COLUMNS + ("note", "", " t", "T")), max_size=4))
    rows = []
    for t in draw(st.permutations(range(1, T + 1))):
        fields = {"t": str(t), "arm": str(draw(st.integers(1, K))), "reward": repr(draw(st.floats(-1e3, 1e3)))}
        rows.append([fields.get(name, "0") for name in header])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["garbage", "reward", "fields", "blank", "drop", "copy"]))
        if edit == "blank":
            rows.insert(i, draw(st.sampled_from([[], [""], [" "]])))
        elif i == len(rows):
            continue
        elif edit == "garbage" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(GARBAGE)
        elif edit == "reward" and "reward" in header[:len(rows[i])]:
            rows[i][header.index("reward")] = draw(st.sampled_from(["nan", "-Infinity", "1e999", " 1 ", "1e-999"]))
        elif edit == "fields":
            rows[i] = (rows[i] + ["9", "9", "9", "9"])[:draw(st.integers(1, 4))]
        elif edit == "drop":
            del rows[i]
        elif edit == "copy":
            rows.insert(i, list(rows[i]))
    quote = draw(st.sampled_from(["never", "always", "some"]))

    def field(text: str) -> str:
        if quote == "always" or (quote == "some" and draw(st.booleans())):
            return '"' + text.replace('"', '""') + '"'
        return text

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(map(field, fields)) for fields in [header] + rows]
    return K, T, newline.join(lines) + (newline if draw(st.booleans()) else "")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=log_files())
def test_streaming_reader_matches_the_dictreader(case):
    K, T, text = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "log.csv")
        path.write_bytes(text.encode())
        Path(d, "log.csv.meta.json").write_text(json.dumps({"K": K, "T": T, "policy": {"name": "ts"}}))
        try:
            expected = dictreader_columns(str(path), K, T)
        except CorruptLog as exc:
            expected = f"CorruptLog: {exc}"
        except ValueError:  # an empty file: the reference reads its header after closing it
            assert text == ""
            expected = "CorruptLog: missing column(s) ['arm', 'reward', 't']"
        try:
            log = load_log(str(path), f"{path}.meta.json")
            got = log.actions, log.rewards
        except CorruptLog as exc:
            got = f"CorruptLog: {exc}"
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]


def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path):
    """A spreadsheet's UTF-8 export starts with U+FEFF: the log loads, and ``debias`` reports, as without it."""
    plain = tmp_path / "plain.csv"
    save_log(run_experiment(2, 20, TsSpec(), [Bernoulli(0.3), Bernoulli(0.6)], seed=3), str(plain))
    marked, twice = tmp_path / "marked.csv", tmp_path / "twice.csv"
    marked.write_bytes("\ufeff".encode() + plain.read_bytes())
    twice.write_bytes("\ufeff".encode() + marked.read_bytes())
    meta = meta_path_for(str(plain))
    assert pickle.dumps(load_log(str(marked), meta)) == pickle.dumps(load_log(str(plain), meta))
    with pytest.raises(CorruptLog, match=r"missing column\(s\) \['t'\]"):
        load_log(str(twice), meta)  # only one mark is dropped
    reports = []
    for path in (plain, marked):
        out = tmp_path / f"{path.stem}.json"
        argv = ["debias", "--log", str(path), "--meta", meta, "--bootstrap", "efron", "--B", "200", "--seed", "4"]
        assert dispatch([*argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_a_marked_log_loads_under_the_c_locale(tmp_path):
    """A log is UTF-8 whatever the locale: under C, with no UTF-8 mode, ``debias`` reads a marked
    log as under a UTF-8 locale, and a second mark is still a missing column (exit 2)."""
    plain = tmp_path / "plain.csv"
    save_log(run_experiment(2, 20, TsSpec(), [Bernoulli(0.3), Bernoulli(0.6)], seed=3), str(plain))
    marked, twice = tmp_path / "marked.csv", tmp_path / "twice.csv"
    marked.write_bytes("\ufeff".encode() + plain.read_bytes())
    twice.write_bytes("\ufeff".encode() + marked.read_bytes())
    meta = meta_path_for(str(plain))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(SRC)}
    runs = {}
    for path in (plain, marked, twice):
        argv = ["debias", "--log", str(path), "--meta", meta, "--bootstrap", "efron", "--B", "200", "--seed", "4",
                "--out", str(tmp_path / f"{path.stem}.json")]
        runs[path.stem] = subprocess.run([sys.executable, "-m", "bandit_debias.cli", *argv], env=env,
                                         capture_output=True, text=True)
    assert [runs[name].returncode for name in ("plain", "marked", "twice")] == [0, 0, 2], runs["marked"].stderr
    assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert "missing column(s) ['t']" in runs["twice"].stderr
