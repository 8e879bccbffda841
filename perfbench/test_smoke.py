"""Smoke test of the benchmark: every workload, both modes, tiny inputs.

Checks the printed result against the contract in BENCHMARK.json, so the
benchmark fails here first when the package's CLI or outputs change.
"""
import json
import math
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _, _ in run.tracing.PER_LAYER]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    result = run.run(workload, seed=1, seconds=0.1, trace=bool(trace), smoke=True, results=tmp_path)
    json.dumps(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
