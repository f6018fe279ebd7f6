"""One real run per mode on ``dblp_tiny``: the result line obeys the contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.workloads import END_TO_END, PER_LAYER

RUN = Path(__file__).resolve().parents[1] / "run.py"


@pytest.mark.parametrize(
    "workload, traced, registry",
    [("ingest_mixed", 0, END_TO_END), ("serve_hot", 1, PER_LAYER)],
)
def test_result_line_lists_every_metric(workload, traced, registry):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(traced), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in registry}
    units = {name: unit for name, unit, *_ in registry}
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    if not traced:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
