"""BENCHMARK.json and the metric registry obey the benchmark contract."""

import json
import re

from benchmarks.e2e import suite
from benchmarks.e2e.workloads import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_committed_spec_is_the_generated_one():
    assert suite.load_benchmark_json() == benchmark_json(suite.RUN_SECONDS)


def test_names_units_and_limits():
    spec = benchmark_json(suite.RUN_SECONDS)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    assert len(json.dumps(spec)) < 64 * 1024


def test_bounds():
    bounds = {name: (unit, better, bound) for name, unit, better, bound in END_TO_END}
    assert bounds["setup_s"][:2] == ("s", "lower")
    assert all(0 < bound <= 0.25 for _, _, bound in bounds.values())
    assert bounds["setup_s"][2] == max(bound for _, _, bound in bounds.values())
    assert all(better in ("lower", "higher") for _, _, better in PER_LAYER)


def test_every_workload_records_why_and_designed_shares():
    for workload in WORKLOADS.values():
        assert workload.why
        assert abs(sum(workload.kind_shares.values()) - 1.0) < 1e-9
        assert workload.shape in ("search", "session", "ingest")
        assert workload.clients <= 2


def test_server_flags_render_from_the_serve_config():
    assert WORKLOADS["ingest_mixed"].server_flags() == [
        "--ingest", "--staleness-bound", "1000000",
    ]
    flags = WORKLOADS["serve_two_stage"].server_flags()
    assert flags[:2] == ["--candidates", "200"] and "--rerank-max-horizon" in flags
    assert WORKLOADS["serve_hot"].server_flags() == []
