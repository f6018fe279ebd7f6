"""Suites over single runs: every workload, ``--repeat``, ``--compare``, the spec file.

Every run of a suite is a fresh ``run.py --workload ...`` process, so set-up is
from nothing each time and one workload's caches, peak RSS and CPU never leak
into the next.  ``--repeat N`` uses workload seeds ``seed, seed + 1, ...`` —
the same protocol the acceptance driver uses — so a reported spread includes
the variation between seeded inputs, not only machine noise.  The repeats go
round-robin over the workloads: the box slows by 1.3-1.6x for a minute at a
time, and run workload by workload one such minute lands on one workload's
whole set instead of on a run or two of each.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from benchmarks.e2e import harness, stats
from benchmarks.e2e.workloads import END_TO_END, WORKLOADS, benchmark_json

REPO_ROOT = harness.REPO_ROOT
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
RUN_SECONDS = 10
RUN_TIMEOUT = 180
#: Provenance fields that may differ between two comparable result files.
MAY_DIFFER = ("commit", "recorded_at")


def load_benchmark_json() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def write_benchmark_json() -> None:
    SPEC_PATH.write_text(json.dumps(benchmark_json(RUN_SECONDS), indent=2) + "\n", encoding="utf-8")


def provenance(seed: int, seconds: float, smoke: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "corpora": sorted(
            {f"{w.corpus}@{w.scale}" for w in WORKLOADS.values()}
            if not smoke else {"dblp_tiny@1.0"}
        ),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def _one_run(name: str, seed: int, seconds: float, traced: bool, smoke: bool, spans: Path | None) -> dict:
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    if smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans-out", str(spans)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{name}: run printed no result (exit {done.returncode})\n{done.stderr[-2000:]}"
        ) from None
    result["seed"] = seed
    # The table above the result line also has the figures as measured
    # (``raw.*``) and the box's speed; keep them beside the corrected ones.
    result["as_measured"] = {
        fields[1]: float(fields[2])
        for fields in (line.split() for line in lines[:-1])
        if len(fields) == 5 and fields[1].startswith(("raw.", "box."))
    }
    return result


def run_all(seed: int, seconds: float, repeat: int, smoke: bool, out: str | None) -> int:
    """Every workload: ``repeat`` untraced runs, one traced run; write the file."""
    began = time.perf_counter()
    bounds = {name: (better, bound) for name, _, better, bound in END_TO_END}
    spans_dir = None
    if out is not None:
        spans_dir = Path(out).resolve().parent
        spans_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": 1,
        "claim": None,
        "provenance": provenance(seed, seconds, smoke),
        "workloads": {},
    }
    untraced = {name: [] for name in WORKLOADS}
    for i in range(repeat):
        for name in WORKLOADS:
            untraced[name].append(_one_run(name, seed + i, seconds, False, smoke, None))
    correct = True
    for name, workload in WORKLOADS.items():
        runs = untraced[name]
        spans = None
        if spans_dir is not None:
            spans = spans_dir / f"spans_{Path(out).stem.removeprefix('BENCH_')}_{name}.jsonl"
        traced = _one_run(name, seed, seconds, True, smoke, spans)
        correct = correct and traced["correct"] and all(run["correct"] for run in runs)
        # Read off a run rather than probed here: probing compiles the kernel.
        document["provenance"]["native_available"] = bool(
            traced["metrics"]["ranking.native_available"]["value"]
        )
        end_to_end = {}
        for metric, (better, bound) in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                **stats.summarize(values),
                "unit": runs[0]["metrics"][metric]["unit"],
                "better": better,
                "bound": bound,
                "values": values,
            }
            if f"raw.{metric}" in runs[0]["as_measured"]:
                raw = [run["as_measured"][f"raw.{metric}"] for run in runs]
                end_to_end[metric]["as_measured"] = {**stats.summarize(raw), "values": raw}
        document["workloads"][name] = {
            "why": workload.why,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "box_speed": [run["as_measured"]["box.speed"] for run in runs],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    if out is not None:
        Path(out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print_summary(document)
    print(f"{'all correct' if correct else 'FAILED'} in {time.perf_counter() - began:.0f} s")
    return 0 if correct else 1


def print_summary(document: dict) -> None:
    print(
        f"\n{'workload':16} {'metric':22} {'median':>12} {'unit':6} {'spread':>7} "
        f"{'bound':>6} {'n':>3}  as measured: median, spread"
    )
    for name, entry in document["workloads"].items():
        for metric, row in entry["end_to_end"].items():
            raw = row.get("as_measured")
            print(
                f"{name:16} {metric:22} {row['median']:12.4f} {row['unit']:6} "
                f"{row['spread']:7.3f} {row['bound']:6.2f} {row['n']:3}"
                + (f"  {raw['median']:12.4f} {raw['spread']:7.3f}" if raw else "")
            )
        print(f"{name:16} failed {entry['failed']} of {entry['attempted']}")


def compare(parent_path: str, change_path: str) -> int:
    """Verdict per (metric, workload) of ``change`` against ``parent``."""
    parent = json.loads(Path(parent_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    differing = [
        key
        for key in sorted(set(parent["provenance"]) | set(change["provenance"]))
        if key not in MAY_DIFFER
        and parent["provenance"].get(key) != change["provenance"].get(key)
    ]
    if differing:
        print(f"refusing to compare: provenance differs in {', '.join(differing)}")
        return 2
    bounds = {e["name"]: (e["better"], e["bound"]) for e in load_benchmark_json()["end_to_end"]}
    worst = "ok"
    print(f"{'workload':16} {'metric':22} {'parent':>12} {'change':>12} {'worse by':>9} {'bound':>6} verdict")
    for name, entry in parent["workloads"].items():
        for metric, (better, bound) in bounds.items():
            before = entry["end_to_end"][metric]
            after = change["workloads"][name]["end_to_end"][metric]
            outcome = stats.verdict(before["values"], after["values"], better, bound)
            worse = stats.worsening(before["median"], after["median"], better)
            print(
                f"{name:16} {metric:22} {before['median']:12.4f} {after['median']:12.4f} "
                f"{worse:+9.3f} {bound:6.2f} {outcome}"
            )
            if outcome == "regressed" or (outcome == "unresolved" and worst == "ok"):
                worst = outcome
        if change["workloads"][name]["failed"] > entry["failed"]:
            print(f"{name:16} more operations failed than at the parent")
            worst = "regressed"
    print(f"overall: {worst}")
    return 0 if worst == "ok" else 1
