"""Command line of the end-to-end benchmark.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 11 --seconds 10 --trace 0

prints every metric with its unit and sample count, then one JSON object as
the last line.  ``--trace 1`` is the traced run (per-layer metrics).  Without
``--workload`` it runs every workload, each run a fresh process::

    python3 benchmarks/e2e/run.py [--repeat N] [--out FILE]   # = python -m benchmarks.e2e
    python3 benchmarks/e2e/run.py --smoke                     # dblp_tiny, ~30 s
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):  # script mode: make `benchmarks.e2e` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import harness, stats, suite, trace  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Workload,
    distinct_queries,
    generate_ops,
    term_pools,
)

from repro.ranking import _native  # noqa: E402

#: Share of a traced run's ``--seconds`` spent on the HTTP phase; the rest
#: bounds the in-process replay.
TRACE_HTTP_SHARE = 0.4
HIT_SHARE_RANGE = (0.65, 0.85)
INGEST_PROBES = 12


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool, spans_out: str | None
) -> dict:
    """One run: set up, warm up, measure, verify; returns the result object."""
    workdir = harness.make_workdir()
    meter = harness.Speedometer()
    server = None
    try:
        corpus = harness.build_corpus(workload, workdir, meter)
        ops = generate_ops(workload, corpus, seed, seconds)
        pools = term_pools(corpus.engine.index)
        # Set-up as measured, and with each step at the reference box's speed.
        ready, ready_speeds = [], []
        for _ in range(workload.setup_repeats):
            if server is not None:
                server.stop()
            meter.lap()
            server = harness.Server(workload, corpus, workdir)
            server.start(pools["topical"][0])
            ready.append(server.ready_seconds)
            ready_speeds.append(meter.lap())
        deploy = corpus.stages if workload.store else {}
        setup_seconds = sum(deploy.values()) + statistics.median(ready)
        setup_reference = sum(
            took * corpus.speeds[stage] for stage, took in deploy.items()
        ) + statistics.median(took * speed for took, speed in zip(ready, ready_speeds))

        warm = harness.run_phase(workload, corpus.name, server.port, ops[: workload.warmup])
        if any(sample.status != 200 for sample in warm.samples):
            raise harness.HarnessError(f"warm-up failed\n{server.stderr_tail()}")
        scraper = harness.Client(server.port)
        counters_before = server.metrics(scraper)
        phase = harness.run_measured(
            workload, corpus.name, server, ops,
            seconds * TRACE_HTTP_SHARE if traced else seconds, meter,
        )
        samples, done = phase.samples, phase.ops
        counters = {
            name: value - counters_before.get(name, 0.0)
            for name, value in server.metrics(scraper).items()
        }
        scraper.close()
        peak_rss = server.peak_rss_mb()

        primary = [s for s in samples if s.role == "primary" and s.status == 200]
        if not primary:
            raise harness.HarnessError("no operation completed in the measured phase")
        problems = [
            f"op {s.op}: status {s.status}" for s in samples if s.status != 200
        ]
        problems += verify(workload, corpus, ops, samples, done, server.port, seed)
        failed = len(problems)
        attempted = len(samples) + (INGEST_PROBES if workload.shape == "ingest" else 0)
        if not smoke:
            problems += design_checks(workload, ops, primary, done)

        speed = (statistics.median(phase.speeds), len(phase.speeds))
        if traced:
            metrics = per_layer(
                workload, corpus, server, ops, primary, counters,
                seconds * (1.0 - TRACE_HTTP_SHARE), spans_out,
            )
            metrics["box.speed"] = speed
        else:
            # As measured, then at the reference box's speed: each step of
            # set-up and each segment of the measured phase is multiplied by
            # how fast the box was while it ran.
            count = len(samples)
            metrics = {
                "raw.setup_s": (setup_seconds, len(ready)),
                "raw.latency_p50_ms": (
                    stats.percentile([s.seconds * 1e3 for s in primary], 50), len(primary)
                ),
                "raw.throughput_rps": (count / phase.seconds, count),
                "raw.server_cpu_ms_per_op": (phase.cpu_seconds * 1e3 / count, count),
                "box.speed": speed,
                "setup_s": (setup_reference, len(ready)),
                "latency_p50_ms": (
                    stats.percentile([s.seconds * s.speed * 1e3 for s in primary], 50),
                    len(primary),
                ),
                "throughput_rps": (count / phase.reference_seconds, count),
                "server_cpu_ms_per_op": (phase.reference_cpu_seconds * 1e3 / count, count),
                "peak_rss_mb": (peak_rss, 1),
            }
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    for name, (value, count) in metrics.items():
        unit = units[name.removeprefix("raw.")]
        print(f"{workload.name:16} {name:34} {value:14.4f} {unit:6} n={count}")
    for problem in problems[:20]:
        print(f"{workload.name:16} PROBLEM {problem}")
    reported = {name for name, *_ in (PER_LAYER if traced else END_TO_END)}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in metrics.items()
            if name in reported
        },
    }


def verify(workload, corpus, ops, samples, done, port, seed) -> list[str]:
    """Compare the sampled answers with the in-process oracle."""
    if workload.shape == "ingest":
        probes = distinct_queries(
            term_pools(corpus.engine.index), {"topical": 1.0}, INGEST_PROBES,
            random.Random(f"probes:{seed}"),
        )
        applied = ops[: workload.warmup + done]
        return harness.verify_ingest(
            workload, corpus, applied, port, [query.text for query in probes]
        )
    oracle = harness.Oracle(workload, corpus)
    problems = []
    for sample in samples:
        if sample.payload is not None and sample.status == 200:
            problem = oracle.check(sample, ops[sample.op].text)
            if problem:
                problems.append(problem)
    return problems


def design_checks(workload, ops, primary, done) -> list[str]:
    """The measured mix must have the shape the workload was designed for."""
    served = [s.served_from for s in primary]
    problems = []
    try:
        if workload.distinct is not None or workload.shape == "ingest":
            hits = served.count("cache") / len(served)
            low, high = HIT_SHARE_RANGE
            if not low <= hits <= high:
                problems.append(f"design: cache hit share {hits:.3f} outside [{low}, {high}]")
            if "live" in served:
                problems.append("design: mode=auto traffic fell through to live ObjectRank2")
            stats.check_mode_boundaries(hits)
        elif workload.mode == "two_stage":
            sent = ops[workload.warmup : workload.warmup + done]
            fast = sum(1 for query in sent if query.kind == "selective") / len(sent)
            stats.check_mode_boundaries(fast)
    except stats.DesignError as error:
        problems.append(f"design: {error}")
    return problems


def per_layer(workload, corpus, server, ops, primary, counters, budget, spans_out) -> dict:
    """The traced run's metrics: set-up stages, HTTP counters, replayed spans."""
    service = harness.in_process_service(workload, corpus)
    recorder = trace.Recorder()
    trace.probe_setup_layers(recorder, corpus)
    trace.run_replay(recorder, workload, corpus, service, ops[workload.warmup :], budget)
    if spans_out:
        recorder.write(spans_out)
    metrics = trace.layer_metrics(recorder)
    coverage, overhead_share, traced_ops = trace.coverage_and_overhead(recorder.spans)

    # HTTP overhead: over the ops that were also replayed in-process, the
    # client's median for the commonest way of being served minus the
    # composite call's median for the same way.
    replayed = {
        workload.warmup + span.op for span in recorder.spans
        if span.parent is None and span.op is not None
    }
    both = [s for s in primary if s.op in replayed] or primary
    if workload.shape == "session":
        inside = "serve.feedback_ms"
        outside = [s.seconds for s in both]
    else:
        served = [s.served_from for s in both]
        common = max(sorted(set(served)), key=served.count)
        inside = {
            "cache": "serve.search_cache_ms", "live": "serve.search_live_ms",
            "two_stage": "serve.search_two_stage_ms",
        }.get(common, "serve.search_store_ms")
        outside = [s.seconds for s in both if s.served_from == common]
    inside_ms, inside_count = metrics[inside]
    overhead = (statistics.median(outside) * 1e3 - inside_ms, len(outside))
    latencies = [s.seconds * 1e3 for s in primary]
    tail = stats.supported_tail(len(latencies))
    searches = max(1.0, counters.get("repro_search_seconds_count", 0.0))
    metrics.update(
        {
            "datasets.generate_s": (corpus.stages["generate"], 1),
            "ranking.native_available": (float(_native.available()), 1),
            "serve.start_s": (server.start_seconds, 1),
            "serve.first_answer_ms": (server.first_answer_seconds * 1e3, 1),
            "serve.http_overhead_ms": overhead if inside_count else (0.0, 0),
            "serve.response_bytes": (
                statistics.fmean(s.nbytes for s in primary), len(primary)
            ),
            "serve.cache_hit_share": (
                counters.get("repro_cache_hits_total", 0.0) / searches, int(searches)
            ),
            "serve.live_share": (
                counters.get("repro_served_live_total", 0.0) / searches, int(searches)
            ),
            "serve.rejected": (counters.get("repro_requests_rejected_total", 0.0), int(searches)),
            "serve.latency_p50_ms": (stats.percentile(latencies, 50), len(latencies)),
            "serve.latency_p90_ms": (stats.percentile(latencies, 90), len(latencies)),
            "serve.latency_tail_ms": (stats.percentile(latencies, tail), len(latencies)),
            "serve.latency_tail_percentile": (tail, len(latencies)),
            "trace.coverage_share": (coverage, traced_ops),
            "trace.overhead_share": (overhead_share, traced_ops),
        }
    )
    if corpus.ranker is not None:
        metrics["ranking.precompute_s"] = (corpus.stages["precompute"], 1)
        metrics["ranking.precompute_iterations"] = (float(corpus.ranker.build_iterations), 1)
        metrics["ranking.precompute_columns"] = (float(len(corpus.ranker.keywords)), 1)
    if corpus.store_dir is not None:
        metrics["store.publish_s"] = (corpus.stages["publish"], 1)
        metrics["store.slab_mb"] = (harness.slab_megabytes(corpus), 1)
    # A layer this workload never calls reads 0 with n=0.
    return {name: metrics.get(name, (0.0, 0)) for name, *_ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="one run of this workload (default: all)"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="dblp_tiny, tiny op counts")
    parser.add_argument("--spans-out", help="write the traced run's spans as JSON lines")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="where a run of every workload writes its BENCH_*.json")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.write_spec:
        suite.write_benchmark_json()
        return 0
    if args.compare:
        return suite.compare(*args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else float(suite.load_benchmark_json()["run_seconds"])
    if args.workload is None:
        return suite.run_all(args.seed, seconds, args.repeat, args.smoke, args.out)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    result = run_workload(
        workload, args.seed, seconds, bool(args.trace), args.smoke, args.spans_out
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
