"""Command-line interface: search, explain and reformulate from a terminal.

The paper's system shipped as a Web demo; this CLI is the library's
equivalent surface.  Subcommands:

* ``repro datasets`` — list the generatable datasets and their sizes;
* ``repro search <dataset> <keywords...>`` — top-k ObjectRank2 results;
* ``repro explain <dataset> <target-substring> <keywords...>`` — explaining
  subgraph of the first result whose id or title matches the substring;
  ``--batch K`` explains every matching top-K result in one
  batched pass through ``repro.explain.batch`` (target ``all`` matches all);
* ``repro feedback <dataset> <keywords...> --mark N [N...]`` — mark results
  by rank, reformulate, and show the reformulated ranking and learned rates;
* ``repro repl <dataset>`` — interactive search/explain/feedback shell;
* ``repro precompute <dataset>`` — offline per-keyword vector
  build through the blocked multi-restart engine (``repro.ranking.batch``);
* ``repro serve [datasets...]`` — concurrent HTTP query service with result
  caching, admission control and Prometheus metrics (see ``repro.serve``);
  ``--ingest`` adds the ``/ingest`` mutation endpoint with staleness-bounded
  online precompute maintenance (``--staleness-bound``, ``--refresh-mode``);
* ``repro ingest <dataset> --mutations FILE`` — apply a JSON mutation batch
  offline and re-converge only the dirty precomputed columns
  (``repro.ingest``); ``--store DIR`` publishes the refreshed matrix as the
  next store generation, ``--compare-full`` verifies bit-identity against a
  from-scratch rebuild;
* ``repro lint [paths...]`` — the project's invariant linter (RL001–RL017:
  six AST rules, the flow-sensitive RL007–RL009, the interprocedural
  RL010–RL013 over the project call graph and the abstract-interpretation
  RL014–RL017, see ``repro.analysis``) with
  text/JSON/GitHub/SARIF output, ``--changed`` git-scoped runs and baseline
  support.

All subcommands accept ``--scale`` and ``--seed`` for the dataset generator
and ``--top-k`` for the result-list length.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError

# The query/ranking commands need numpy+scipy; ``repro lint`` must not (it
# runs in bare CI jobs in well under ten seconds).  Heavy imports therefore
# happen inside the command functions, not at module import time.


def _build_system(args: argparse.Namespace) -> tuple:
    from repro.core.config import SystemConfig
    from repro.core.system import ObjectRankSystem
    from repro.datasets import load_dataset

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    # Only `repro search` exposes retrieval-mode flags; the other commands
    # sharing this builder default to full retrieval.
    config = SystemConfig(
        top_k=args.top_k,
        retrieval_mode=getattr(args, "mode", "full").replace("-", "_"),
        **_two_stage_config(args),
    )
    system = ObjectRankSystem(dataset.data_graph, dataset.transfer_schema, config)
    return dataset, system


def _add_two_stage_flags(
    parser: argparse.ArgumentParser, rerank: str, when: str
) -> None:
    """The two-stage flags of ``repro search`` and ``repro serve``.

    ``rerank`` prefixes the neighborhood flags (``repro serve`` spells them
    ``--rerank-horizon`` ...); ``when`` opens every help line.  No flag
    carries a default: an unset one keeps the config's (see
    :func:`_two_stage_config`), so the defaults live in one place.
    """
    parser.add_argument(
        "--candidates", type=int, metavar="N",
        help=f"{when}: stage-1 candidate-set size",
    )
    parser.add_argument(
        f"--{rerank}horizon", type=int,
        help=f"{when}: rerank neighborhood hops",
    )
    parser.add_argument(
        f"--{rerank}expand-cap", type=int, metavar="D",
        help=f"{when}: include but do not expand through nodes with "
        "transfer-edge degree above D (default: expand all)",
    )
    parser.add_argument(
        f"--{rerank}node-budget", type=int, metavar="B",
        help=f"{when}: keep deepening past the horizon (up to "
        f"--{rerank}max-horizon hops) while the neighborhood holds fewer "
        "than B nodes",
    )
    parser.add_argument(
        f"--{rerank}max-horizon", type=int,
        help=f"{when}: hop ceiling for node-budget deepening",
    )


def _two_stage_config(args: argparse.Namespace, rerank: str = "") -> dict:
    """The two-stage config fields the command line set, by field name."""
    fields = {"candidates": getattr(args, "candidates", None)}
    for name in ("horizon", "expand_cap", "node_budget", "max_horizon"):
        fields[f"rerank_{name}"] = getattr(args, rerank + name, None)
    return {name: value for name, value in fields.items() if value is not None}


def _print_results(dataset, result) -> None:
    from repro.repl import format_results

    print("\n".join(format_results(dataset.data_graph, result)))


def cmd_datasets(args: argparse.Namespace) -> int:
    """The ``repro datasets`` subcommand."""
    from repro.datasets import dataset_names, dataset_statistics, load_dataset

    for name in dataset_names():
        if args.sizes:
            stats = dataset_statistics(load_dataset(name, args.scale, args.seed))
            print(f"{name}: {stats.num_nodes} nodes, {stats.num_edges} edges")
        else:
            print(name)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """The ``repro search`` subcommand."""
    from repro.retrieval.engine import TwoStageSearchResult

    dataset, system = _build_system(args)
    result = system.query(" ".join(args.keywords))
    _print_results(dataset, result)
    if isinstance(result, TwoStageSearchResult) and result.stages is not None:
        stages = result.stages
        print(
            f"(two-stage: {stages.num_candidates} candidates -> "
            f"{stages.subgraph_nodes} nodes/{stages.subgraph_edges} edges "
            f"reranked; stage1 {stages.stage1_seconds * 1000:.1f} ms, "
            f"stage2 {stages.stage2_seconds * 1000:.1f} ms)"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """The ``repro explain`` subcommand."""
    from repro.explain.render import to_text

    dataset, system = _build_system(args)
    result = system.query(" ".join(args.keywords))
    needle = args.target.lower()

    def matches(node_id: str) -> bool:
        return (
            needle == "all"
            or needle in node_id.lower()
            or needle in dataset.data_graph.caption(node_id).lower()
        )

    # One batched pass over every matching result (repro.explain.batch); per
    # target the output is identical with and without --batch, which only
    # widens "the first match" to "every match among the top K".
    limit = args.batch or args.top_k
    targets = [nid for nid, _ in result.top[:limit] if matches(nid)]
    if not targets:
        print(f"no top-{limit} result matches {args.target!r}", file=sys.stderr)
        return 1
    if not args.batch:
        targets = targets[:1]
    explanations = system.explain_many(targets)
    for node_id, explanation in zip(targets, explanations):
        if args.batch:
            print(f"=== {dataset.data_graph.caption(node_id)}")
        print(to_text(explanation, max_paths=args.paths))
    return 0


def cmd_feedback(args: argparse.Namespace) -> int:
    """The ``repro feedback`` subcommand."""
    dataset, system = _build_system(args)
    result = system.query(" ".join(args.keywords))
    print("initial results:")
    _print_results(dataset, result)
    try:
        marked = [result.top[rank - 1][0] for rank in args.mark]
    except IndexError:
        print(f"--mark ranks must be within the top {len(result.top)}", file=sys.stderr)
        return 1
    outcome = system.feedback(marked)
    print(f"\nmarked relevant: {', '.join(marked)}")
    print("reformulated query vector:")
    vector = outcome.reformulated.query_vector
    for term in vector.terms:
        print(f"  {term}: {vector.weight(term):.3f}")
    print("learned transfer rates:")
    schema = outcome.reformulated.transfer_schema
    for edge_type in schema.edge_types():
        print(f"  {edge_type}: {schema.rate(edge_type):.3f}")
    print("\nreformulated results:")
    _print_results(dataset, outcome.result)
    return 0


def _load_engine(args: argparse.Namespace) -> tuple:
    """``(dataset, search engine)`` for the offline build commands."""
    from repro.datasets import load_dataset
    from repro.query.engine import SearchEngine

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    return dataset, SearchEngine(dataset.data_graph, dataset.transfer_schema)


def _timed_precompute(args: argparse.Namespace, graph, index) -> tuple:
    """``(ranker, seconds)``: one [BHP04] build under ``--min-df`` and
    (where the command has it) ``--keywords``."""
    import time

    from repro.ranking.precompute import PrecomputedRanker

    start = time.perf_counter()
    ranker = PrecomputedRanker(
        graph,
        index,
        keywords=getattr(args, "keywords", None) or None,
        min_document_frequency=args.min_df,
    )
    return ranker, time.perf_counter() - start


def cmd_precompute(args: argparse.Namespace) -> int:
    """The ``repro precompute`` subcommand: offline per-keyword vector build.

    Runs the [BHP04] precomputation (one authority vector per index keyword)
    through the blocked multi-restart engine and reports build statistics.
    This is the offline half of the serving layer's precomputed fast path.
    """
    dataset, engine = _load_engine(args)
    vocabulary = engine.index.vocabulary(args.min_df)
    ranker, elapsed = _timed_precompute(args, engine.graph, engine.index)
    built = len(ranker.keywords)
    print(f"dataset: {args.dataset} ({dataset.num_nodes} nodes, {dataset.num_edges} edges)")
    print(f"vocabulary terms with df >= {args.min_df}: {len(vocabulary)}")
    print(
        f"precomputed {built} keyword vectors in {elapsed:.2f}s "
        f"({ranker.build_iterations} power-iteration steps)"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """The ``repro ingest`` subcommand: offline incremental maintenance.

    Loads a dataset, builds its precomputed matrix, applies a JSON batch of
    mutations (the ``/ingest`` wire format: a list of ``{"op": ...}``
    objects) through :class:`repro.ingest.IngestEngine`, and re-converges
    only the dirty columns.  ``--compare-full`` additionally runs the
    from-scratch precompute on the mutated graph and verifies the
    incremental result is bit-identical; ``--store DIR`` publishes the
    refreshed matrix as the next store generation so live cluster workers
    pick it up.
    """
    import json
    from pathlib import Path

    from repro.ingest import IngestEngine

    with open(args.mutations, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        print(f"error: {args.mutations} must hold a JSON list", file=sys.stderr)
        return 2

    dataset, engine = _load_engine(args)
    previous, base_built = _timed_precompute(args, engine.graph, engine.index)
    print(
        f"dataset: {args.dataset} ({dataset.num_nodes} nodes, "
        f"{dataset.num_edges} edges); baseline precompute "
        f"{len(previous.keywords)} columns in {base_built:.2f}s"
    )

    ingest = IngestEngine(
        dataset.data_graph,
        dataset.transfer_schema,
        min_document_frequency=args.min_df,
    )
    applied, errors = ingest.apply_batch(raw)
    for error in errors:
        print(
            f"mutation {error['position']} rejected: {error['error']}",
            file=sys.stderr,
        )
    staleness = ingest.staleness()
    print(
        f"applied {applied}/{len(raw)} mutations: "
        f"{staleness.dirty_columns} dirty columns"
        + (" (topology change: all columns dirty)" if staleness.topology_dirty else "")
    )

    result = ingest.refresh(previous=previous, mode=args.mode)
    print(
        f"incremental refresh ({result.mode}): recomputed "
        f"{len(result.recomputed)} columns, carried {len(result.carried)}, "
        f"{result.iterations} power-iteration steps, "
        f"{result.elapsed_seconds:.2f}s"
    )

    if args.compare_full:
        full, full_built = _timed_precompute(args, result.graph, result.index)
        mismatched = _compare_rankers(result.ranker, full)
        print(
            f"full rebuild: {len(full.keywords)} columns in {full_built:.2f}s"
        )
        if mismatched:
            print(
                f"MISMATCH: {len(mismatched)} columns differ from the full "
                f"rebuild: {mismatched[:5]}",
                file=sys.stderr,
            )
            return 1
        print(
            f"verified: all {len(full.keywords)} columns bit-identical to "
            f"the full rebuild"
        )

    if args.store:
        from repro.store import build_and_publish

        root = Path(args.store) / args.dataset
        manifest = build_and_publish(
            root, result.ranker, args.dataset, keep=args.keep
        )
        print(
            f"published {root}/{manifest.filename} "
            f"(generation {manifest.generation})"
        )
    return 1 if errors else 0


def _compare_rankers(incremental, full) -> list[str]:
    """Keywords whose vectors differ between two rankers (bit-exact)."""
    import numpy as np

    mismatched = [
        keyword
        for keyword in full.keywords
        if not incremental.has_keyword(keyword)
        or not np.array_equal(incremental.vector(keyword), full.vector(keyword))
    ]
    mismatched.extend(
        keyword for keyword in incremental.keywords if not full.has_keyword(keyword)
    )
    return mismatched


def cmd_repl(args: argparse.Namespace) -> int:
    """The ``repro repl`` subcommand."""
    from repro.repl import run_repl

    dataset, system = _build_system(args)
    return run_repl(dataset, system, sys.stdin)


def cmd_lint(args: argparse.Namespace) -> int:
    """The ``repro lint`` subcommand: run the invariant checkers.

    Exit codes: 0 when no new findings (baselined and pragma-suppressed ones
    do not count), 1 when findings or parse errors remain, 2 on usage errors.
    """
    from repro.analysis import (
        Baseline,
        all_checkers,
        load_baseline,
        render,
        run_lint,
        save_baseline,
    )

    try:
        checkers = all_checkers(args.select)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline = Baseline() if args.no_baseline else load_baseline(args.baseline)
    scope = None
    cache = None
    if args.changed:
        scope, checkout_root = _changed_python_files()
        if scope is None:
            print(
                "repro lint: --changed needs a git checkout; "
                "linting everything",
                file=sys.stderr,
            )
        else:
            # A --changed run is the incremental workflow: persist the
            # interprocedural summary index next to the checkout so a
            # no-op rerun skips the project-phase fixpoint entirely.
            from repro.analysis.summary_cache import CACHE_FILENAME

            cache = checkout_root / CACHE_FILENAME
    report = run_lint(
        args.paths, checkers=checkers, baseline=baseline, scope=scope, cache=cache
    )

    if args.write_baseline:
        accepted = report.findings + report.baselined
        save_baseline(Baseline.from_findings(accepted, reasons=baseline), args.baseline)
        print(
            f"wrote {args.baseline} with {len(accepted)} accepted finding(s)",
            file=sys.stderr,
        )
        return 0

    print(render(report, args.format))
    return 0 if report.clean else 1


def _changed_python_files() -> "tuple[set[str] | None, Path | None]":
    """``(changed files, checkout root)`` for a ``--changed`` lint run.

    The first element holds cwd-relative names of ``.py`` files with
    uncommitted changes; the second the git toplevel (where the summary
    cache lives).  Asks ``git status --porcelain`` (worktree + index vs
    HEAD, renames resolved to their new name) so a pre-commit
    ``repro lint --changed`` covers exactly what the commit would ship.
    ``--untracked-files=all`` expands untracked *directories* into their
    files — by default git collapses a new package to ``?? pkg/`` and
    every module inside it would silently escape the lint.  Returns
    ``(None, None)`` when git is unavailable or the cwd is not inside a
    work tree — the caller falls back to a full run rather than silently
    linting nothing.
    """
    import subprocess
    from pathlib import Path

    try:
        toplevel = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    changed: set[str] = set()
    root = Path(toplevel)
    cwd = Path.cwd().resolve()
    for line in status.splitlines():
        if len(line) < 4:
            continue
        path = line[3:].strip().strip('"')
        if " -> " in path:
            path = path.split(" -> ", 1)[1]
        if not path.endswith(".py"):
            continue
        try:
            display = (root / path).resolve().relative_to(cwd).as_posix()
        except ValueError:
            continue  # changed file outside the directory being linted
        changed.add(display)
    return changed, root


def cmd_serve(args: argparse.Namespace) -> int:
    """The ``repro serve`` subcommand: boot the HTTP query service.

    ``--workers N`` (N >= 2) starts the prefork cluster instead: N worker
    processes share one pre-bound listener and, with ``--store DIR``, mmap
    the same published score-store generation (see :mod:`repro.serve.cluster`
    and DESIGN.md).  Both modes drain in-flight requests on SIGTERM/SIGINT.
    """
    import threading

    from repro.serve import (
        QueryService,
        ServeConfig,
        create_server,
        serve_until_shutdown,
    )

    config = ServeConfig(
        datasets=tuple(args.datasets),
        scale=args.scale,
        seed=args.seed,
        default_top_k=args.top_k,
        cache_max_entries=args.cache_size,
        cache_ttl_seconds=args.cache_ttl,
        precompute=not args.no_precompute,
        max_concurrency=args.max_concurrency,
        deadline_seconds=args.deadline,
        store_dir=args.store,
        ingest=args.ingest,
        ingest_staleness_bound=args.staleness_bound,
        ingest_refresh_mode=args.refresh_mode,
        **_two_stage_config(args, rerank="rerank_"),
    )

    if args.workers and args.workers > 1:
        if args.ingest:
            # Each prefork worker owns a private engine, so a mutation POSTed
            # to one worker would be invisible to its siblings.  The cluster
            # path for live updates is the builder flow: `repro ingest
            # --store DIR` publishes a refreshed generation that every
            # worker picks up through the store manifest.
            print(
                "error: --ingest requires single-process mode; for clusters "
                "publish refreshed generations with `repro ingest --store`",
                file=sys.stderr,
            )
            return 2
        import signal

        from repro.serve.cluster import ClusterConfig, ClusterSupervisor

        supervisor = ClusterSupervisor(
            ClusterConfig(
                serve=config,
                host=args.host,
                port=args.port,
                workers=args.workers,
                drain_timeout=args.drain_timeout,
                admin_port=args.admin_port,
                quiet=args.quiet,
            )
        )
        print(
            f"preloading {', '.join(config.datasets)} and forking "
            f"{args.workers} workers ...",
            file=sys.stderr,
        )
        supervisor.start()
        admin = (
            f"; admin on 127.0.0.1:{args.admin_port}" if args.admin_port else ""
        )
        print(
            f"repro-serve cluster listening on {supervisor.url} "
            f"({args.workers} workers"
            + (f"; store: {args.store}" if args.store else "")
            + admin
            + ")"
        )
        stop = threading.Event()
        previous = {
            s: signal.signal(s, lambda *_: stop.set())
            for s in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            stop.wait()
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)
        print("draining workers ...", file=sys.stderr)
        return 0 if supervisor.stop() else 1

    service = QueryService(config)
    if not args.no_preload:
        for name in config.datasets:
            print(f"loading dataset {name} ...", file=sys.stderr)
        service.preload()
    server = create_server(service, args.host, args.port, quiet=args.quiet)
    endpoints = "/search /explain /feedback/reformulate"
    if config.ingest:
        endpoints += " /ingest"
    print(
        f"repro-serve listening on {server.url} "
        f"(datasets: {', '.join(config.datasets)}; "
        f"endpoints: {endpoints} /healthz /metrics)"
    )
    _signum, drained = serve_until_shutdown(
        server, drain_timeout=args.drain_timeout
    )
    if not drained:
        print("drain timeout: closed with requests in flight", file=sys.stderr)
    return 0 if drained else 1


def cmd_store_build(args: argparse.Namespace) -> int:
    """The ``repro store build`` subcommand: publish the next generation.

    Runs the [BHP04] precomputation and writes it as a checksummed mmap-able
    slab under ``--store DIR/<dataset>/``, then atomically flips the
    ``CURRENT`` manifest — live workers of ``repro serve --workers N`` pick
    the new generation up between requests, without a restart.
    """
    from pathlib import Path

    from repro.store import build_and_publish, store_path

    _dataset, engine = _load_engine(args)
    ranker, built = _timed_precompute(args, engine.graph, engine.index)
    root = Path(args.store) / args.dataset
    manifest = build_and_publish(root, ranker, args.dataset, keep=args.keep)
    size = store_path(root, manifest.generation).stat().st_size
    print(
        f"published {root}/{manifest.filename} (generation {manifest.generation}, "
        f"{len(ranker.keywords)} keywords, {size / 1e6:.1f} MB, "
        f"precompute {built:.2f}s)"
    )
    return 0


def cmd_store_inspect(args: argparse.Namespace) -> int:
    """The ``repro store inspect`` subcommand: what a store directory holds."""
    from pathlib import Path

    from repro.store import ScoreStore, list_generations, read_manifest, store_path

    root = Path(args.store) / args.dataset
    generations = list_generations(root)
    manifest = read_manifest(root)
    if manifest is None:
        print(f"{root}: nothing published (generations on disk: {generations})")
        return 1
    print(f"store:       {root}")
    print(f"generations: {generations} (current: {manifest.generation})")
    with ScoreStore(root / manifest.filename) as store:
        size = store_path(root, manifest.generation).stat().st_size
        print(f"file:        {manifest.filename} ({size / 1e6:.1f} MB)")
        print(f"dataset:     {store.dataset}")
        print(f"matrix:      {len(store.keywords)} keywords x {len(store.node_ids)} nodes")
        print(f"damping:     {store.damping}")
        print(f"rates:       " + ", ".join(
            f"{name}={rate:.3f}"
            for name, rate in zip(store.edge_types, store.rates)
        ))
        print(f"build:       {store.build_iterations} power-iteration steps")
        store.verify()
        print("checksums:   ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ObjectRank2 search, explanation and reformulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list generatable datasets")
    datasets.add_argument("--sizes", action="store_true", help="generate and show sizes")
    datasets.add_argument("--scale", type=float, default=1.0)
    datasets.add_argument("--seed", type=int, default=7)
    datasets.set_defaults(func=cmd_datasets)

    def generated(p: argparse.ArgumentParser) -> None:
        p.add_argument("dataset", help="a name from `repro datasets`")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=7)

    def common(p: argparse.ArgumentParser) -> None:
        generated(p)
        p.add_argument("--top-k", type=int, default=10)

    def offline_build(p: argparse.ArgumentParser, keywords: bool) -> None:
        """The dataset + [BHP04] build flags of precompute/ingest/store build."""
        generated(p)
        p.add_argument(
            "--min-df", type=int, default=2,
            help="precompute only terms with document frequency >= N",
        )
        if keywords:
            p.add_argument(
                "--keywords", nargs="*", default=None,
                help="explicit keyword list (default: the whole filtered "
                "vocabulary)",
            )

    search = sub.add_parser("search", help="run an ObjectRank2 query")
    common(search)
    search.add_argument("keywords", nargs="+")
    search.add_argument(
        "--mode", choices=["full", "two-stage"], default="full",
        help="full runs ObjectRank2 over the whole graph; two-stage runs "
        "top-N BM25 candidate generation + focused authority reranking",
    )
    _add_two_stage_flags(search, rerank="", when="with --mode two-stage")
    search.set_defaults(func=cmd_search)

    explain = sub.add_parser("explain", help="explain one result of a query")
    common(explain)
    explain.add_argument(
        "target", help="substring of the result id or title ('all' with --batch)"
    )
    explain.add_argument("keywords", nargs="+")
    explain.add_argument("--paths", type=int, default=5)
    explain.add_argument(
        "--batch", type=int, default=None, metavar="K",
        help="explain every matching result among the top K in one batched "
        "pass (repro.explain.batch) instead of the first match",
    )
    explain.set_defaults(func=cmd_explain)

    feedback = sub.add_parser("feedback", help="mark results and reformulate")
    common(feedback)
    feedback.add_argument("keywords", nargs="+")
    feedback.add_argument(
        "--mark", type=int, nargs="+", required=True, help="1-based ranks to mark"
    )
    feedback.set_defaults(func=cmd_feedback)

    repl = sub.add_parser("repl", help="interactive search/explain/feedback shell")
    common(repl)
    repl.set_defaults(func=cmd_repl)

    precompute = sub.add_parser(
        "precompute", help="build per-keyword vectors offline (blocked engine)"
    )
    offline_build(precompute, keywords=True)
    precompute.set_defaults(func=cmd_precompute)

    ingest = sub.add_parser(
        "ingest",
        help="apply a mutation batch and refresh only the dirty columns",
    )
    offline_build(ingest, keywords=False)
    ingest.add_argument(
        "--mutations", required=True, metavar="FILE",
        help="JSON file holding a list of mutation objects "
        "({\"op\": \"add_node\" | \"remove_node\" | \"update_node\" | "
        "\"add_edge\" | \"remove_edge\", ...})",
    )
    ingest.add_argument(
        "--mode", choices=["exact", "warm"], default="exact",
        help="exact recomputes dirty columns cold (bit-identical to a full "
        "rebuild); warm restarts them from the previous fixpoints",
    )
    ingest.add_argument(
        "--compare-full", action="store_true",
        help="also run the from-scratch precompute and verify bit-identity",
    )
    ingest.add_argument(
        "--store", default=None, metavar="DIR",
        help="publish the refreshed matrix under DIR/<dataset>/ as the next "
        "store generation",
    )
    ingest.add_argument(
        "--keep", type=int, default=2,
        help="with --store: generations retained after publishing",
    )
    ingest.set_defaults(func=cmd_ingest)

    serve = sub.add_parser("serve", help="HTTP query service with caching + metrics")
    serve.add_argument(
        "datasets",
        nargs="*",
        default=["dblp_tiny"],
        help="datasets to serve (default: dblp_tiny)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--top-k", type=int, default=10)
    serve.add_argument("--cache-size", type=int, default=512, help="max cached results")
    serve.add_argument(
        "--cache-ttl", type=float, default=None, help="result TTL seconds (default: none)"
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=8, help="in-flight request limit (429 beyond)"
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0, help="per-request deadline seconds (503 beyond)"
    )
    serve.add_argument(
        "--no-precompute", action="store_true", help="disable per-keyword precomputed vectors"
    )
    serve.add_argument(
        "--no-preload", action="store_true", help="build dataset engines lazily on first request"
    )
    serve.add_argument("--quiet", action="store_true", help="suppress per-request access log")
    serve.add_argument(
        "--workers", type=int, default=1,
        help="prefork worker processes sharing one listener (default: 1 = "
        "single process); workers mmap the --store generations zero-copy",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="serve the precomputed fast path from mmap score stores under "
        "DIR/<dataset>/ (build them with `repro store build`)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--admin-port", type=int, default=None,
        help="with --workers: supervisor admin port (aggregated /metrics, "
        "/healthz, /workers on 127.0.0.1)",
    )
    serve.add_argument(
        "--ingest", action="store_true",
        help="enable the /ingest mutation endpoint with online precompute "
        "maintenance (single-process mode only)",
    )
    serve.add_argument(
        "--staleness-bound", type=int, default=0, metavar="N",
        help="with --ingest: serve at most N pending mutations before a "
        "synchronous refresh (default 0: refresh before the next query)",
    )
    serve.add_argument(
        "--refresh-mode", choices=["exact", "warm"], default="exact",
        help="with --ingest: dirty-column refresh mode (exact is "
        "bit-identical to a full rebuild; warm reuses previous fixpoints)",
    )
    _add_two_stage_flags(serve, rerank="rerank-", when="mode=two_stage default")
    serve.set_defaults(func=cmd_serve)

    store = sub.add_parser(
        "store", help="build / inspect mmap-able score stores (repro.store)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_build = store_sub.add_parser(
        "build", help="precompute and publish the next store generation"
    )
    offline_build(store_build, keywords=True)
    store_build.add_argument(
        "--store", required=True, metavar="DIR",
        help="store root; the slab goes to DIR/<dataset>/store.gen-K.slab",
    )
    store_build.add_argument(
        "--keep", type=int, default=2,
        help="generations retained after publishing (older ones are pruned)",
    )
    store_build.set_defaults(func=cmd_store_build)
    store_inspect = store_sub.add_parser(
        "inspect", help="show a store's generations and verify its checksums"
    )
    store_inspect.add_argument("dataset", help="dataset subdirectory to inspect")
    store_inspect.add_argument(
        "--store", required=True, metavar="DIR", help="store root directory"
    )
    store_inspect.set_defaults(func=cmd_store_inspect)

    lint = sub.add_parser(
        "lint", help="run the invariant checkers (RL001-RL017)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint.add_argument(
        "--format", choices=["text", "json", "github", "sarif"], default="text",
        help="report format (github emits workflow-command annotations; "
        "sarif emits a SARIF 2.1.0 log for code-scanning uploads)",
    )
    lint.add_argument(
        "--baseline", default=".repro-lint-baseline.json",
        help="accepted-findings file (missing file = empty baseline)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    lint.add_argument(
        "--select", nargs="*", default=None, metavar="CODE",
        help="run only these rule codes (default: all registered)",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only files with uncommitted git changes (interprocedural "
        "rules still see the whole project; outside a git checkout this "
        "falls back to a full run)",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
