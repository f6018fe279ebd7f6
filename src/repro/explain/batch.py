"""Batched explanation engine: many targets, one pass (Section 4 at scale).

Explaining a single result is cheap; the serving paths never explain just
one.  ``/explain`` explains members of a top-k list, and one reformulation
round (Equations 14-15) explains every feedback object before aggregating.
The serial pipeline re-runs a Python BFS and a small numpy fixpoint per
target; for subgraphs of a few hundred edges the per-call interpreter and
numpy-dispatch overhead dominates the arithmetic.

This module amortizes that overhead across a batch of targets:

* **Shared positive-rate adjacency.**  Subgraph construction only ever
  traverses edges with a strictly positive transfer rate.  The graph keeps
  its in/out incidence filtered down to those edges per rate setting
  (:meth:`AuthorityTransferDataGraph.positive_incidence`), so every
  target's two BFS passes skip the rate test entirely and the filtered
  index is shared by every batch — and every request — under those rates.

* **Vectorized frontier expansion.**  Each BFS processes whole frontiers as
  index arrays — one ragged CSR gather per level instead of one Python loop
  iteration per node — with epoch-tagged visited/depth stamps reused across
  targets so per-target cost scales with the subgraph, not the graph.
  Level-synchronous expansion discovers exactly the FIFO BFS's node set at
  exactly its depths, so the resulting :class:`ExplainingSubgraph` equals
  the serial one field for field.

* **Multi-target flow-adjustment fixpoint.**  The per-target iterations of
  Equation 10 are independent, so their edge lists are concatenated (with
  per-target local-node offsets) into one shared edge list and advanced
  together: one ``gather·rates`` + one ``np.add.at`` scatter per iteration
  for the whole batch, mirroring ``repro.ranking.batch``.  Targets converge
  independently: a converged target's factors are *frozen* (captured
  immediately, then the segment coasts harmlessly) and amortized
  *compaction* rebuilds the shared edge list without finished segments once
  a quarter of the batch is done.

This is a performance change, not an approximation: each target's additions
occupy a contiguous run of the shared edge list in serial edge order, so the
scatter accumulates bit-for-bit the same sums as the serial fixpoint, and
the per-segment residual is an exact max — flows, node reduction factors,
iteration counts (Table 3) and residual traces are all identical to
:func:`repro.explain.adjust_flows` per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConvergenceError, ExplanationError
from repro.explain.adjustment import (
    DEFAULT_ADJUSTMENT_MAX_ITERATIONS,
    FlowExplanation,
)
from repro.explain.flows import original_edge_flows
from repro.explain.subgraph import (
    ExplainingSubgraph,
    NodeValueView,
    build_explaining_subgraph,
)
from repro.graph.transfer_graph import AuthorityTransferDataGraph, gather_rows
from repro.ranking.pagerank import DEFAULT_DAMPING, DEFAULT_TOLERANCE

#: Compaction threshold: rebuild the shared edge list once this fraction of
#: the still-packed targets has converged.  Rebuilding is O(remaining edges);
#: amortizing it keeps total compaction cost linear in the batch size.
_COMPACT_FRACTION = 4


class _WorkArrays:
    """Epoch-tagged per-extraction scratch, reused across targets.

    ``tag[v] == epoch`` marks membership of the current target's backward
    set, ``reach[v] == epoch`` of its forward set; bumping the epoch resets
    both in O(1).  One instance per :meth:`SubgraphExtractor.extract_many`
    call — instances are never shared concurrently.
    """

    def __init__(self, num_nodes: int) -> None:
        self.tag = np.zeros(num_nodes, dtype=np.int64)
        self.depth = np.zeros(num_nodes, dtype=np.int64)
        self.reach = np.zeros(num_nodes, dtype=np.int64)
        self.epoch = 0


class SubgraphExtractor:
    """Vectorized explaining-subgraph construction over one rate setting.

    Reads the graph's positive-rate in/out incidence, shared by every
    extraction under the graph's current rates.  The extractor itself is
    immutable after construction; the per-call scratch lives in the work
    arrays :meth:`extract_many` allocates, so concurrent requests may share
    one extractor.
    """

    def __init__(self, graph: AuthorityTransferDataGraph) -> None:
        self.graph = graph
        self._in_index, self._out_index = graph.positive_incidence()

    def extract(
        self,
        base_indices: np.ndarray,
        target: int,
        radius: int | None,
        work: _WorkArrays,
    ) -> ExplainingSubgraph:
        """One target's ``G_v^Q``, identical to the serial two-pass build."""
        graph = self.graph
        work.epoch += 1
        epoch = work.epoch
        tag, depth, reach = work.tag, work.depth, work.reach

        # Backward pass, level-synchronous: frontier ``L`` holds exactly the
        # nodes at BFS depth ``L``, so the depths equal the serial FIFO BFS's.
        tag[target] = epoch
        depth[target] = 0
        frontier = np.asarray([target], dtype=np.int64)
        level = 0
        while frontier.size and (radius is None or level < radius):
            sources = graph.edge_source[gather_rows(*self._in_index, frontier)]
            fresh = np.unique(sources[tag[sources] != epoch])
            if fresh.size == 0:
                break
            level += 1
            tag[fresh] = epoch
            depth[fresh] = level
            frontier = fresh

        # Forward pass from the base-set nodes inside the backward set.  The
        # first frontier keeps the base list's order and multiplicity (the
        # serial pass seeds its queue the same way), later frontiers are the
        # deduplicated newly-reached nodes.
        roots = (
            base_indices[tag[base_indices] == epoch]
            if base_indices.size
            else base_indices
        )
        reach[roots] = epoch
        kept: list[np.ndarray] = []
        reached: list[np.ndarray] = [np.unique(roots)]
        frontier = roots
        while frontier.size:
            eids = gather_rows(*self._out_index, frontier)
            dests = graph.edge_target[eids]
            inside = tag[dests] == epoch
            eids, dests = eids[inside], dests[inside]
            kept.append(eids)
            fresh = np.unique(dests[reach[dests] != epoch])
            reach[fresh] = epoch
            reached.append(fresh)
            frontier = fresh

        # The target belongs to the subgraph even when nothing reaches it.
        reached.append(np.asarray([target], dtype=np.int64))
        nodes_array = np.unique(np.concatenate(reached))
        edge_ids = np.sort(np.concatenate(kept)) if kept else np.empty(0, np.int64)
        depth_array = depth[nodes_array]
        return ExplainingSubgraph(
            graph=graph,
            target=target,
            nodes=nodes_array.tolist(),
            edge_ids=edge_ids.astype(np.int64, copy=False),
            base_nodes=roots.tolist(),
            depth_to_target=NodeValueView(nodes_array, depth_array),
            radius=radius,
            _nodes_array=nodes_array,
            _depth_array=depth_array,
        )

    def extract_many(
        self,
        base_indices: np.ndarray,
        targets: Sequence[int],
        radius: int | None,
    ) -> list[ExplainingSubgraph]:
        """Extract a run of targets sequentially with shared work arrays."""
        work = _WorkArrays(self.graph.num_nodes)
        return [self.extract(base_indices, t, radius, work) for t in targets]


def batched_build_explaining_subgraphs(
    graph: AuthorityTransferDataGraph,
    base_node_ids: list[str],
    target_ids: Sequence[str],
    radius: int | None = None,
    extractor: SubgraphExtractor | None = None,
    within: np.ndarray | None = None,
) -> list[ExplainingSubgraph]:
    """``G_v^Q`` for every target, sharing one positive-rate adjacency.

    Field-for-field identical to calling
    :func:`repro.explain.build_explaining_subgraph` per target.  Pass a
    prebuilt ``extractor`` to reuse the filtered adjacency across batches
    under an unchanged rate setting.

    ``within`` (node indices) confines every subgraph to those nodes — a
    two-stage result explains within its candidate neighborhood only.  The
    frontier engine has no node filter, so restricted targets go through the
    serial builder one by one; the neighborhood keeps each subgraph small.
    """
    if radius is not None and radius < 1:
        raise ExplanationError(f"radius must be at least 1, got {radius}")
    if within is not None:
        return [
            build_explaining_subgraph(
                graph, list(base_node_ids), target_id, radius, within=within
            )
            for target_id in target_ids
        ]
    targets = [graph.index_of(t) for t in target_ids]
    base_indices = graph.indices_of(list(base_node_ids))
    if not targets:
        return []

    extractor = extractor or SubgraphExtractor(graph)
    return extractor.extract_many(base_indices, targets, radius)


# -- multi-target flow adjustment -------------------------------------------


@dataclass
class _Segment:
    """One target's slice of the shared fixpoint state."""

    position: int  # index into the caller's subgraph list
    subgraph: ExplainingSubgraph
    flow0: np.ndarray
    src_local: np.ndarray
    dst_local: np.ndarray
    rates: np.ndarray
    num_local: int
    target_local: int
    residuals: list[float]
    h: np.ndarray | None = None  # captured factors (at convergence or cutoff)
    iterations: int = 0
    converged: bool = False


@dataclass
class _Packed:
    """The concatenated ("shared") edge list over the still-active segments."""

    src: np.ndarray
    dst: np.ndarray
    rates: np.ndarray
    node_starts: np.ndarray  # segment boundaries, for per-segment residuals
    target_pos: np.ndarray
    total_nodes: int


def _pack(segments: list[_Segment]) -> _Packed:
    """Concatenate segment edge lists with per-segment local-node offsets."""
    sizes = np.asarray([s.num_local for s in segments], dtype=np.int64)
    node_starts = np.zeros(len(segments), dtype=np.int64)
    np.cumsum(sizes[:-1], out=node_starts[1:])
    src = np.concatenate(
        [s.src_local + off for s, off in zip(segments, node_starts)]
    )
    dst = np.concatenate(
        [s.dst_local + off for s, off in zip(segments, node_starts)]
    )
    rates = np.concatenate([s.rates for s in segments])
    target_pos = node_starts + np.asarray(
        [s.target_local for s in segments], dtype=np.int64
    )
    return _Packed(src, dst, rates, node_starts, target_pos, int(sizes.sum()))


def batched_adjust_flows(
    subgraphs: Sequence[ExplainingSubgraph],
    scores: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_ADJUSTMENT_MAX_ITERATIONS,
    raise_on_divergence: bool = False,
) -> list[FlowExplanation]:
    """Run the Equation 10 fixpoint for every subgraph in one shared iteration.

    Per target, the returned :class:`FlowExplanation` is bit-identical to
    :func:`repro.explain.adjust_flows` — flows, reduction factors, iteration
    counts, convergence flags and residual traces.  All subgraphs must be
    over the same graph and the same converged ``scores`` vector.

    Converged segments are dropped from the shared edge list by amortized
    compaction; ``raise_on_divergence`` raises for the first target
    that fails to converge within ``max_iterations``, like the serial path
    does for its single target.
    """
    explanations: list[FlowExplanation | None] = [None] * len(subgraphs)
    segments: list[_Segment] = []
    for position, subgraph in enumerate(subgraphs):
        flow0 = original_edge_flows(
            subgraph.graph, scores, damping, subgraph.edge_ids
        )
        if subgraph.is_empty:
            explanations[position] = FlowExplanation(
                subgraph,
                damping,
                flow0,
                flow0.copy(),
                {subgraph.target: 1.0},
                0,
                True,
            )
            continue
        segments.append(
            _Segment(
                position=position,
                subgraph=subgraph,
                flow0=flow0,
                src_local=subgraph.edge_src_local,
                dst_local=subgraph.edge_dst_local,
                rates=subgraph.graph.edge_rate[subgraph.edge_ids],
                num_local=subgraph.num_nodes,
                target_local=int(
                    np.searchsorted(subgraph.nodes_array, subgraph.target)
                ),
                residuals=[],
            )
        )

    if segments:
        _iterate_segments(segments, tolerance, max_iterations)

    for segment in segments:
        if not segment.converged and raise_on_divergence:
            raise ConvergenceError(
                "explaining flow adjustment",
                segment.iterations,
                segment.residuals[-1],
            )
        flows = segment.h[segment.dst_local] * segment.flow0  # Equation 7
        explanations[segment.position] = FlowExplanation(
            segment.subgraph,
            damping,
            segment.flow0,
            flows,
            NodeValueView(segment.subgraph.nodes_array, segment.h),
            segment.iterations,
            segment.converged,
            segment.residuals,
        )
    return explanations


def _iterate_segments(
    segments: list[_Segment],
    tolerance: float,
    max_iterations: int,
) -> None:
    """Advance every segment's fixpoint together until all converge.

    Each segment's edges form a contiguous run of the shared list in serial
    edge order, so the single ``np.add.at`` scatter performs, per segment,
    exactly the serial accumulation; the per-segment residual is an exact
    ``max`` (order-insensitive), so convergence decisions — and therefore
    iteration counts — match the serial engine bit for bit.  A converged
    segment's factors are captured immediately; the segment coasts in the
    shared list until amortized compaction rebuilds it without finished
    segments (at least a quarter dead), keeping total compaction cost linear.
    """
    packed = _pack(segments)
    active = list(segments)
    h = np.ones(packed.total_nodes)
    live = len(active)
    iteration = 0
    while live and iteration < max_iterations:
        iteration += 1
        contributions = h[packed.dst] * packed.rates
        new_h = np.zeros(packed.total_nodes)
        np.add.at(new_h, packed.src, contributions)
        new_h[packed.target_pos] = 1.0
        diff = np.abs(new_h - h)
        seg_residuals = np.maximum.reduceat(diff, packed.node_starts)
        h = new_h
        finished = False
        for local, segment in enumerate(active):
            if segment.converged:
                continue  # coasting until compaction
            residual = float(seg_residuals[local])
            segment.residuals.append(residual)
            if residual < tolerance:
                start = packed.node_starts[local]
                segment.h = h[start : start + segment.num_local].copy()
                segment.iterations = iteration
                segment.converged = True
                live -= 1
                finished = True
        if (
            finished
            and live
            and _COMPACT_FRACTION * (len(active) - live) >= len(active)
        ):
            survivors = [s for s in active if not s.converged]
            h = np.concatenate(
                [
                    h[packed.node_starts[i] : packed.node_starts[i] + s.num_local]
                    for i, s in enumerate(active)
                    if not s.converged
                ]
            )
            active = survivors
            packed = _pack(active)

    for local, segment in enumerate(active):
        if not segment.converged:
            start = packed.node_starts[local]
            segment.h = h[start : start + segment.num_local].copy()
            segment.iterations = iteration


def batched_explain(
    graph: AuthorityTransferDataGraph,
    base_node_ids: list[str],
    target_ids: Sequence[str],
    scores: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    radius: int | None = 3,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_ADJUSTMENT_MAX_ITERATIONS,
) -> list[FlowExplanation]:
    """The full Figure 8 pipeline for many targets in one batched pass.

    The batched counterpart of :func:`repro.explain.explain`: one shared
    subgraph extraction followed by one multi-target flow-adjustment
    fixpoint.  Per target, the result is bit-identical to the serial
    pipeline.
    """
    subgraphs = batched_build_explaining_subgraphs(
        graph, base_node_ids, target_ids, radius
    )
    return batched_adjust_flows(subgraphs, scores, damping, tolerance, max_iterations)
