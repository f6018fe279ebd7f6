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
  iteration per node — over epoch-tagged visited/depth stamps reused across
  targets; frontiers are deduplicated by marking, and the sorted node and
  edge lists are read off the marks with ``flatnonzero``, so nothing on
  the path sorts or searches.  Level-synchronous expansion discovers
  exactly the FIFO BFS's node set at exactly its depths, so the resulting
  :class:`ExplainingSubgraph` equals the serial one field for field — and
  it arrives with its subgraph-local edge endpoints and the Equation 10
  operator (a CSR triple, rows = source) already filled.

* **Multi-target flow-adjustment fixpoint.**  The per-target iterations of
  Equation 10 are independent, so their CSR triples are concatenated (with
  per-target local-node offsets) into one block-diagonal operator and
  advanced together: one CSR mat-vec per iteration for the whole batch,
  like ObjectRank2's own step.  Targets converge independently: a converged
  target's factors are *frozen* (captured immediately, then the segment
  coasts harmlessly) and amortized *compaction* rebuilds the operator
  without finished segments once a quarter of the batch is done.

* **Compiled kernels.**  When the process has :mod:`repro.ranking._native`,
  both stages run there instead, each chosen in one place:
  :meth:`SubgraphExtractor.extract_many` binds the extraction kernel once per
  batch, :func:`batched_adjust_flows` hands every target's operator to the
  Equation 10 kernel.  Extraction is FIFO BFS over the same incidence and the
  same stamps, read back in index order; a node set and its shortest depths
  do not depend on traversal order, and nothing in it is floating point, so
  every :class:`ExplainingSubgraph` field is ``==`` the numpy extractor's.
  The fixpoint kernel adds each row's terms from 0.0 in CSR order (four
  rows side by side, each in its own order) with FMA contraction off and
  takes an exact max, so each target, iterated alone to its own convergence,
  needs no freezing or compaction and yields the same floats.

This is a performance change, not an approximation: a CSR row accumulates
from 0.0 over its node's out-edges in ascending edge-id order, which is the
order the serial scatter adds them in, and the per-segment residual is an
exact max — flows, node reduction factors, iteration counts (Table 3) and
residual traces are all identical to :func:`repro.explain.adjust_flows` per
target, on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, ExplanationError
from repro.explain.adjustment import DEFAULT_ADJUSTMENT_MAX_ITERATIONS, FlowExplanation
from repro.explain.flows import original_edge_flows
from repro.explain.subgraph import ExplainingSubgraph
from repro.graph.node_values import NodeValueView
from repro.graph.transfer_graph import AuthorityTransferDataGraph, gather_rows
from repro.ranking import _native
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_TOLERANCE,
    check_damping,
    check_max_iterations,
)

#: Compaction threshold: rebuild the shared operator once this fraction of
#: the still-packed targets has converged.  Rebuilding is O(remaining edges);
#: amortizing it keeps total compaction cost linear in the batch size.
_COMPACT_FRACTION = 4


class _WorkArrays:
    """Epoch-tagged per-extraction scratch, reused across targets.

    ``tag[v] == epoch`` marks membership of the current target's backward
    set, ``reach[v] == epoch`` of its forward set; bumping the epoch resets
    both in O(1).  ``local`` is where the subgraph's local ids are looked
    up.  One instance per :meth:`SubgraphExtractor.extract_many` call —
    instances are never shared concurrently.
    """

    def __init__(self, num_nodes: int) -> None:
        self.tag = np.zeros(num_nodes, dtype=np.int64)
        self.depth = np.zeros(num_nodes, dtype=np.int64)
        self.reach = np.zeros(num_nodes, dtype=np.int64)
        self.local = np.zeros(num_nodes, dtype=np.int64)
        self.epoch = 0


def _distinct(ids: np.ndarray, universe: int) -> np.ndarray:
    """``ids`` (all below ``universe``) ascending and without repeats —
    read off a mask, not sorted."""
    mark = np.zeros(universe, dtype=bool)
    mark[ids] = True
    return np.flatnonzero(mark)


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
        tag, depth, reach, local = work.tag, work.depth, work.reach, work.local
        num_nodes = graph.num_nodes

        # Backward pass, level-synchronous: frontier ``L`` holds exactly the
        # nodes at BFS depth ``L``, so the depths equal the serial FIFO BFS's.
        tag[target] = epoch
        depth[target] = 0
        frontier = np.asarray([target], dtype=np.int64)
        level = 0
        while frontier.size and (radius is None or level < radius):
            sources = graph.edge_source[gather_rows(*self._in_index, frontier)]
            unseen = tag[sources] != epoch
            fresh = _distinct(sources[unseen], num_nodes)
            level += 1
            tag[fresh] = epoch
            depth[fresh] = level
            frontier = fresh

        # Forward pass from the base-set nodes inside the backward set (in
        # the base list's order and multiplicity, like the serial queue's
        # seed), following edges that stay inside it.
        roots = base_indices[tag[base_indices] == epoch]
        reach[roots] = epoch
        frontier = _distinct(roots, num_nodes)
        while frontier.size:
            dests = graph.edge_target[gather_rows(*self._out_index, frontier)]
            unseen = (tag[dests] == epoch) & (reach[dests] != epoch)
            fresh = _distinct(dests[unseen], num_nodes)
            reach[fresh] = epoch
            frontier = fresh

        # Every root reaches the target, so a forward set that misses it is
        # empty: the subgraph then names the target alone, with no row.
        reached = np.flatnonzero(reach == epoch)
        nodes_array = reached if reached.size else np.asarray([target], np.int64)
        num_local = nodes_array.size
        local[nodes_array] = np.arange(num_local, dtype=np.int64)

        # Equation 10's operator, row by row: the out-incidence lists each
        # node's edges in ascending edge-id order, and gathering it over the
        # sorted forward set keeps that order inside every row.
        out_indptr, out_edges = self._out_index
        eids = gather_rows(out_indptr, out_edges, reached)
        dests = graph.edge_target[eids]
        inside = tag[dests] == epoch
        kept_before = np.zeros(eids.size + 1, dtype=np.int64)
        np.cumsum(inside, out=kept_before[1:])
        indptr = np.zeros(num_local + 1, dtype=np.int64)
        indptr[1 : reached.size + 1] = kept_before[
            np.cumsum(out_indptr[reached + 1] - out_indptr[reached])
        ]
        eids, dests = eids[inside], dests[inside]

        edge_ids = _distinct(eids, graph.num_edges)
        return _subgraph(
            graph,
            target,
            radius,
            nodes_array,
            depth[nodes_array],
            roots,
            (indptr, local[dests], graph.edge_rate[eids]),
            edge_ids,
            local[graph.edge_source[edge_ids]],
            local[graph.edge_target[edge_ids]],
            int(local[target]),
        )

    def extract_many(
        self,
        base_indices: np.ndarray,
        targets: Sequence[int],
        radius: int | None,
    ) -> list[ExplainingSubgraph]:
        """Extract a run of targets sequentially with shared scratch: through
        the compiled kernel when the process has it (same arrays), else
        through :meth:`extract`."""
        kernel = _native.bind_subgraph_kernel(self.graph, base_indices)
        if kernel is None:
            work = _WorkArrays(self.graph.num_nodes)
            return [self.extract(base_indices, t, radius, work) for t in targets]
        return [
            _subgraph(self.graph, t, radius, *kernel(t, radius)) for t in targets
        ]


def _subgraph(
    graph: AuthorityTransferDataGraph,
    target: int,
    radius: int | None,
    nodes: np.ndarray,
    depths: np.ndarray,
    roots: np.ndarray,
    flow_operator: tuple[np.ndarray, np.ndarray, np.ndarray],
    edge_ids: np.ndarray,
    edge_src_local: np.ndarray,
    edge_dst_local: np.ndarray,
    target_local: int,
) -> ExplainingSubgraph:
    """An extracted ``G_v^Q`` with every array form filled."""
    return ExplainingSubgraph(
        graph=graph,
        target=target,
        nodes=nodes.tolist(),
        edge_ids=edge_ids,
        base_nodes=roots.tolist(),
        depth_to_target=NodeValueView(nodes, depths),
        radius=radius,
        _nodes_array=nodes,
        _edge_src_local=edge_src_local,
        _edge_dst_local=edge_dst_local,
        _depth_array=depths,
        _flow_operator=flow_operator,
        _target_local=target_local,
    )


def batched_build_explaining_subgraphs(
    graph: AuthorityTransferDataGraph,
    base: np.ndarray | Sequence[str],
    target_ids: Sequence[str],
    radius: int | None = None,
    extractor: SubgraphExtractor | None = None,
) -> list[ExplainingSubgraph]:
    """``G_v^Q`` for every target, sharing one positive-rate adjacency.

    ``base`` is the base set as node indices (an int array, e.g.
    :attr:`~repro.ranking.convergence.RankedResult.base_indices`) or as
    node ids, looked up one by one.  Field-for-field identical to
    calling :func:`repro.explain.build_explaining_subgraph` per target.
    Pass a prebuilt ``extractor`` to reuse the filtered adjacency across
    batches under an unchanged rate setting.
    """
    if radius is not None and radius < 1:
        raise ExplanationError(f"radius must be at least 1, got {radius}")
    targets = [graph.index_of(t) for t in target_ids]
    if not (isinstance(base, np.ndarray) and base.dtype.kind in "iu"):
        base = graph.indices_of(list(base))
    extractor = extractor or SubgraphExtractor(graph)
    return extractor.extract_many(base, targets, radius)


# -- multi-target flow adjustment -------------------------------------------


@dataclass
class _Segment:
    """One target's slice of the shared fixpoint state."""

    position: int  # index into the caller's subgraph list
    subgraph: ExplainingSubgraph
    flow0: np.ndarray
    residuals: list[float]
    h: np.ndarray | None = None  # captured factors (at convergence or cutoff)
    iterations: int = 0
    converged: bool = False


@dataclass
class _Packed:
    """The block-diagonal Equation 10 operator over the still-active segments."""

    operator: sparse.csr_matrix
    node_bounds: np.ndarray  # segment ``i`` owns ``[bounds[i], bounds[i + 1])``
    target_pos: np.ndarray


def _pack(segments: list[_Segment]) -> _Packed:
    """Concatenate the segments' CSR triples with per-segment offsets.

    Handed to scipy as ``(data, indices, indptr)`` untouched: summing or
    sorting a row's parallel edges would change the accumulation order.
    """
    subgraphs = [s.subgraph for s in segments]
    indptrs, columns, rates = zip(*(sg.flow_operator for sg in subgraphs))
    node_bounds = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([sg.num_nodes for sg in subgraphs], out=node_bounds[1:])
    edge_starts = np.zeros(len(segments), dtype=np.int64)
    np.cumsum([sg.num_edges for sg in subgraphs[:-1]], out=edge_starts[1:])
    indptr = np.concatenate(
        [[0]] + [rows[1:] + start for rows, start in zip(indptrs, edge_starts)]
    )
    indices = np.concatenate(
        [local + start for local, start in zip(columns, node_bounds)]
    )
    total = int(node_bounds[-1])
    target_pos = node_bounds[:-1] + np.asarray(
        [sg.target_local for sg in subgraphs], dtype=np.int64
    )
    operator = sparse.csr_matrix(
        (np.concatenate(rates), indices, indptr), shape=(total, total)
    )
    return _Packed(operator, node_bounds, target_pos)


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

    The compiled kernel, when the process has it, runs each target's
    fixpoint to its own convergence; otherwise :func:`_iterate_segments`
    advances them together.  ``raise_on_divergence`` raises for the first
    target that fails to converge within ``max_iterations``, like the serial
    path does for its single target.
    """
    check_damping(damping)
    check_max_iterations(max_iterations)
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
        segments.append(_Segment(position, subgraph, flow0, residuals=[]))

    found = _native.flow_fixpoints(
        [segment.subgraph.flow_operator for segment in segments],
        [segment.subgraph.target_local for segment in segments],
        tolerance,
        max_iterations,
    )
    if found is None and segments:
        _iterate_segments(segments, tolerance, max_iterations)
    for segment, (h, residuals, iterations, converged) in zip(segments, found or ()):
        segment.h, segment.residuals = h, residuals
        segment.iterations, segment.converged = iterations, converged

    for segment in segments:
        if not segment.converged and raise_on_divergence:
            raise ConvergenceError(
                "explaining flow adjustment",
                segment.iterations,
                segment.residuals[-1],
            )
        flows = segment.h[segment.subgraph.edge_dst_local] * segment.flow0  # Eq. 7
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

    One CSR mat-vec per iteration: row ``u`` of a segment's block starts
    from 0.0 and adds ``rate * h[v]`` over ``u``'s out-edges in ascending
    edge-id order — exactly the serial scatter's accumulation; the
    per-segment residual is an exact ``max`` (order-insensitive), so
    convergence decisions — and therefore iteration counts — match the
    serial engine bit for bit.  A converged segment's factors are captured
    immediately; the segment coasts in the shared operator until amortized
    compaction rebuilds it without finished segments (at least a quarter
    dead), keeping total compaction cost linear.
    """
    packed = _pack(segments)
    active = list(segments)
    h = np.ones(packed.operator.shape[0])
    live = len(active)
    iteration = 0
    # Rates summing above 1 grow ``h`` past the float range: inf and NaN,
    # quietly, as in the serial loop.
    with np.errstate(over="ignore", invalid="ignore"):
        while live and iteration < max_iterations:
            iteration += 1
            new_h = packed.operator @ h
            new_h[packed.target_pos] = 1.0
            diff = np.abs(new_h - h)
            seg_residuals = np.maximum.reduceat(diff, packed.node_bounds[:-1])
            h = new_h
            finished = False
            for local, segment in enumerate(active):
                if segment.converged:
                    continue  # coasting until compaction
                residual = float(seg_residuals[local])
                segment.residuals.append(residual)
                if residual < tolerance:
                    bounds = packed.node_bounds[local : local + 2]
                    segment.h = h[bounds[0] : bounds[1]].copy()
                    segment.iterations = iteration
                    segment.converged = True
                    live -= 1
                    finished = True
            if (
                finished
                and live
                and _COMPACT_FRACTION * (len(active) - live) >= len(active)
            ):
                bounds = packed.node_bounds
                h = np.concatenate(
                    [
                        h[bounds[i] : bounds[i + 1]]
                        for i, s in enumerate(active)
                        if not s.converged
                    ]
                )
                active = [s for s in active if not s.converged]
                packed = _pack(active)

    for local, segment in enumerate(active):
        if not segment.converged:
            bounds = packed.node_bounds[local : local + 2]
            segment.h = h[bounds[0] : bounds[1]].copy()
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
    check_damping(damping)
    check_max_iterations(max_iterations)
    subgraphs = batched_build_explaining_subgraphs(
        graph, base_node_ids, target_ids, radius
    )
    return batched_adjust_flows(subgraphs, scores, damping, tolerance, max_iterations)
