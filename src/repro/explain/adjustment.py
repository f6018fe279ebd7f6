"""Flow adjustment on the explaining subgraph (Section 4, Equations 6-10).

The original flows ``Flow_0`` overcount: part of the authority entering a node
leaks out of the explaining subgraph and never reaches the target.  The paper
reduces each node's *incoming* flows by a factor ``h(v_k)`` satisfying the
fixpoint

    h(v_k) = sum over subgraph edges (v_k -> v_j) of  h(v_j) * alpha(v_k -> v_j)
                                                              (Equation 10)

with ``h(target) = 1`` fixed (the target's incoming flows are exactly what we
want to explain).  Theorem 1 shows the iteration converges — it is a PageRank
computation with in/out edges swapped and no damping.  The adjusted flows are

    Flow(v_i -> v_k) = h(v_k) * Flow_0(v_i -> v_k)            (Equation 7)

Note (Observation 2) that the converged ObjectRank2 scores are *not* needed to
compute ``h``; they only enter through ``Flow_0``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError
from repro.explain.flows import local_node_outgoing_flow, original_edge_flows
from repro.explain.subgraph import ExplainingSubgraph
from repro.graph.node_values import NodeValueView
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_TOLERANCE,
    check_damping,
    check_max_iterations,
)

DEFAULT_ADJUSTMENT_MAX_ITERATIONS = 1000


@dataclass
class FlowExplanation:
    """The fully adjusted explanation for one target object.

    ``edge_ids`` are ids into the underlying transfer graph's edge arrays;
    ``flows`` / ``original_flows`` are aligned with them.  ``reduction`` holds
    the converged ``h`` factors for every graph node in the subgraph (a
    :class:`~repro.graph.node_values.NodeValueView` over the fixpoint's
    array unless the subgraph is empty).
    """

    subgraph: ExplainingSubgraph
    damping: float
    original_flows: np.ndarray
    flows: np.ndarray
    reduction: Mapping[int, float]
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)

    # -- per-node aggregates -------------------------------------------------

    @property
    def graph(self):
        return self.subgraph.graph

    @property
    def edge_ids(self) -> np.ndarray:
        return self.subgraph.edge_ids

    def incoming_flow(self, node_index: int) -> float:
        """``I(v_k)`` (Equation 6a) under the adjusted flows."""
        mask = self.graph.edge_target[self.edge_ids] == node_index
        return float(self.flows[mask].sum())

    def outgoing_flow(self, node_index: int) -> float:
        """``O(v_k)`` (Equation 6b) under the adjusted flows."""
        mask = self.graph.edge_source[self.edge_ids] == node_index
        return float(self.flows[mask].sum())

    def outgoing_flow_by_node(self) -> dict[int, float]:
        """Adjusted outgoing flow for every subgraph node (one pass).

        Accumulates over subgraph-local indices — same edge-order summation
        as the per-edge loop it replaced, without the per-edge Python cost.
        """
        totals = local_node_outgoing_flow(self.subgraph, self.flows)
        return {
            node: float(total) for node, total in zip(self.subgraph.nodes, totals)
        }

    def target_inflow(self) -> float:
        """Total adjusted authority reaching the target — the explanation's
        headline number ("the total authority that v receives"):
        :meth:`incoming_flow` of the target, masked on local indices."""
        subgraph = self.subgraph
        return float(self.flows[subgraph.edge_dst_local == subgraph.target_local].sum())

    def adjusted_scores(self) -> dict[int, float]:
        """Adjusted node scores ``r~(v_k) = O(v_k) / d`` (Equation 8).

        The target keeps its original semantics (its incoming flows are
        unadjusted), so it is reported as its adjusted *inflow* divided by the
        damping factor.
        """
        scores = {
            node: total / self.damping
            for node, total in self.outgoing_flow_by_node().items()
        }
        scores[self.subgraph.target] = self.target_inflow() / self.damping
        return scores

    def type_flows(self) -> tuple[np.ndarray, np.ndarray]:
        """``F(e_S)`` over every edge type of the graph (Section 5.2).

        ``(totals, present)``, both indexed like ``graph.edge_types``: one
        ``np.bincount`` adds each type's adjusted flows in edge order from
        0.0, and ``present`` marks the types the subgraph has.
        """
        types = self.graph.edge_type_index[self.edge_ids]
        num_types = len(self.graph.edge_types)
        present = np.zeros(num_types, dtype=bool)
        present[types] = True
        return np.bincount(types, weights=self.flows, minlength=num_types), present

    def edge_flow_arrays(
        self, by_flow: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjusted flows as ``(source index, target index, flow)`` arrays.

        In subgraph edge order, or with ``by_flow`` by descending flow —
        one stable argsort, so tied flows keep their edge order exactly as
        ``sorted(..., key=flow, reverse=True)`` would leave them.
        """
        edge_ids, flows = self.edge_ids, self.flows
        if by_flow:
            order = np.argsort(-flows, kind="stable")
            edge_ids, flows = edge_ids[order], flows[order]
        return self.graph.edge_source[edge_ids], self.graph.edge_target[edge_ids], flows

    def edge_flow_items(self, by_flow: bool = False) -> list[tuple[str, str, float]]:
        """:meth:`edge_flow_arrays` as ``(source_id, target_id, flow)`` triples."""
        sources, targets, flows = self.edge_flow_arrays(by_flow)
        node_id = self.graph.node_ids.__getitem__
        return list(
            zip(
                map(node_id, sources.tolist()),
                map(node_id, targets.tolist()),
                flows.tolist(),
            )
        )


def adjust_flows(
    subgraph: ExplainingSubgraph,
    scores: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_ADJUSTMENT_MAX_ITERATIONS,
    raise_on_divergence: bool = False,
) -> FlowExplanation:
    """Run the Explaining-ObjectRank2 fixpoint (Figure 8, steps 3-7).

    ``scores`` is the converged ObjectRank2 vector for the query.  Returns a
    :class:`FlowExplanation` with the adjusted flows; ``iterations`` is the
    count reported in Table 3 of the paper.
    """
    check_damping(damping)
    check_max_iterations(max_iterations)
    graph = subgraph.graph
    edge_ids = subgraph.edge_ids
    flow0 = original_edge_flows(graph, scores, damping, edge_ids)

    if subgraph.is_empty:
        return FlowExplanation(
            subgraph, damping, flow0, flow0.copy(), {subgraph.target: 1.0}, 0, True
        )

    # Dense working arrays over the subgraph's local node numbering.
    # ``nodes`` is sorted, so local indices are one searchsorted per endpoint
    # array instead of a per-edge Python loop over a dict.
    num_local = subgraph.num_nodes
    target_local = int(np.searchsorted(subgraph.nodes_array, subgraph.target))
    edge_src_local = subgraph.edge_src_local
    edge_dst_local = subgraph.edge_dst_local
    rates = graph.edge_rate[edge_ids]

    h = np.ones(num_local)
    residuals: list[float] = []
    converged = False
    iterations = 0
    # Rates summing above 1 grow ``h`` past the float range; like the
    # Python-float loop, numpy must turn that into inf and NaN quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iterations + 1):
            contributions = h[edge_dst_local] * rates
            new_h = np.zeros(num_local)
            np.add.at(new_h, edge_src_local, contributions)
            new_h[target_local] = 1.0
            residual = float(np.abs(new_h - h).max())
            residuals.append(residual)
            h = new_h
            if residual < tolerance:
                converged = True
                break
    if not converged and raise_on_divergence:
        raise ConvergenceError("explaining flow adjustment", iterations, residuals[-1])

    flows = h[edge_dst_local] * flow0  # Equation 7
    reduction = NodeValueView(subgraph.nodes_array, h)
    return FlowExplanation(
        subgraph, damping, flow0, flows, reduction, iterations, converged, residuals
    )
