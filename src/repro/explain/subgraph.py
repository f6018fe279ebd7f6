"""Explaining-subgraph construction (Section 4, construction stage).

For a query ``Q`` and a target object ``v``, the explaining subgraph
``G_v^Q`` contains all nodes and edges of the authority transfer data graph
that lie on a directed path from the base set ``S(Q)`` to ``v`` — i.e. all
edges that can potentially carry authority flow to ``v``.  It is built in two
breadth-first passes:

1. *backward*: from ``v`` against edge direction, collecting the temporary
   subgraph ``D_1`` of nodes with a path to ``v`` (optionally limited to a
   radius ``L``; the paper finds ``L = 3`` adequate);
2. *forward*: from the base-set nodes inside ``D_1``, following edges whose
   endpoints both lie in ``D_1``; every node and edge traversed enters
   ``G_v^Q``.

Only edges with a strictly positive transfer rate are traversed — zero-rate
edges (e.g. DBLP's "cited" direction with rate 0.0) carry no authority.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExplanationError
from repro.graph.transfer_graph import AuthorityTransferDataGraph, build_incidence


@dataclass
class ExplainingSubgraph:
    """The explaining subgraph ``G_v^Q`` over dense node indices.

    ``depth_to_target`` maps each node to its shortest-path distance (in
    edges) to the target inside the subgraph — the ``D(v_k)`` of the
    content-based reformulation (Equation 11); :attr:`depth_array` is the
    same aligned with ``nodes``.  The batched engine passes every array
    form filled — sorted nodes, depths, per-edge local endpoints and the
    Equation 10 operator, with a
    :class:`~repro.graph.node_values.NodeValueView` over the depths; the
    serial builder passes a plain dict and the arrays are derived on demand.
    """

    graph: AuthorityTransferDataGraph
    target: int
    nodes: list[int]
    edge_ids: np.ndarray
    base_nodes: list[int]
    depth_to_target: Mapping[int, int]
    radius: int | None = None
    _nodes_array: np.ndarray | None = field(default=None, repr=False, compare=False)
    _edge_src_local: np.ndarray | None = field(default=None, repr=False, compare=False)
    _edge_dst_local: np.ndarray | None = field(default=None, repr=False, compare=False)
    _depth_array: np.ndarray | None = field(default=None, repr=False, compare=False)
    _flow_operator: tuple | None = field(default=None, repr=False, compare=False)
    _target_local: int | None = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def is_empty(self) -> bool:
        """True when no authority can reach the target (no base-set path)."""
        return self.num_edges == 0

    def contains_node(self, index: int) -> bool:
        position = int(self.local_indices_of(index))
        return position < self.num_nodes and self.nodes[position] == index

    @property
    def nodes_array(self) -> np.ndarray:
        """``nodes`` as a sorted int64 array (cached; backs local indexing)."""
        if self._nodes_array is None:
            self._nodes_array = np.asarray(self.nodes, dtype=np.int64)
        return self._nodes_array

    @property
    def depth_array(self) -> np.ndarray:
        """``D(v_k)`` for every subgraph node, aligned with ``nodes`` (cached).

        A node missing from ``depth_to_target`` counts as depth 0.
        """
        if self._depth_array is None:
            depths = self.depth_to_target
            self._depth_array = np.asarray(
                [depths.get(node, 0) for node in self.nodes], dtype=np.int64
            )
        return self._depth_array

    def local_indices_of(self, global_indices: np.ndarray) -> np.ndarray:
        """Positions of graph node indices inside the sorted ``nodes`` array.

        Callers must pass indices of subgraph members; ``nodes`` is sorted by
        construction, so this is one ``searchsorted`` instead of a dict build.
        """
        return np.searchsorted(self.nodes_array, global_indices)

    @property
    def edge_src_local(self) -> np.ndarray:
        """Subgraph-local source index of every subgraph edge (cached)."""
        if self._edge_src_local is None:
            self._edge_src_local = self.local_indices_of(
                self.graph.edge_source[self.edge_ids]
            )
        return self._edge_src_local

    @property
    def edge_dst_local(self) -> np.ndarray:
        """Subgraph-local target index of every subgraph edge (cached)."""
        if self._edge_dst_local is None:
            self._edge_dst_local = self.local_indices_of(
                self.graph.edge_target[self.edge_ids]
            )
        return self._edge_dst_local

    @property
    def target_local(self) -> int:
        """Position of the target inside ``nodes`` (cached)."""
        if self._target_local is None:
            self._target_local = int(self.local_indices_of(self.target))
        return self._target_local

    @property
    def flow_operator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Equation 10 operator as CSR ``(indptr, indices, rates)`` (cached).

        Row ``u`` holds subgraph node ``u``'s out-edges — target's local index
        and transfer rate — in ascending edge-id order, parallel edges kept
        apart, so a mat-vec accumulates ``h(u)`` term by term exactly as a
        scatter over ``edge_ids`` does.
        """
        if self._flow_operator is None:
            indptr, order = build_incidence(
                self.edge_src_local, self.num_nodes, self.num_edges
            )
            self._flow_operator = (
                indptr,
                self.edge_dst_local[order],
                self.graph.edge_rate[self.edge_ids[order]],
            )
        return self._flow_operator

    @property
    def target_id(self) -> str:
        return self.graph.node_id_of(self.target)

    def node_ids(self) -> list[str]:
        return [self.graph.node_id_of(i) for i in self.nodes]


def build_explaining_subgraph(
    graph: AuthorityTransferDataGraph,
    base_node_ids: list[str],
    target_id: str,
    radius: int | None = None,
) -> ExplainingSubgraph:
    """Build ``G_v^Q`` for ``target_id`` given the query's base set.

    ``radius`` limits the backward pass to paths of at most that many edges
    (the paper's ``L``); ``None`` means unbounded.
    """
    if radius is not None and radius < 1:
        raise ExplanationError(f"radius must be at least 1, got {radius}")
    target = graph.index_of(target_id)
    base_indices = [graph.index_of(nid) for nid in base_node_ids]

    # Stage 1: backward BFS from the target; record depth-to-target.
    depth: dict[int, int] = {target: 0}
    frontier: deque[int] = deque([target])
    while frontier:
        node = frontier.popleft()
        node_depth = depth[node]
        if radius is not None and node_depth >= radius:
            continue
        for edge_id in graph.in_edge_ids(node):
            if graph.edge_rate[edge_id] <= 0.0:
                continue
            source = int(graph.edge_source[edge_id])
            if source not in depth:
                depth[source] = node_depth + 1
                frontier.append(source)

    # Stage 2: forward BFS from base-set nodes within the temporary subgraph.
    # A base node listed twice is still expanded once: its edges enter once.
    roots = [b for b in base_indices if b in depth]
    reached: set[int] = set(roots)
    kept_edges: list[int] = []
    frontier = deque(dict.fromkeys(roots))
    while frontier:
        node = frontier.popleft()
        for edge_id in graph.out_edge_ids(node):
            if graph.edge_rate[edge_id] <= 0.0:
                continue
            dest = int(graph.edge_target[edge_id])
            if dest not in depth:
                continue
            kept_edges.append(int(edge_id))
            if dest not in reached:
                reached.add(dest)
                frontier.append(dest)

    # The target belongs to the subgraph even when nothing reaches it, so an
    # "empty explanation" still names the object being explained.
    reached.add(target)
    nodes = sorted(reached)
    return ExplainingSubgraph(
        graph=graph,
        target=target,
        nodes=nodes,
        edge_ids=np.asarray(sorted(kept_edges), dtype=np.int64),
        base_nodes=[b for b in roots if b in reached],
        depth_to_target={n: depth[n] for n in nodes},
        radius=radius,
    )
