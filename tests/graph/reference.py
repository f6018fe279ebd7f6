"""Reference loops for the transfer-graph build (Eq. 1) — the test oracle.

The per-edge constructor body, the per-edge conformance walk, the
whole-graph ``remove_node`` and the coordinate-form transition matrix that
the array-native build, the neighbour-local removal and the per-topology CSR
pattern replaced, kept verbatim so the new code can be checked
``array_equal`` / ``==`` against them (tests/graph/test_transfer_build.py,
tests/graph/test_data_graph.py, tests/graph/test_transfer_graph.py).
Nothing in ``src`` calls these.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy import sparse

from repro.errors import ConformanceError, UnknownNodeError
from repro.graph.authority import AuthorityTransferSchemaGraph, Direction, EdgeType
from repro.graph.data_graph import DataEdge, DataGraph
from repro.graph.schema import SchemaEdge, SchemaGraph
from repro.graph.transfer_graph import build_incidence


def reference_resolve_schema_edge(
    data_graph: DataGraph, schema: SchemaGraph, edge: DataEdge
) -> SchemaEdge | None:
    """Map one data edge to its schema edge, or ``None`` when there is none."""
    source = data_graph.node(edge.source)
    target = data_graph.node(edge.target)
    if not schema.has_label(source.label) or not schema.has_label(target.label):
        return None
    return schema.resolve_edge(source.label, target.label, edge.role)


def reference_find_violations(
    data_graph: DataGraph, schema: SchemaGraph, limit: int = 50
) -> list[str]:
    """The violation list, one ``resolve`` per node and per edge."""
    violations: list[str] = []
    for node in data_graph.nodes():
        if not schema.has_label(node.label):
            violations.append(f"node {node.node_id!r} has unknown label {node.label!r}")
            if len(violations) >= limit:
                return violations
    for edge in data_graph.edges():
        if reference_resolve_schema_edge(data_graph, schema, edge) is None:
            source_label = data_graph.node(edge.source).label
            target_label = data_graph.node(edge.target).label
            violations.append(
                f"edge {edge.source!r}->{edge.target!r} (role {edge.role!r}) has no "
                f"matching schema edge {source_label!r}->{target_label!r}"
            )
            if len(violations) >= limit:
                return violations
    return violations


def reference_transfer_arrays(
    data_graph: DataGraph, transfer_schema: AuthorityTransferSchemaGraph
) -> SimpleNamespace:
    """Every array of ``D^A`` by the per-edge loop (validate, then build)."""
    violations = reference_find_violations(data_graph, transfer_schema.schema)
    if violations:
        raise ConformanceError(violations)
    node_ids = data_graph.node_ids()
    node_index = {nid: i for i, nid in enumerate(node_ids)}
    num_nodes = len(node_ids)

    edge_types = transfer_schema.edge_types()
    type_index = {t: i for i, t in enumerate(edge_types)}

    sources: list[int] = []
    targets: list[int] = []
    types: list[int] = []
    schema = transfer_schema.schema
    for edge in data_graph.edges():
        schema_edge = reference_resolve_schema_edge(data_graph, schema, edge)
        u = node_index[edge.source]
        v = node_index[edge.target]
        sources.extend((u, v))
        targets.extend((v, u))
        types.append(type_index[EdgeType(schema_edge, Direction.FORWARD)])
        types.append(type_index[EdgeType(schema_edge, Direction.BACKWARD)])

    edge_source = np.asarray(sources, dtype=np.int64)
    edge_target = np.asarray(targets, dtype=np.int64)
    edge_type_index = np.asarray(types, dtype=np.int64)
    num_edges = len(edge_source)

    num_types = max(len(edge_types), 1)
    group_key = edge_source * num_types + edge_type_index
    counts = np.bincount(group_key, minlength=num_nodes * num_types)
    edge_out_degree = counts[group_key] if num_edges else np.zeros(0, dtype=np.int64)

    alphas = np.asarray([transfer_schema.rate(t) for t in edge_types], dtype=np.float64)
    edge_rate = np.zeros(num_edges, dtype=np.float64)
    if num_edges:
        edge_rate = alphas[edge_type_index] / edge_out_degree
    return SimpleNamespace(
        node_ids=node_ids,
        edge_types=edge_types,
        edge_source=edge_source,
        edge_target=edge_target,
        edge_type_index=edge_type_index,
        edge_out_degree=edge_out_degree,
        edge_rate=edge_rate,
        out_index=build_incidence(edge_source, num_nodes, num_edges),
        in_index=build_incidence(edge_target, num_nodes, num_edges),
    )


def reference_remove_node(graph: DataGraph, node_id: str) -> None:
    """``DataGraph.remove_node`` by rewriting every adjacency list."""
    node = graph._nodes.pop(node_id, None)
    if node is None:
        raise UnknownNodeError(node_id)
    del graph._out[node_id]
    del graph._in[node_id]
    graph._edges = [
        e for e in graph._edges if e.source != node_id and e.target != node_id
    ]
    for edges in graph._out.values():
        edges[:] = [e for e in edges if e.target != node_id]
    for edges in graph._in.values():
        edges[:] = [e for e in edges if e.source != node_id]
    graph._version += 1
    graph._topology = object()


def tricky_rates() -> AuthorityTransferSchemaGraph:
    """Two roles between one label pair, a self edge, a label with no edges."""
    schema = SchemaGraph()
    for label in ("A", "B", "C"):
        schema.add_label(label)
    schema.add_edge("A", "B", "r1")
    schema.add_edge("A", "B", "r2")
    schema.add_edge("A", "A", "self")
    schema.add_edge("B", "A", "back")
    return AuthorityTransferSchemaGraph(schema, default_rate=0.3)


def reference_matrix(graph) -> sparse.csr_matrix:
    """``graph.matrix()`` from coordinate form, the construction a per-topology
    CSR pattern replaced: scipy groups by row, sorts each row by column
    (``sort_indices``) and sums duplicates (``sum_duplicates``) on every call.
    """
    return sparse.csr_matrix(
        (graph.edge_rate, (graph.edge_target, graph.edge_source)),
        shape=(graph.num_nodes, graph.num_nodes),
    )
