"""Conformance of a data graph to a schema graph (Section 2).

A data graph ``D`` conforms to a schema graph ``G`` when there is a unique
assignment of data-graph nodes to schema-graph nodes (here: the node label
must be a schema label) and a consistent assignment of edges (every data edge
must map to a schema edge between the corresponding labels, matching the
edge's role when one is given).
"""

from __future__ import annotations

from itertools import chain, islice

from repro.errors import ConformanceError
from repro.graph.data_graph import DataEdge, DataGraph
from repro.graph.schema import SchemaGraph


def node_violation(schema: SchemaGraph, node_id: str, label: str) -> str | None:
    """Why a node labelled ``label`` cannot conform, or ``None`` when it can."""
    if schema.has_label(label):
        return None
    return f"node {node_id!r} has unknown label {label!r}"


def edge_violation(
    schema: SchemaGraph, edge: DataEdge, source_label: str, target_label: str
) -> str | None:
    """Why ``edge`` between nodes so labelled cannot conform, or ``None``.

    An unknown endpoint label resolves to no schema edge either.
    """
    if schema.resolve_edge(source_label, target_label, edge.role) is not None:
        return None
    return (
        f"edge {edge.source!r}->{edge.target!r} (role {edge.role!r}) has no "
        f"matching schema edge {source_label!r}->{target_label!r}"
    )


def find_violations(data_graph: DataGraph, schema: SchemaGraph, limit: int = 50) -> list[str]:
    """Collect human-readable conformance violations (at most ``limit``)."""

    def label(node_id: str) -> str:
        return data_graph.node(node_id).label

    checks = chain(
        (node_violation(schema, n.node_id, n.label) for n in data_graph.nodes()),
        (
            edge_violation(schema, e, label(e.source), label(e.target))
            for e in data_graph.edges()
        ),
    )
    return list(islice(filter(None, checks), limit))


def check_conformance(data_graph: DataGraph, schema: SchemaGraph) -> None:
    """Raise :class:`ConformanceError` if the data graph does not conform."""
    violations = find_violations(data_graph, schema)
    if violations:
        raise ConformanceError(violations)


def conforms(data_graph: DataGraph, schema: SchemaGraph) -> bool:
    """Whether the data graph conforms to the schema graph."""
    return not find_violations(data_graph, schema, limit=1)
