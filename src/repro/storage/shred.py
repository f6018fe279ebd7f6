"""Shredding a relational database into a data graph (Section 6, Datasets).

A :class:`ShredSpec` declares which tables become node types and which
tables/foreign keys become edges; :func:`shred_to_graph` then materializes the
labeled data graph the ObjectRank2 machinery consumes.

Edge direction matters for authority flow: a foreign key points from the
child row to the referenced row, but the schema-graph edge may run the other
way (DBLP's ``Year -> Paper`` "contains" edge comes from ``paper.year_id``).
``EdgeFromForeignKey.reverse`` flips the produced edge accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import StorageError
from repro.graph.data_graph import DataGraph
from repro.storage.relational import Database


def node_id(table: str, key: Any) -> str:
    """The canonical graph node id of a table row."""
    return f"{table}:{key}"


@dataclass(frozen=True)
class NodeTable:
    """One table whose rows become graph nodes.

    ``attributes`` lists the columns copied into the node's attribute map
    (all stringified); the primary key and foreign keys are structural and
    excluded by default.
    """

    table: str
    label: str
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class EdgeFromForeignKey:
    """A foreign-key column of a node table that becomes an edge."""

    table: str
    column: str
    role: str
    reverse: bool = False  # True: edge runs referenced-row -> child-row


@dataclass(frozen=True)
class EdgeTable:
    """A pure link (m:n) table whose rows become edges."""

    table: str
    source_column: str
    target_column: str
    source_table: str
    target_table: str
    role: str


@dataclass(frozen=True)
class ShredSpec:
    """Complete mapping from a relational database to a data graph."""

    node_tables: tuple[NodeTable, ...]
    fk_edges: tuple[EdgeFromForeignKey, ...] = ()
    edge_tables: tuple[EdgeTable, ...] = ()


def shred_to_graph(database: Database, spec: ShredSpec) -> DataGraph:
    """Materialize the data graph described by ``spec``."""
    graph = DataGraph()
    referenced_table: dict[tuple[str, str], str] = {}

    for node_table in spec.node_tables:
        table = database.table(node_table.table)
        for fk in table.schema.foreign_keys:
            referenced_table[(node_table.table, fk.column)] = fk.references
        for row in table.stored_rows():
            key = row[table.schema.primary_key]
            attributes = {
                column: str(row[column])
                for column in node_table.attributes
                if row.get(column) is not None
            }
            graph.add_node(node_id(node_table.table, key), node_table.label, attributes)

    for fk_edge in spec.fk_edges:
        table = database.table(fk_edge.table)
        target_table = referenced_table.get((fk_edge.table, fk_edge.column))
        if target_table is None:
            raise StorageError(
                f"{fk_edge.table}.{fk_edge.column} is not a declared foreign key"
            )
        for row in table.stored_rows():
            value = row.get(fk_edge.column)
            if value is None:
                continue
            child = node_id(fk_edge.table, row[table.schema.primary_key])
            parent = node_id(target_table, value)
            if fk_edge.reverse:
                graph.add_edge(parent, child, fk_edge.role)
            else:
                graph.add_edge(child, parent, fk_edge.role)

    for edge_table in spec.edge_tables:
        table = database.table(edge_table.table)
        for row in table.stored_rows():
            source = node_id(edge_table.source_table, row[edge_table.source_column])
            target = node_id(edge_table.target_table, row[edge_table.target_column])
            graph.add_edge(source, target, edge_table.role)

    return graph

