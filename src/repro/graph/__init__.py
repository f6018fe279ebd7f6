"""Typed labeled graphs: data graphs, schema graphs and authority transfer
graphs (Section 2 of the paper)."""

from repro.graph.authority import AuthorityTransferSchemaGraph, Direction, EdgeType
from repro.graph.build_cache import BuildCache
from repro.graph.conformance import check_conformance, conforms, find_violations
from repro.graph.data_graph import DataEdge, DataGraph, DataNode
from repro.graph.schema import SchemaEdge, SchemaGraph
from repro.graph.serialization import load_dataset, save_dataset
from repro.graph.transfer_graph import AuthorityTransferDataGraph

__all__ = [
    "AuthorityTransferDataGraph",
    "AuthorityTransferSchemaGraph",
    "BuildCache",
    "DataEdge",
    "DataGraph",
    "DataNode",
    "Direction",
    "EdgeType",
    "SchemaEdge",
    "SchemaGraph",
    "check_conformance",
    "conforms",
    "find_violations",
    "load_dataset",
    "save_dataset",
]
