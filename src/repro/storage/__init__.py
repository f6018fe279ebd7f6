"""Mini relational store, graph shredding, and mmap-able slab files."""

from repro.storage.relational import Database, ForeignKey, Table, TableSchema
from repro.storage.slab import SlabFile, SlabFormatError, write_slab
from repro.storage.shred import (
    EdgeFromForeignKey,
    EdgeTable,
    NodeTable,
    ShredSpec,
    node_id,
    shred_to_graph,
)

__all__ = [
    "Database",
    "EdgeFromForeignKey",
    "EdgeTable",
    "ForeignKey",
    "NodeTable",
    "ShredSpec",
    "SlabFile",
    "SlabFormatError",
    "Table",
    "TableSchema",
    "node_id",
    "shred_to_graph",
    "write_slab",
]
