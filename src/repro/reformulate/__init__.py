"""Query reformulation from relevance feedback (Section 5)."""

from repro.reformulate.aggregation import AGGREGATORS, aggregate_arrays, top_weights
from repro.reformulate.combined import ReformulatedQuery, Reformulator
from repro.reformulate.content import (
    DEFAULT_DECAY,
    DEFAULT_EXPANSION_FACTOR,
    DEFAULT_NUM_TERMS,
    ContentReformulator,
)
from repro.reformulate.structure import DEFAULT_ADJUSTMENT_FACTOR, StructureReformulator
from repro.reformulate.terms import NodeTermTable, node_term_table

__all__ = [
    "AGGREGATORS",
    "ContentReformulator",
    "DEFAULT_ADJUSTMENT_FACTOR",
    "DEFAULT_DECAY",
    "DEFAULT_EXPANSION_FACTOR",
    "DEFAULT_NUM_TERMS",
    "NodeTermTable",
    "ReformulatedQuery",
    "Reformulator",
    "StructureReformulator",
    "aggregate_arrays",
    "node_term_table",
    "top_weights",
]
