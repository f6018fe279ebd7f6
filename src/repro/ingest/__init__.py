"""Incremental ingest: online maintenance of the precomputed score matrix.

The paper's Section 6.2 precomputation remedy assumes a frozen database;
this package keeps it honest under change.  Mutations (add/remove a paper,
citation or author; rewrite attributes) apply to a working copy of the
graph, a :class:`~repro.ingest.tracker.DirtyKeywordTracker` maps each one to
the precomputed columns it invalidates, and
:meth:`~repro.ingest.engine.IngestEngine.refresh` re-converges *only those
columns* — bit-identical to a from-scratch precompute.  The serve
tier layers ``/ingest`` and staleness-bounded serving on top
(:mod:`repro.serve.service`) and publishes refreshed snapshots through the
generation-swap store protocol (:mod:`repro.store.generations`).
"""

from repro.ingest.engine import IngestEngine, IngestStaleness, RefreshResult
from repro.ingest.mutations import (
    AddEdge,
    AddNode,
    Mutation,
    RemoveEdge,
    RemoveNode,
    UpdateNode,
    mutation_from_json,
)
from repro.ingest.refresh import RefreshedVectors, refreshed_keyword_vectors
from repro.ingest.tracker import DirtyKeywordTracker

__all__ = [
    "AddEdge",
    "AddNode",
    "DirtyKeywordTracker",
    "IngestEngine",
    "IngestStaleness",
    "Mutation",
    "RefreshResult",
    "RefreshedVectors",
    "RemoveEdge",
    "RemoveNode",
    "UpdateNode",
    "mutation_from_json",
    "refreshed_keyword_vectors",
]
