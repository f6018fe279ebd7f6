"""The ingest engine: buffered mutations with incremental precompute refresh.

:class:`IngestEngine` owns a *working copy* of a dataset's data graph and
inverted index.  Mutations apply to the working copy immediately (one the
schema cannot place is refused first; the rest are classified by
:class:`repro.ingest.tracker.DirtyKeywordTracker`), while
readers keep using whatever snapshot the last :meth:`IngestEngine.refresh`
produced — the serve tier swaps that snapshot in atomically and publishes
its ranker through the generation-swap store protocol.

Thread safety: every mutation and every state read runs under the engine's
lock; :meth:`refresh` freezes the working state under the lock and runs the
expensive fixpoint work outside it, so mutations keep landing while a
refresh converges.  The freeze is a tracker snapshot plus copy-on-write
copies of the graph and index (:meth:`DataGraph.copy`,
:meth:`InvertedIndex.copy`): a few flat dict copies, whatever the corpus
size, after which each per-node edge list or per-term postings dict is
copied only when the next mutation first writes to it.  If the build fails,
the frozen dirt is merged back so no invalidation is lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ConformanceError, GraphError, IngestError, ReproError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.graph.conformance import edge_violation, node_violation
from repro.graph.data_graph import DataEdge, DataGraph, DataNode
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ingest.mutations import (
    AddEdge,
    AddNode,
    Mutation,
    RemoveEdge,
    RemoveNode,
    UpdateNode,
    mutation_from_json,
)
from repro.ingest.refresh import refreshed_keyword_vectors
from repro.ingest.tracker import DirtyKeywordTracker
from repro.ir.index import InvertedIndex
from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)
from repro.ranking.precompute import KeywordVectors, PrecomputedRanker


@dataclass(frozen=True)
class IngestStaleness:
    """How far the working state has drifted from the served snapshot."""

    pending_mutations: int
    dirty_columns: int
    topology_dirty: bool

    def as_dict(self) -> dict:
        """JSON-shaped form (the serve tier's ``staleness`` field)."""
        return {
            "pending_mutations": self.pending_mutations,
            "dirty_columns": self.dirty_columns,
            "topology_dirty": self.topology_dirty,
        }


@dataclass(frozen=True)
class RefreshResult:
    """Everything one refresh produced: the snapshot and its bookkeeping.

    ``ranker`` is ``None`` when the refresh ran with ``precompute=False``
    (live-only serving).  ``recomputed``/``carried`` report the incremental
    split; ``full_rebuild`` flags the degenerate cases (first build, rate
    change, a previous ranker of another snapshot) where nothing could be
    carried.
    """

    ranker: PrecomputedRanker | None
    graph: AuthorityTransferDataGraph
    data_graph: DataGraph
    index: InvertedIndex
    #: How ``graph`` came about: ``"rebound"`` (the last snapshot's topology
    #: over new text), ``"extended"`` (the last one's with nodes and edges
    #: appended) or ``"built"`` (from scratch: the first refresh, or a
    #: batch that removed something).
    graph_path: str
    epoch: int
    full_rebuild: bool
    recomputed: tuple[str, ...]
    carried: tuple[str, ...]
    iterations: int
    pending_consumed: int
    elapsed_seconds: float


def _refuse(violation: str | None) -> None:
    """Raise the build's own error for a mutation that could never conform."""
    if violation is not None:
        raise ConformanceError([violation])


class IngestEngine:
    """Mutation buffer + dirty-keyword tracking + incremental refresh."""

    def __init__(
        self,
        data_graph: DataGraph,
        transfer_schema: AuthorityTransferSchemaGraph,
        index: InvertedIndex | None = None,
        graph: AuthorityTransferDataGraph | None = None,
        damping: float = DEFAULT_DAMPING,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        min_document_frequency: int = 2,
    ) -> None:
        """Start from ``data_graph``, ``index``, its inverted index, and
        ``graph``, its transfer graph.

        The caller's index (a :class:`~repro.query.engine.SearchEngine`'s,
        say) saves tokenising the corpus again; without one the engine
        indexes the graph itself.  Both are taken as copy-on-write copies,
        so the caller's objects never see a mutation.  The caller's transfer
        graph lets the first refresh rebind or extend it instead of building
        one; it must be built over ``data_graph`` itself (else
        :class:`~repro.errors.GraphError`) and is only read.
        """
        self.transfer_schema = transfer_schema
        self.damping = damping
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.min_document_frequency = min_document_frequency
        self._lock = threading.Lock()
        #: guarded by self._lock
        self._data_graph = data_graph.copy()
        #: guarded by self._lock
        self._index = (
            InvertedIndex.from_graph(self._data_graph) if index is None else index.copy()
        )
        #: guarded by self._lock
        self._tracker = DirtyKeywordTracker()
        #: guarded by self._lock
        self._epoch = 0
        #: guarded by self._lock; the snapshot the tracker's dirt is
        #: relative to (the last frozen one)
        self._dirt_base = self._data_graph.copy()
        if graph is not None:
            if graph.data_graph is not data_graph:
                raise GraphError("the transfer graph is over another data graph")
            # Over the snapshot the working copy starts from: the caller's
            # own data graph may still change.
            graph = graph.rebound(self._dirt_base, graph.transfer_schema)
        #: guarded by self._lock; the last successful refresh's transfer graph
        self._last_graph = graph

    # -- mutations ---------------------------------------------------------

    def add_node(
        self, node_id: str, label: str, attributes: dict[str, str] | None = None
    ) -> DataNode:
        """Insert an object into the working graph (a topology mutation).

        A label the schema does not have is refused here, before the working
        graph is touched: applied, it would fail every later refresh.
        """
        _refuse(node_violation(self.transfer_schema.schema, node_id, label))
        with self._lock:
            node = self._data_graph.add_node(node_id, label, attributes)
            self._index.add_document(node_id, node.text())
            self._tracker.note_topology()
            return node

    def remove_node(self, node_id: str) -> DataNode:
        """Remove an object and its incident edges (a topology mutation)."""
        with self._lock:
            node = self._data_graph.remove_node(node_id)
            self._index.remove_document(node_id)
            self._tracker.note_topology()
            return node

    def add_edge(self, source: str, target: str, role: str | None = None) -> None:
        """Insert a relationship (a topology mutation).

        Refused, like :meth:`add_node`, when no schema edge matches it.
        """
        with self._lock:
            graph = self._data_graph
            _refuse(
                edge_violation(
                    self.transfer_schema.schema,
                    DataEdge(source, target, role),
                    graph.node(source).label,
                    graph.node(target).label,
                )
            )
            graph.add_edge(source, target, role)
            self._tracker.note_topology()

    def remove_edge(self, source: str, target: str, role: str | None = None) -> None:
        """Remove a relationship (a topology mutation)."""
        with self._lock:
            self._data_graph.remove_edge(source, target, role)
            self._tracker.note_topology()

    def update_node(self, node_id: str, attributes: dict[str, str]) -> DataNode:
        """Replace an object's attributes (a content-only mutation).

        Dirties exactly the keywords whose base-set membership the rewrite
        changed: the symmetric difference of the document's old and new term
        sets.  Term-frequency-only changes dirty nothing — base weights are
        uniform over matching documents.
        """
        with self._lock:
            old_terms = set(self._index.terms_of_document(node_id))
            node = self._data_graph.update_attributes(node_id, attributes)
            self._index.add_document(node_id, node.text())
            new_terms = set(self._index.terms_of_document(node_id))
            self._tracker.note_content(old_terms ^ new_terms)
            return node

    def apply(self, mutation: Mutation) -> None:
        """Apply one typed mutation record (the wire-format entry point)."""
        if isinstance(mutation, AddNode):
            self.add_node(mutation.node_id, mutation.label, mutation.attributes)
        elif isinstance(mutation, RemoveNode):
            self.remove_node(mutation.node_id)
        elif isinstance(mutation, AddEdge):
            self.add_edge(mutation.source, mutation.target, mutation.role)
        elif isinstance(mutation, RemoveEdge):
            self.remove_edge(mutation.source, mutation.target, mutation.role)
        elif isinstance(mutation, UpdateNode):
            self.update_node(mutation.node_id, mutation.attributes)
        else:
            raise IngestError(f"unknown mutation type: {type(mutation).__name__}")

    def apply_batch(self, entries: list) -> tuple[int, list[dict]]:
        """Apply typed records and wire-format dicts: ``(applied, errors)``.

        Failures are per entry: one that does not parse or that the working
        graph refuses becomes a ``{position, op, error}`` record while the
        rest of the batch applies.
        """
        applied = 0
        errors: list[dict] = []
        for position, entry in enumerate(entries):
            typed = isinstance(entry, Mutation)
            try:
                self.apply(entry if typed else mutation_from_json(entry))
                applied += 1
            except ReproError as error:
                if typed:
                    op = entry.op
                else:
                    # Echo a wire ``op`` only when it is text: a NaN would
                    # make the response invalid JSON.
                    op = entry.get("op") if isinstance(entry, dict) else None
                    op = op if isinstance(op, str) else None
                errors.append({"position": position, "op": op, "error": str(error)})
        return applied, errors

    # -- state -------------------------------------------------------------

    @property
    def pending_mutations(self) -> int:
        """Successful mutations not yet consumed by a refresh."""
        with self._lock:
            return self._tracker.pending

    @property
    def dirty_keywords(self) -> frozenset[str]:
        """Keywords whose base sets the pending mutations changed."""
        with self._lock:
            return self._tracker.dirty_keywords

    @property
    def topology_dirty(self) -> bool:
        """Whether any pending mutation changed the graph topology."""
        with self._lock:
            return self._tracker.topology_dirty

    @property
    def graph_version(self) -> int:
        """The working data graph's mutation counter."""
        with self._lock:
            return self._data_graph.version

    @property
    def epoch(self) -> int:
        """Number of successful refreshes so far."""
        with self._lock:
            return self._epoch

    def staleness(self) -> IngestStaleness:
        """Pending-mutation and dirty-column counts for staleness bounds.

        ``dirty_columns`` counts precomputable columns (document frequency
        at or above ``min_document_frequency``) the pending batch dirtied —
        the whole vocabulary after a topology mutation.
        """
        with self._lock:
            dirty, topology, pending = self._tracker.snapshot()
            if topology:
                columns = len(self._index.vocabulary(self.min_document_frequency))
            else:
                columns = sum(
                    self._index.document_frequency(term) >= self.min_document_frequency
                    for term in dirty
                )
            return IngestStaleness(pending, columns, topology)

    # -- refresh -----------------------------------------------------------

    def refresh(
        self,
        previous: PrecomputedRanker | None = None,
        rates: AuthorityTransferSchemaGraph | None = None,
        precompute: bool = True,
    ) -> RefreshResult:
        """Produce a fresh serving snapshot from the working state.

        Freezes the working graph/index (copy-on-write copies, so the lock
        is held for a few flat dict copies) and the accumulated dirt under
        the lock, rebinds the last snapshot's transfer graph to the frozen copy
        when they hold one ``topology`` token, extends it when the frozen
        copy only appended nodes and edges (:meth:`DataGraph.extends`), and
        builds one otherwise; then re-converges only the dirty columns
        relative to ``previous``.  The
        dirt is relative to the last frozen snapshot, so ``previous`` is
        carried from only when its ``graph_version`` and ``node_ids`` are
        that snapshot's and its rates are ``rates``; any other ranker (one
        read from a store published over another corpus, say) forces a
        full rebuild rather than silently carrying wrong columns.  Mutations
        arriving during the build land in the next refresh.  On a build
        failure the frozen dirt is merged back into the tracker.
        """
        started = time.perf_counter()
        with self._lock:
            data_graph = self._data_graph.copy()
            index = self._index.copy()
            dirty, topology, pending = self._tracker.snapshot()
            # A fresh tracker (not .clear()) so a failed build can merge the
            # frozen dirt into whatever newer mutations accumulated meanwhile.
            self._tracker = DirtyKeywordTracker()
            base, self._dirt_base = self._dirt_base, data_graph
            last = self._last_graph
        if rates is None:
            rates = self.transfer_schema
        if previous is not None and (
            previous.graph_version != base.version
            or previous.node_ids != base.node_ids()
        ):
            previous = None
        try:
            # Topology is carried when the frozen copy has the node and edge
            # set the last snapshot was built over, whatever the tracker says,
            # and extended when it only has more of them.
            if (
                last is not None
                and last.data_graph.topology is data_graph.topology
            ):
                graph, graph_path = last.rebound(data_graph, rates, index), "rebound"
            elif last is not None and data_graph.extends(last.data_graph):
                graph, graph_path = last.extended(data_graph, rates, index), "extended"
            else:
                graph = AuthorityTransferDataGraph(data_graph, rates, index)
                graph_path = "built"
            if precompute:
                outcome = refreshed_keyword_vectors(
                    graph,
                    index,
                    previous,
                    dirty,
                    topology,
                    min_document_frequency=self.min_document_frequency,
                    damping=self.damping,
                    tolerance=self.tolerance,
                    max_iterations=self.max_iterations,
                )
                ranker = PrecomputedRanker.over(
                    KeywordVectors(
                        graph, index, outcome.vectors, self.damping,
                        outcome.iterations,
                    )
                )
                recomputed, carried = outcome.recomputed, outcome.carried
                iterations, full = outcome.iterations, outcome.full_rebuild
            else:
                ranker = None
                recomputed, carried = (), ()
                iterations, full = 0, previous is None
        except BaseException:
            with self._lock:
                self._tracker.merge(dirty, topology, pending)
                # Unless a later refresh froze meanwhile, the merged dirt
                # is relative to the snapshot ours was.
                if self._dirt_base.version == data_graph.version:
                    self._dirt_base = base
            raise
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            self._last_graph = graph
        return RefreshResult(
            ranker=ranker,
            graph=graph,
            data_graph=data_graph,
            index=index,
            graph_path=graph_path,
            epoch=epoch,
            full_rebuild=full,
            recomputed=recomputed,
            carried=carried,
            iterations=iterations,
            pending_consumed=pending,
            elapsed_seconds=time.perf_counter() - started,
        )
