"""Authority transfer data graphs (Section 2, Figure 5, Equation 1).

Given a data graph ``D`` that conforms to an authority transfer schema graph
``G^A``, the authority transfer data graph ``D^A`` has, for every data edge
``e = (u -> v)``, two transfer edges: ``e^f = (u -> v)`` and ``e^b =
(v -> u)``.  A transfer edge of type ``e_G^f`` leaving ``u`` carries the rate

    alpha(e^f) = alpha(e_G^f) / OutDeg(u, e_G^f)        (Equation 1)

where ``OutDeg(u, e_G^f)`` is the number of outgoing transfer edges of that
type at ``u`` (and 0-outdegree means rate 0, vacuously).

This module materializes ``D^A`` with dense integer node indices and flat
numpy edge arrays, and splits what it derives from them by what can change:

* **per topology** (computed once by the constructor, shared read-only by
  every :meth:`~AuthorityTransferDataGraph.with_rates` /
  :meth:`~AuthorityTransferDataGraph.rebound` view): the node index, the
  edge arrays, the out-degree counts of Equation 1, the in/out incidence
  indices and the sparsity pattern of the ObjectRank transition matrix
  (:class:`CsrPattern` — which edge fills which CSR slot);
* **per rate setting** (a structure-based reformulation, Section 5.2,
  changes the schema-level rates and nothing else): ``edge_rate`` — one
  O(edges) division — and, lazily, the transition matrix — one gather of
  ``edge_rate`` through the pattern — and the positive-rate incidence.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, TypeVar

import numpy as np
from scipy import sparse

from repro.errors import ConformanceError, GraphError, UnknownNodeError
from repro.graph.authority import AuthorityTransferSchemaGraph, Direction, EdgeType
from repro.graph.build_cache import BuildCache
from repro.graph.conformance import find_violations
from repro.graph.data_graph import DataGraph

T = TypeVar("T")

#: CSR-style ``(indptr, edge_ids)`` index grouping edge ids by one endpoint.
Incidence = tuple[np.ndarray, np.ndarray]

_SOURCE, _TARGET, _ROLE = attrgetter("source"), attrgetter("target"), attrgetter("role")


class CsrPattern(NamedTuple):
    """Which transfer edge fills which slot of the CSR transition matrix.

    Rate-independent, so computed once per topology (:func:`csr_pattern`)
    and shared, read-only, by every view; the matrices of all views are
    built over these very ``indices`` and ``indptr`` arrays.
    """

    #: Edge id whose rate opens each CSR slot.
    slot_edge: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    #: ``(slots, edges)`` per extra parallel edge: level ``k`` adds the rate
    #: of the ``k + 2``-th edge of every node pair that has that many, in
    #: the order scipy's own duplicate summation takes them.  Empty when no
    #: two transfer edges join the same ordered pair.
    parallel: tuple[tuple[np.ndarray, np.ndarray], ...]


class AuthorityTransferDataGraph:
    """The materialized authority transfer data graph ``D^A``.

    Transfer edges are stored as parallel numpy arrays ``edge_source``,
    ``edge_target``, ``edge_type_index`` (index into :attr:`edge_types`) and
    ``edge_rate``.  Edge ids are positions into these arrays; data edge ``k``
    of the data graph produces transfer edges ``2k`` (forward) and ``2k + 1``
    (backward).
    """

    #: Rate-independent derived structures kept per topology
    #: (:meth:`derived`); entries of older data-graph versions age out.
    DERIVED_CACHE_SIZE = 4

    def __init__(
        self, data_graph: DataGraph, transfer_schema: AuthorityTransferSchemaGraph
    ) -> None:
        self.data_graph = data_graph
        self.node_ids: list[str] = data_graph.node_ids()
        self._node_index: dict[str, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        self.num_nodes = len(self.node_ids)
        self.edge_types: list[EdgeType] = transfer_schema.edge_types()

        # One pass over the edges into arrays; the schema is consulted once
        # per distinct (source label, target label, role) triple, and that
        # same pass is the conformance check (Section 2).
        schema = transfer_schema.schema
        edges = data_graph.edges()
        code_of, node_label = data_graph.label_codes(self.node_ids)
        labels = list(code_of)
        roles = list(dict.fromkeys(map(_ROLE, edges)))
        role_code = dict(zip(roles, range(len(roles)))).__getitem__
        index_of = self._node_index.__getitem__
        count = len(edges)
        source = np.fromiter(map(index_of, map(_SOURCE, edges)), np.int64, count)
        target = np.fromiter(map(index_of, map(_TARGET, edges)), np.int64, count)
        role = np.fromiter(map(role_code, map(_ROLE, edges)), np.int64, count)
        triples, triple_of_edge = np.unique(
            (node_label[source] * len(labels) + node_label[target]) * len(roles) + role,
            return_inverse=True,
        )
        resolved = []
        for triple in triples.tolist():
            pair, r = divmod(triple, len(roles))
            u, v = divmod(pair, len(labels))
            resolved.append(schema.resolve_edge(labels[u], labels[v], roles[r]))
        if None in resolved or not all(map(schema.has_label, labels)):
            # Slow path: the per-edge walk is the message oracle.
            raise ConformanceError(find_violations(data_graph, schema))
        type_index = {t: i for i, t in enumerate(self.edge_types)}
        forward_backward = (Direction.FORWARD, Direction.BACKWARD)
        types = np.array(
            [[type_index[EdgeType(e, d)] for d in forward_backward] for e in resolved],
            dtype=np.int64,
        ).reshape(-1, 2)

        # Data edge k -> transfer edges 2k (forward) and 2k + 1 (backward).
        self.edge_source = np.column_stack((source, target)).ravel()
        self.edge_target = np.column_stack((target, source)).ravel()
        self.edge_type_index = types[triple_of_edge].ravel()
        self.num_edges = len(self.edge_source)

        # OutDeg(u, edge_type): count transfer edges grouped by (source, type).
        num_types = max(len(self.edge_types), 1)
        group_key = self.edge_source * num_types + self.edge_type_index
        counts = np.bincount(group_key, minlength=self.num_nodes * num_types)
        self._edge_out_degree = (
            counts[group_key] if self.num_edges else np.zeros(0, dtype=np.int64)
        )

        self._transfer_schema = transfer_schema
        self.edge_rate = np.zeros(self.num_edges, dtype=np.float64)
        self._matrix: sparse.csr_matrix | None = None
        self._positive_incidence: tuple[Incidence, Incidence] | None = None
        self._out_index = build_incidence(self.edge_source, self.num_nodes, self.num_edges)
        self._in_index = build_incidence(self.edge_target, self.num_nodes, self.num_edges)
        self._csr_pattern = csr_pattern(self.edge_source, self._in_index, self.num_nodes)
        self._node_degrees: np.ndarray | None = None
        self._derived: BuildCache = BuildCache(self.DERIVED_CACHE_SIZE)
        self._recompute_rates()

    # -- node id <-> dense index ------------------------------------------

    def index_of(self, node_id: str) -> int:
        try:
            return self._node_index[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def node_id_of(self, index: int) -> str:
        return self.node_ids[index]

    def indices_of(self, node_ids: Iterable[str]) -> np.ndarray:
        try:
            return np.fromiter(
                map(self._node_index.__getitem__, node_ids), dtype=np.int64
            )
        except KeyError as error:
            raise UnknownNodeError(error.args[0]) from None

    def restart_vector(self, weights: Mapping[str, float]) -> np.ndarray:
        """``weights`` (node id -> value) laid out by dense node index.

        The restart vector ``s`` of Equation 4 from a base set; zeros
        everywhere else.  The one place a base-set dict becomes an array.
        """
        restart = np.zeros(self.num_nodes)
        # Dict keys are distinct, so are the indices: plain assignment is exact.
        restart[self.indices_of(weights)] = np.fromiter(
            weights.values(), dtype=np.float64, count=len(weights)
        )
        return restart

    def label_of(self, index: int) -> str:
        return self.data_graph.node(self.node_ids[index]).label

    # -- transfer rates -----------------------------------------------------

    @property
    def transfer_schema(self) -> AuthorityTransferSchemaGraph:
        return self._transfer_schema

    def set_transfer_rates(self, transfer_schema: AuthorityTransferSchemaGraph) -> None:
        """Swap in new schema-level rates and recompute all edge rates.

        The new graph must be over the same schema (same canonical edge-type
        list); only the rate values may differ.  This is the cheap operation
        that makes iterative structure-based reformulation practical.
        """
        if transfer_schema.edge_types() != self.edge_types:
            raise GraphError("new transfer schema has different edge types")
        self._transfer_schema = transfer_schema
        self._recompute_rates()

    def _recompute_rates(self) -> None:
        alphas = np.asarray(
            [self._transfer_schema.rate(t) for t in self.edge_types], dtype=np.float64
        )
        if self.num_edges:
            self.edge_rate = alphas[self.edge_type_index] / self._edge_out_degree
        self._matrix = None
        self._positive_incidence = None

    def with_rates(
        self, transfer_schema: AuthorityTransferSchemaGraph
    ) -> "AuthorityTransferDataGraph":
        """:meth:`rebound` over this graph's own data graph: new rates only."""
        return self.rebound(self.data_graph, transfer_schema)

    def rebound(
        self, data_graph: DataGraph, transfer_schema: AuthorityTransferSchemaGraph
    ) -> "AuthorityTransferDataGraph":
        """A lightweight view of this topology over ``data_graph`` and rates.

        ``data_graph`` must be this graph's data graph or a copy of it with
        an equal ``topology_version`` (same nodes and edges in the same
        order; attributes may differ).  The view shares every per-topology
        structure (node index, edge arrays, out-degree counts, incidence
        indices, the CSR pattern, the :meth:`derived` cache) with this
        graph, so concurrent sessions with different learned rates can rank
        against one materialized graph without mutating it.  What it costs
        depends on the rates alone: under *new* rates the view gets its own
        ``edge_rate`` (one O(edges) division, the price of
        :meth:`set_transfer_rates`) and builds its matrix and positive-rate
        incidence on first use; under *unchanged* rates — every
        content-only ingest refresh — it keeps this graph's ``edge_rate``,
        matrix and positive-rate incidence outright and computes nothing.
        """
        if transfer_schema.edge_types() != self.edge_types:
            raise GraphError("new transfer schema has different edge types")
        if data_graph.topology_version != self.data_graph.topology_version:
            raise GraphError("data graph has a different topology")
        view = object.__new__(AuthorityTransferDataGraph)
        view.__dict__.update(self.__dict__)
        view.data_graph = data_graph
        view._transfer_schema = transfer_schema
        if transfer_schema != self._transfer_schema:
            view._recompute_rates()
        return view

    # -- matrix + adjacency views --------------------------------------------

    def matrix(self) -> sparse.csr_matrix:
        """Transition matrix ``A`` with ``A[j, i] = alpha(e)`` for edge i->j.

        With this orientation one authority-flow step is the matrix-vector
        product ``A @ r`` (Equation 4).  Parallel transfer edges between the
        same node pair have their rates summed.  Built lazily per rate
        setting by filling the topology's :class:`CsrPattern`: one gather of
        ``edge_rate``, plus one add per extra parallel edge.  ``indices`` and
        ``indptr`` are the pattern's own (read-only) arrays.
        """
        if self._matrix is None:
            pattern = self._csr_pattern
            data = self.edge_rate[pattern.slot_edge]
            for slots, edges in pattern.parallel:
                data[slots] += self.edge_rate[edges]
            matrix = sparse.csr_matrix(
                (data, pattern.indices, pattern.indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
            # Sorted and duplicate-free by construction: scipy need neither
            # check nor, on the shared arrays, ever sort in place.
            matrix.has_canonical_format = True
            self._matrix = matrix
        return self._matrix

    def positive_incidence(self) -> tuple[Incidence, Incidence]:
        """``(in, out)`` incidence over strictly positive-rate edges only.

        Explaining-subgraph construction traverses nothing else (a zero-rate
        edge carries no authority), so its BFS passes skip the rate test.
        Built lazily per rate setting — the full incidence filtered by the
        rate mask, which keeps each node's edges in ascending edge-id order —
        and dropped whenever the rates change, like :meth:`matrix`.
        """
        if self._positive_incidence is None:
            positive = self.edge_rate > 0.0
            self._positive_incidence = (
                _filter_incidence(self._in_index, positive),
                _filter_incidence(self._out_index, positive),
            )
        return self._positive_incidence

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per data-graph version and ``key``.

        For index-time structures over node text or topology that request
        paths would otherwise redo per call (the reformulator's node-term
        table).  The cache is shared by every :meth:`with_rates` view, so
        ``build`` must not depend on the rates; keying on
        ``data_graph.version`` means any mutation of the data graph is a
        miss, so the view a content-only ingest refresh rebinds to new text
        starts cold for it.  Concurrent first uses build once
        (:class:`~repro.graph.build_cache.BuildCache`).
        """
        return self._derived.get((self.data_graph.version, key), build)

    def out_edge_ids(self, index: int) -> np.ndarray:
        """Ids of transfer edges leaving node ``index``."""
        start, end = self._out_index[0][index], self._out_index[0][index + 1]
        return self._out_index[1][start:end]

    def in_edge_ids(self, index: int) -> np.ndarray:
        """Ids of transfer edges entering node ``index``."""
        start, end = self._in_index[0][index], self._in_index[0][index + 1]
        return self._in_index[1][start:end]

    def out_edge_ids_many(self, indices: np.ndarray) -> np.ndarray:
        """Ids of transfer edges leaving any of ``indices``, concatenated.

        One vectorized CSR-row gather instead of a Python loop over
        :meth:`out_edge_ids` — the workhorse of neighborhood expansion, whose
        cost is proportional to the touched edges, not the graph.  Within each
        node the edge ids keep their :meth:`out_edge_ids` order.
        """
        return gather_rows(*self._out_index, indices)

    def in_edge_ids_many(self, indices: np.ndarray) -> np.ndarray:
        """Ids of transfer edges entering any of ``indices``, concatenated."""
        return gather_rows(*self._in_index, indices)

    def node_degrees(self) -> np.ndarray:
        """Transfer-edge degree per node index (computed once, then cached).

        Every data-graph edge materializes a forward and a backward transfer
        edge, so out-degree equals in-degree equals the node's incident data
        edges — one array serves both directions.  Hub-capped neighborhood
        expansion reads this to decide which frontier nodes to expand through.
        """
        if self._node_degrees is None:
            offsets = self._out_index[0]
            self._node_degrees = np.diff(offsets)
        return self._node_degrees

    def edge_type_of(self, edge_id: int) -> EdgeType:
        return self.edge_types[self.edge_type_index[edge_id]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AuthorityTransferDataGraph(nodes={self.num_nodes}, "
            f"transfer_edges={self.num_edges})"
        )


def gather_rows(indptr: np.ndarray, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenation of ``data[indptr[r]:indptr[r + 1]]`` for every row ``r``.

    The vectorized multi-slice gather behind every ragged (CSR-style) lookup:
    frontier expansion over an incidence index, a node-term table.  Cost is
    proportional to the gathered entries; within a row ``data`` keeps its
    order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    # Row-start offset of each output position: repeat(starts - cum, lengths)
    # + arange recovers the classic vectorized multi-slice gather.
    offsets = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    positions = np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)
    return data[positions]


def csr_pattern(
    edge_source: np.ndarray, in_index: Incidence, num_nodes: int
) -> CsrPattern:
    """The transition matrix's sparsity pattern and the edge behind each slot.

    Reproduces, over edge ids instead of rates, what ``scipy.sparse`` does to
    the coordinate form ``(rate, (edge_target, edge_source))``: group by row
    keeping edge order (``in_index`` is that grouping), sort each row by
    column with scipy's own ``sort_indices`` — not a stable sort, so the
    order of three or more parallel edges, which float addition is
    sensitive to, is taken from it rather than assumed — and fold each run
    of equal columns into its first slot, left to right.
    """
    indptr, by_target = in_index
    ordered = sparse.csr_matrix(
        (by_target.copy(), edge_source[by_target], indptr),
        shape=(num_nodes, num_nodes),
    )
    ordered.sort_indices()  # in place: reorders the copy, by column only
    edges, columns = ordered.data, ordered.indices
    # A slot opens at every row start and at every change of column.
    opens = np.ones(columns.size, dtype=bool)
    opens[1:] = columns[1:] != columns[:-1]
    opens[indptr[:-1][np.diff(indptr) > 0]] = True
    if opens.all():
        # No two edges join the same ordered pair: every entry is a slot.
        pattern = CsrPattern(edges, columns, ordered.indptr, ())
    else:
        slots_before = np.zeros(columns.size + 1, dtype=np.int64)
        np.cumsum(opens, out=slots_before[1:])
        openers = np.flatnonzero(opens)
        followers = np.flatnonzero(~opens)
        slot = slots_before[followers + 1] - 1
        depth = followers - openers[slot]
        parallel = tuple(
            (slot[depth == level], edges[followers[depth == level]])
            for level in range(1, int(depth.max()) + 1)
        )
        pattern = CsrPattern(
            edges[openers],
            columns[openers],
            slots_before[indptr].astype(ordered.indptr.dtype),
            parallel,
        )
    for array in (*pattern[:3], *(a for pair in pattern.parallel for a in pair)):
        array.setflags(write=False)
    return pattern


def _filter_incidence(incidence: Incidence, keep: np.ndarray) -> Incidence:
    """``incidence`` restricted to the edges whose ``keep`` flag is set."""
    indptr, order = incidence
    kept = keep[order]
    kept_before = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(kept, out=kept_before[1:])
    return kept_before[indptr], order[kept]


def build_incidence(
    endpoint: np.ndarray, num_nodes: int, num_edges: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style (indptr, edge_ids) index grouping edge ids by one endpoint."""
    order = np.argsort(endpoint, kind="stable").astype(np.int64)
    counts = np.bincount(endpoint, minlength=num_nodes) if num_edges else np.zeros(
        num_nodes, dtype=np.int64
    )
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order
