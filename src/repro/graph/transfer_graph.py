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

* **per topology** (computed once by the constructor, or from the last
  topology's by :meth:`~AuthorityTransferDataGraph.extended` when nodes and
  edges were only appended, and shared read-only by every
  :meth:`~AuthorityTransferDataGraph.with_rates` /
  :meth:`~AuthorityTransferDataGraph.rebound` view): the node index, the
  edge arrays, the out-degree counts of Equation 1 and the in/out incidence
  indices;
* **per topology and zero-rate type set** (built on first use, shared by
  every view whose rates are zero on the same edge types): the sparsity
  pattern of the ObjectRank transition matrix (:class:`CsrPattern` — which
  edges fill which CSR slot), which leaves out every slot whose edges all
  carry rate 0, and its row-interleaved copy (:class:`SellLayout`);
* **per rate setting** (a structure-based reformulation, Section 5.2,
  changes the schema-level rates and nothing else), held by one
  :class:`RateSetting` that views under equal rates share: ``edge_rate``
  — one O(edges) division — and, lazily, the transition matrix — one
  gather of ``edge_rate`` through the pattern — the same values in the
  interleaved layout (:class:`SellMatrix`) and the positive-rate
  incidence.  Rates are values: a graph never changes its rates, a view
  under new rates is a new graph.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, NamedTuple, TypeVar

import numpy as np
from scipy import sparse

from repro.errors import ConformanceError, GraphError, UnknownNodeError
from repro.graph.authority import AuthorityTransferSchemaGraph, Direction, EdgeType
from repro.graph.build_cache import BuildCache
from repro.graph.conformance import find_violations
from repro.graph.data_graph import DataGraph
from repro.graph.node_values import NodeValueView

if TYPE_CHECKING:
    from repro.ir.index import InvertedIndex

T = TypeVar("T")

#: CSR-style ``(indptr, edge_ids)`` index grouping edge ids by one endpoint.
Incidence = tuple[np.ndarray, np.ndarray]

_SOURCE, _TARGET, _ROLE = attrgetter("source"), attrgetter("target"), attrgetter("role")


class CsrPattern(NamedTuple):
    """Which transfer edge fills which slot of the CSR transition matrix.

    Depends on the rates only through which edges carry rate 0
    (:attr:`RateSetting.zero_types`): a slot whose edges all do would hold
    an exact 0.0 and is left out (:func:`csr_pattern`).  Computed once per
    topology and zero-rate type set and shared, read-only, by every view
    with that set; their matrices are built over these very ``indices`` and
    ``indptr`` arrays.
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


#: Rows interleaved per group of the SELL layout; the compiled step
#: (:mod:`repro.ranking._native`) runs this many rows' sums side by side.
SELL_LANES = 4


class SellLayout(NamedTuple):
    """A CSR sparsity pattern in SELL-4 order (Kreutzer et al., "A unified
    sparse matrix data format for efficient general sparse matrix-vector
    multiplication on modern processors with wide SIMD units", SIAM J. Sci.
    Comput. 2014).

    Rows are sorted by length, longest first, and cut into groups of
    :data:`SELL_LANES`; a group stores its rows' entries interleaved — the
    ``j``-th entry of each of its rows, then the ``j + 1``-th — padded to its
    longest row.  Each row keeps its CSR entry order.  Padding reads column
    ``n``, a slot the caller's vector holds at 0.0, with value 0.0.
    Computed once per :class:`CsrPattern` (:func:`sell_layout`), so once per
    topology and zero-rate type set.
    """

    #: ``int32`` row of each lane, group by group (``n`` entries).
    rows: np.ndarray
    #: ``int64``: group ``g`` fills layout slots ``[offsets[g], offsets[g + 1])``.
    offsets: np.ndarray
    #: ``int32`` column read by each layout slot; ``n`` for padding.
    columns: np.ndarray
    #: CSR slot behind each layout slot; ``nnz`` for padding.
    slots: np.ndarray
    #: The CSR pattern laid out (the caller's arrays, not copies).
    indptr: np.ndarray
    indices: np.ndarray


def sell_layout(indptr: np.ndarray, indices: np.ndarray) -> SellLayout:
    """The :class:`SellLayout` of the square CSR pattern ``(indptr, indices)``."""
    n = indptr.size - 1
    lengths = np.diff(indptr)
    rows = np.argsort(-lengths, kind="stable")
    groups = -(-n // SELL_LANES)
    offsets = np.zeros(groups + 1, dtype=np.int64)
    # Sorted longest first, so a group is as long as its first row.
    np.cumsum(lengths[rows[::SELL_LANES]] * SELL_LANES, out=offsets[1:])
    rank = np.argsort(rows)  # position of each row in the layout
    # Layout slot of every CSR slot: its group's start, plus SELL_LANES per
    # position within the row, plus its lane.
    nnz = indices.size
    row_rank = np.repeat(rank, lengths)
    position = np.arange(nnz) - np.repeat(indptr[:-1], lengths)
    target = offsets[row_rank // SELL_LANES] + position * SELL_LANES
    target += row_rank % SELL_LANES
    columns = np.full(int(offsets[-1]), n, dtype=np.int32)
    columns[target] = indices
    slots = np.full(int(offsets[-1]), nnz, dtype=indptr.dtype)
    slots[target] = np.arange(nnz)
    built = (rows.astype(np.int32), offsets, columns, slots)
    for array in built:
        array.setflags(write=False)
    return SellLayout(*built, indptr, indices)


class SellMatrix:
    """A transition matrix as the CSR ``data`` of a :class:`SellLayout`'s
    pattern, held in layout order: the operator live ObjectRank runs hand
    :func:`repro.ranking.pagerank.iterate`, which steps it through the
    compiled kernel.  No CSR matrix is kept; ``@`` rebuilds the CSR one
    (floats included) for a process stepping it with numpy."""

    def __init__(self, layout: SellLayout, data: np.ndarray) -> None:
        self.layout = layout
        self.shape = (layout.indptr.size - 1,) * 2
        # The extra 0.0 is what padding slots (``slots == nnz``) gather.
        self.values = np.concatenate((data, [0.0])).take(layout.slots)
        self.values.setflags(write=False)

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        layout = self.layout
        data = np.empty(layout.indices.size + 1)  # the last slot takes padding
        data[layout.slots] = self.values
        csr = sparse.csr_matrix(
            (data[:-1], layout.indices, layout.indptr), shape=self.shape
        )
        return csr @ vector


class AuthorityTransferDataGraph:
    """The materialized authority transfer data graph ``D^A``.

    Transfer edges are stored as parallel numpy arrays ``edge_source``,
    ``edge_target``, ``edge_type_index`` (index into :attr:`edge_types`) and
    ``edge_rate``.  Edge ids are positions into these arrays; data edge ``k``
    of the data graph produces transfer edges ``2k`` (forward) and ``2k + 1``
    (backward).

    ``index``, where the caller builds one beside the graph (a
    :class:`~repro.query.engine.SearchEngine`, an ingest refresh), is the
    inverted index over the same data graph: :attr:`index` hands it to
    whoever holds only the graph, such as Equation 11's node-term table
    (:mod:`repro.reformulate.terms`), so graph and index always come from
    one snapshot.
    """

    #: Rate-independent derived structures kept per topology
    #: (:meth:`derived`); entries of older data-graph versions age out.
    DERIVED_CACHE_SIZE = 4
    #: Patterns and layouts kept per topology: a pattern and a layout for
    #: each of two zero-rate type sets (:attr:`RateSetting.zero_types`).
    STRUCTURE_CACHE_SIZE = 4

    def __init__(
        self,
        data_graph: DataGraph,
        transfer_schema: AuthorityTransferSchemaGraph,
        index: InvertedIndex | None = None,
    ) -> None:
        self.data_graph = data_graph
        self._link_index(index)
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
        resolved = {}
        for triple in triples.tolist():
            pair, r = divmod(triple, len(roles))
            u, v = divmod(pair, len(labels))
            key = labels[u], labels[v], roles[r]
            resolved[key] = schema.resolve_edge(*key)
        if None in resolved.values() or not all(map(schema.has_label, labels)):
            # Slow path: the per-edge walk is the message oracle.
            raise ConformanceError(find_violations(data_graph, schema))
        #: ``(source label, target label, role)`` -> the ``(forward,
        #: backward)`` edge-type indices of its schema edge, for every triple
        #: an edge has: what :meth:`extended` looks an appended edge up in.
        self._triple_types = dict(zip(resolved, self._type_pairs(resolved.values())))
        types = np.array(list(self._triple_types.values()), dtype=np.int64).reshape(-1, 2)

        # Data edge k -> transfer edges 2k (forward) and 2k + 1 (backward).
        self.edge_source = np.column_stack((source, target)).ravel()
        self.edge_target = np.column_stack((target, source)).ravel()
        self.edge_type_index = types[triple_of_edge].ravel()
        self.num_edges = len(self.edge_source)
        self._count_out_degrees()
        self._transfer_schema = transfer_schema
        self._out_index = build_incidence(self.edge_source, self.num_nodes, self.num_edges)
        self._in_index = build_incidence(self.edge_target, self.num_nodes, self.num_edges)
        self._start_caches()

    def _link_index(self, index: InvertedIndex | None) -> None:
        #: ``(data_graph.version, index)``: the inverted index built beside
        #: this graph over its data graph's node text, at that version.
        self._index_link = None if index is None else (self.data_graph.version, index)

    @property
    def index(self) -> InvertedIndex | None:
        """The inverted index over this graph's node text, if one was
        built with it: ``None`` when none was, or when the data graph has
        been mutated in place since (the index then describes older text)."""
        link = self._index_link
        if link is None or link[0] != self.data_graph.version:
            return None
        return link[1]

    def _type_pairs(self, schema_edges: Iterable) -> list[tuple[int, int]]:
        """The ``(forward, backward)`` edge-type index of each schema edge."""
        position = {t: i for i, t in enumerate(self.edge_types)}
        return [
            (position[EdgeType(e, Direction.FORWARD)], position[EdgeType(e, Direction.BACKWARD)])
            for e in schema_edges
        ]

    def _count_out_degrees(self) -> None:
        """Equation 1's OutDeg per edge and each type's largest, from the
        edge arrays."""
        # OutDeg(u, edge_type): count transfer edges grouped by (source, type).
        num_types = max(len(self.edge_types), 1)
        group_key = self.edge_source * num_types + self.edge_type_index
        counts = np.bincount(group_key, minlength=self.num_nodes * num_types)
        self._edge_out_degree = (
            counts[group_key] if self.num_edges else np.zeros(0, dtype=np.int64)
        )
        #: Each edge type's largest OutDeg (at least 1): its smallest edge
        #: rate is its alpha divided by this.
        self._type_max_degree = counts.reshape(-1, num_types).max(axis=0, initial=1)

    def _start_caches(self) -> None:
        """Empty caches for what a topology builds on first use, and the
        rate setting over the finished arrays."""
        #: ``("pattern" | "layout", zero_types)`` -> the :class:`CsrPattern`
        #: and :class:`SellLayout` of views whose rates are zero on exactly
        #: ``zero_types``, built by the first :meth:`matrix` or
        #: :meth:`sell_matrix` of any such view and shared by all of them.
        self._structure: BuildCache = BuildCache(self.STRUCTURE_CACHE_SIZE)
        self._node_degrees: np.ndarray | None = None
        self._derived: BuildCache = BuildCache(self.DERIVED_CACHE_SIZE)
        self._per_rate = RateSetting(self)

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

    def base_set(self, weights: Mapping[str, float]) -> NodeValueView:
        """``weights`` (node id -> value) on dense node indices, in order.

        The form a restart builder lays out: ``nodes`` and ``values_array``
        are the base set's arrays, keyed by node id.  One lookup per id, for
        callers that hold ids; the ranking paths reach node indices from
        index ordinals instead (:meth:`document_nodes`).  A view over this
        graph's nodes is returned as it is.
        """
        if isinstance(weights, NodeValueView) and weights.ids is self.node_ids:
            return weights
        return NodeValueView(
            self.indices_of(weights),
            np.fromiter(weights.values(), dtype=np.float64, count=len(weights)),
            self.node_ids,
        )

    def restart_vector(self, weights: Mapping[str, float]) -> np.ndarray:
        """``weights`` (node id -> value) laid out by dense node index.

        The restart vector ``s`` of Equation 4 from a base set; zeros
        everywhere else.
        """
        base = self.base_set(weights)
        restart = np.zeros(self.num_nodes)
        # Mapping keys are distinct, so are the indices: assignment is exact.
        restart[base.nodes] = base.values_array
        return restart

    def document_nodes(self, columns, ordinals: np.ndarray) -> np.ndarray:
        """Node index of each document of ``columns`` that ``ordinals`` names.

        ``columns`` is an index's columnar view
        (:class:`~repro.ir.index.PostingColumns`); its ordinal -> node
        table is built once per data-graph version and view
        (:meth:`derived`), so a base set reaches node indices by one gather,
        without a document id.  Raises
        :class:`~repro.errors.UnknownNodeError` naming the first document,
        in ``ordinals`` order, that is no node of this graph.
        """
        table, complete = self.derived(
            ("document_nodes", columns), lambda: self._document_table(columns)
        )
        nodes = table[ordinals]
        if not complete and nodes.size and nodes.min() < 0:
            missing = ordinals[np.argmax(nodes < 0)]
            raise UnknownNodeError(columns.doc_ids[missing])
        return nodes

    def _document_table(self, columns) -> tuple[np.ndarray, bool]:
        """Node index per document ordinal (-1: no such node), and whether
        every document has one."""
        table = np.fromiter(
            map(self._node_index.get, columns.doc_ids, repeat(-1)),
            dtype=np.int64,
            count=len(columns.doc_ids),
        )
        return table, not (table < 0).any()

    def label_of(self, index: int) -> str:
        return self.data_graph.node(self.node_ids[index]).label

    # -- transfer rates -----------------------------------------------------

    @property
    def transfer_schema(self) -> AuthorityTransferSchemaGraph:
        return self._transfer_schema

    @property
    def edge_rate(self) -> np.ndarray:
        """Equation 1's rate of every transfer edge (read-only)."""
        return self._per_rate.edge_rate

    def with_rates(
        self, transfer_schema: AuthorityTransferSchemaGraph
    ) -> "AuthorityTransferDataGraph":
        """:meth:`rebound` over this graph's own data graph and index: new
        rates only."""
        view = self.rebound(self.data_graph, transfer_schema)
        view._index_link = self._index_link
        return view

    def rebound(
        self,
        data_graph: DataGraph,
        transfer_schema: AuthorityTransferSchemaGraph,
        index: InvertedIndex | None = None,
    ) -> "AuthorityTransferDataGraph":
        """A lightweight view of this topology over ``data_graph`` and rates.

        ``data_graph`` must be this graph's data graph or a copy of it that
        holds its :attr:`~repro.graph.data_graph.DataGraph.topology` token
        (same nodes and edges in the same order; attributes may differ).
        The view shares every per-topology structure (node index, edge
        arrays, out-degree counts, incidence indices, the CSR pattern and
        SELL layout of each zero-rate type set, the :meth:`derived` cache)
        with this graph, so concurrent sessions
        with different learned rates can rank against one materialized
        graph without mutating it.  What it costs depends on the rates
        alone: under *new* rates the view gets its own :class:`RateSetting`
        — its own ``edge_rate`` (one O(edges) division), and its own
        matrix, SELL values and positive-rate incidence, each built on first
        use (the pattern and layout too, if no view yet zeroes the same
        types); under *unchanged* rates — every content-only ingest
        refresh — it shares this graph's :class:`RateSetting` outright and
        computes nothing.  ``index`` is ``data_graph``'s inverted index, as
        for the constructor.
        """
        if transfer_schema.edge_types() != self.edge_types:
            raise GraphError("new transfer schema has different edge types")
        if data_graph.topology is not self.data_graph.topology:
            raise GraphError("data graph has a different topology")
        view = object.__new__(AuthorityTransferDataGraph)
        view.__dict__.update(self.__dict__)
        view.data_graph = data_graph
        view._link_index(index)
        view._transfer_schema = transfer_schema
        if transfer_schema != self._transfer_schema:
            view._per_rate = RateSetting(view)
        return view

    def extended(
        self,
        data_graph: DataGraph,
        transfer_schema: AuthorityTransferSchemaGraph,
        index: InvertedIndex | None = None,
    ) -> "AuthorityTransferDataGraph":
        """This topology with the nodes and edges ``data_graph`` appended.

        ``data_graph`` must extend this graph's data graph
        (:meth:`DataGraph.extends`: the same nodes and edges first, in the
        same order, then more); every array is then the one the constructor
        would build over ``data_graph``.  The caller checks that (it costs a
        pass over the nodes and edges); only a smaller graph is refused
        here, as :meth:`rebound` refuses another ``topology`` token.

        Only the appended edges are read: their endpoints are looked up,
        their ``(label, label, role)`` triples resolved against the schema
        where no edge of this graph has the triple (and the appended nodes'
        labels checked — a graph that does not conform raises the
        constructor's :class:`~repro.errors.ConformanceError`), and they go
        on the end of the edge arrays.  The out-degrees and type maxima are
        recounted by one ``bincount``; the incidences are merged
        (:func:`extend_incidence`), not sorted again.  Everything built per
        topology on first use (pattern, layout, node degrees, derived
        tables) starts empty.  ``index`` is ``data_graph``'s inverted index,
        as for the constructor.
        """
        if transfer_schema.edge_types() != self.edge_types:
            raise GraphError("new transfer schema has different edge types")
        if (
            data_graph.num_nodes < self.num_nodes
            or 2 * data_graph.num_edges < self.num_edges
        ):
            raise GraphError("data graph is smaller than this graph's")
        schema = transfer_schema.schema
        node_ids = data_graph.node_ids()
        new_ids = node_ids[self.num_nodes :]
        first_edge = self.num_edges // 2
        edges = data_graph.edges()[first_edge:]
        label = attrgetter("label")
        new_labels = map(label, map(data_graph.node, new_ids))
        triples = [
            (label(data_graph.node(e.source)), label(data_graph.node(e.target)), e.role)
            for e in edges
        ]
        unknown = [t for t in dict.fromkeys(triples) if t not in self._triple_types]
        resolved = [schema.resolve_edge(*triple) for triple in unknown]
        if None in resolved or not all(map(schema.has_label, new_labels)):
            raise ConformanceError(find_violations(data_graph, schema))

        graph = object.__new__(AuthorityTransferDataGraph)
        graph.data_graph = data_graph
        graph._link_index(index)
        graph.node_ids = node_ids
        graph._node_index = dict(self._node_index)
        graph._node_index.update(zip(new_ids, range(self.num_nodes, len(node_ids))))
        graph.num_nodes = len(node_ids)
        graph.edge_types = self.edge_types
        graph._triple_types = {
            **self._triple_types, **dict(zip(unknown, self._type_pairs(resolved)))
        }
        index_of = graph._node_index.__getitem__
        count = len(edges)
        source = np.fromiter(map(index_of, map(_SOURCE, edges)), np.int64, count)
        target = np.fromiter(map(index_of, map(_TARGET, edges)), np.int64, count)
        types = np.array(
            list(map(graph._triple_types.__getitem__, triples)), dtype=np.int64
        ).ravel()
        appended_source = np.column_stack((source, target)).ravel()
        appended_target = np.column_stack((target, source)).ravel()
        graph.edge_source = np.concatenate((self.edge_source, appended_source))
        graph.edge_target = np.concatenate((self.edge_target, appended_target))
        graph.edge_type_index = np.concatenate((self.edge_type_index, types))
        graph.num_edges = len(graph.edge_source)
        graph._count_out_degrees()
        graph._transfer_schema = transfer_schema
        graph._out_index = extend_incidence(
            self._out_index, appended_source, self.num_edges, graph.num_nodes
        )
        graph._in_index = extend_incidence(
            self._in_index, appended_target, self.num_edges, graph.num_nodes
        )
        graph._start_caches()
        return graph

    # -- matrix + adjacency views --------------------------------------------

    def matrix(self) -> sparse.csr_matrix:
        """Transition matrix ``A`` with ``A[j, i] = alpha(e)`` for edge i->j.

        With this orientation one authority-flow step is the matrix-vector
        product ``A @ r`` (Equation 4).  Parallel transfer edges between the
        same node pair have their rates summed.  An entry whose edges all
        carry rate 0 is not stored: it would add ``0.0 * r[i] = +0.0`` to a
        sum that starts at +0.0 and never turns -0.0, which changes no bit
        while ``r`` is finite (an ``inf`` would make it NaN).  Built lazily
        per rate setting by filling the :class:`CsrPattern` of this topology
        and zero-rate type set: one gather of ``edge_rate``, plus one add
        per extra parallel edge.  ``indices`` and ``indptr`` are the
        pattern's own (read-only) arrays.
        """
        return self._per_rate.matrix()

    def sell_matrix(self) -> SellMatrix:
        """:meth:`matrix` in its pattern's :class:`SellLayout` (same floats).

        The layout is built by the first call on any view of this topology
        with the same zero-rate types (≈ 2 ms at 15 531 nodes) and shared;
        the values are filled per rate setting from ``edge_rate`` exactly as
        the matrix's are — so a view only ranked live never builds a CSR
        matrix.
        """
        return self._per_rate.sell_matrix()

    def positive_incidence(self) -> tuple[Incidence, Incidence]:
        """``(in, out)`` incidence over strictly positive-rate edges only.

        Explaining-subgraph construction traverses nothing else (a zero-rate
        edge carries no authority), so its BFS passes skip the rate test.
        Built lazily per rate setting — the full incidence filtered by the
        rate mask, which keeps each node's edges in ascending edge-id order.
        """
        return self._per_rate.positive_incidence()

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per data-graph version and ``key``.

        For index-time structures over node text or topology that request
        paths would otherwise redo per call (the reformulator's node-term
        table, read off :attr:`index`).  The cache is shared by every
        :meth:`with_rates` view, so ``build`` must not depend on the rates;
        keying on ``data_graph.version`` means any mutation of the data
        graph is a miss, so the view a content-only ingest refresh rebinds
        to new text starts cold for it.  Concurrent first uses build once
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


class RateSetting:
    """What one rate setting derives over one topology.

    ``edge_rate`` — Equation 1, one O(edges) division, frozen read-only —
    and ``zero_types`` are computed on construction; the transition matrix,
    its SELL values and the positive-rate incidence are each built on first
    use.  A setting is never updated: a view under new rates gets a new
    one, and views under equal rates share one, so nothing built here is
    ever reset.
    """

    def __init__(self, graph: AuthorityTransferDataGraph) -> None:
        alphas = graph.transfer_schema.vector
        if graph.num_edges:
            edge_rate = alphas[graph.edge_type_index] / graph._edge_out_degree
        else:
            edge_rate = np.zeros(0, dtype=np.float64)
        edge_rate.setflags(write=False)
        self.edge_rate = edge_rate
        #: ``(index, alpha)`` of every edge type with an edge of rate 0.0:
        #: the types whose alpha is 0 (``OutDeg >= 1``), and any whose alpha
        #: is so small that dividing it by a large OutDeg underflows.  With
        #: the topology this fixes which edges carry rate 0, so it picks the
        #: pattern (and layout) this setting shares with every other that
        #: has the same key.
        lowest = alphas / graph._type_max_degree[: alphas.size]
        self.zero_types = tuple(
            (t, alphas[t].item()) for t in np.flatnonzero(lowest <= 0.0).tolist()
        )
        # The per-topology structures the lazy builds read, shared by every
        # view of the topology (never the view itself, which pins a data graph).
        self._topology = (graph.edge_source, graph._in_index, graph.num_nodes)
        self._structure: BuildCache = graph._structure
        self._incidence = (graph._in_index, graph._out_index)
        self._pattern: CsrPattern | None = None
        self._matrix: sparse.csr_matrix | None = None
        self._sell_matrix: SellMatrix | None = None
        self._positive_incidence: tuple[Incidence, Incidence] | None = None

    def pattern(self) -> CsrPattern:
        """The :class:`CsrPattern` of this topology and ``zero_types``."""
        if self._pattern is None:
            self._pattern = self._structure.get(
                ("pattern", self.zero_types), self._build_pattern
            )
        return self._pattern

    def _build_pattern(self) -> CsrPattern:
        # This setting's zero edges are those of every setting with its key.
        zero = self.edge_rate <= 0.0 if self.zero_types else None
        return csr_pattern(*self._topology, zero)

    def matrix(self) -> sparse.csr_matrix:
        if self._matrix is None:
            pattern = self.pattern()
            n = self._topology[2]
            matrix = sparse.csr_matrix(
                (self._csr_data(), pattern.indices, pattern.indptr), shape=(n, n)
            )
            # Sorted and duplicate-free by construction: scipy need neither
            # check nor, on the shared arrays, ever sort in place.
            matrix.has_canonical_format = True
            self._matrix = matrix
        return self._matrix

    def _csr_data(self) -> np.ndarray:
        """The transition matrix's ``data``: one gather of ``edge_rate``
        through the :class:`CsrPattern`, plus one add per parallel edge."""
        pattern = self.pattern()
        data = self.edge_rate[pattern.slot_edge]
        for slots, edges in pattern.parallel:
            data[slots] += self.edge_rate[edges]
        return data

    def sell_matrix(self) -> SellMatrix:
        if self._sell_matrix is None:
            pattern = self.pattern()
            layout = self._structure.get(
                ("layout", self.zero_types),
                lambda: sell_layout(pattern.indptr, pattern.indices),
            )
            self._sell_matrix = SellMatrix(layout, self._csr_data())
        return self._sell_matrix

    def positive_incidence(self) -> tuple[Incidence, Incidence]:
        if self._positive_incidence is None:
            positive = self.edge_rate > 0.0
            self._positive_incidence = tuple(
                _filter_incidence(incidence, positive) for incidence in self._incidence
            )
        return self._positive_incidence


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
    edge_source: np.ndarray,
    in_index: Incidence,
    num_nodes: int,
    zero: np.ndarray | None = None,
) -> CsrPattern:
    """The transition matrix's sparsity pattern and the edges behind each slot.

    Reproduces, over edge ids instead of rates, what ``scipy.sparse`` does to
    the coordinate form ``(rate, (edge_target, edge_source))``: group by row
    keeping edge order (``in_index`` is that grouping), sort each row by
    column with scipy's own ``sort_indices`` — not a stable sort, so the
    order of three or more parallel edges, which float addition is
    sensitive to, is taken from it rather than assumed — and fold each run
    of equal columns into its first slot, left to right.

    ``zero`` flags the edges known to carry rate 0.  The slots all of whose
    edges are flagged are then dropped — after the sort, so every kept slot
    sums its edges, flagged ones included, in the very order the full
    pattern does.
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
    if zero is not None:
        pattern = _without_zero_slots(pattern, zero)
    for array in (*pattern[:3], *(a for pair in pattern.parallel for a in pair)):
        array.setflags(write=False)
    return pattern


def _without_zero_slots(pattern: CsrPattern, zero: np.ndarray) -> CsrPattern:
    """``pattern`` without the slots whose edges are all flagged in ``zero``."""
    keep = ~zero[pattern.slot_edge]
    for slots, edges in pattern.parallel:
        keep[slots] |= ~zero[edges]
    kept_before = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    # A kept slot keeps all of its parallel edges, so a level loses only
    # whole slots, and the levels left empty are the deepest ones.
    parallel = tuple(
        (kept_before[slots[kept]], edges[kept])
        for slots, edges in pattern.parallel
        for kept in (keep[slots],)
        if kept.any()
    )
    return CsrPattern(
        pattern.slot_edge[keep],
        pattern.indices[keep],
        kept_before[pattern.indptr].astype(pattern.indptr.dtype),
        parallel,
    )


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


def extend_incidence(
    incidence: Incidence, endpoint: np.ndarray, first: int, num_nodes: int
) -> Incidence:
    """``incidence`` with edges ``first, first + 1, ...`` added by ``endpoint``.

    ``incidence`` groups edges ``[0, first)`` of fewer (or as many) nodes;
    the result is :func:`build_incidence` of all of them over ``num_nodes``.
    A stable sort puts each node's new edges, all from ``first`` on, after
    its old ones, so the new ones are inserted, in the order a stable sort
    of ``endpoint`` gives them, where their node's old run ends.
    """
    indptr, order = incidence
    counts = np.bincount(endpoint, minlength=num_nodes)
    counts[: indptr.size - 1] += np.diff(indptr)
    merged_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=merged_indptr[1:])
    added = np.argsort(endpoint, kind="stable")
    # np.insert keeps the given order among equal positions.
    ends = indptr[np.minimum(endpoint[added] + 1, indptr.size - 1)]
    return merged_indptr, np.insert(order, ends, added + first)
