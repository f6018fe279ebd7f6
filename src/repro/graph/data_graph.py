"""Labeled data graphs (Section 2).

A data graph ``D(V_D, E_D)`` is a labeled directed graph.  Every node has a
label (its role/type, e.g. ``"Paper"``), an id, and a tuple of attribute
name/value pairs; the keywords appearing in the attribute values comprise the
set of keywords associated with the node.  Edges are labeled with a role
(e.g. ``"cites"``), which may be omitted when it is evident from the endpoint
labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import DuplicateNodeError, GraphError, UnknownNodeError


@dataclass(frozen=True)
class DataNode:
    """One object of the database.

    ``attributes`` maps attribute names to string values; the node's keyword
    set is derived from the attribute values (and optionally the attribute
    names themselves — the paper's "richer semantics by including the
    metadata").
    """

    node_id: str
    label: str
    attributes: dict[str, str] = field(default_factory=dict)

    def text(self, include_metadata: bool = False) -> str:
        """The node viewed as a document: its attribute values joined.

        With ``include_metadata`` the attribute *names* are included too
        (e.g. "Forum", "Year", "Location" become searchable keywords).
        """
        parts: list[str] = []
        for name, value in self.attributes.items():
            if include_metadata:
                parts.append(name)
            parts.append(value)
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label}({self.node_id})"


@dataclass(frozen=True, order=True)
class DataEdge:
    """One directed edge of the data graph, optionally role-labeled."""

    source: str
    target: str
    role: str | None = None


class DataGraph:
    """A labeled directed graph of database objects.

    Node and edge iteration order is insertion order, so everything derived
    from a graph (dense node indices, rankings with ties, ...) is
    deterministic for a fixed construction sequence.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, DataNode] = {}
        self._edges: list[DataEdge] = []
        self._out: dict[str, list[DataEdge]] = {}
        self._in: dict[str, list[DataEdge]] = {}
        self._version = 0
        self._topology_version = 0
        # (version, node_ids, label -> code, codes) of the last
        # :meth:`label_codes` call; replaced whole, never edited.
        self._label_codes: tuple | None = None

    # -- construction ------------------------------------------------------

    def add_node(
        self, node_id: str, label: str, attributes: dict[str, str] | None = None
    ) -> DataNode:
        if node_id in self._nodes:
            raise DuplicateNodeError(node_id)
        node = DataNode(node_id, label, dict(attributes or {}))
        self._nodes[node_id] = node
        self._out[node_id] = []
        self._in[node_id] = []
        self._version += 1
        self._topology_version += 1
        return node

    def add_edge(self, source: str, target: str, role: str | None = None) -> DataEdge:
        for node_id in (source, target):
            if node_id not in self._nodes:
                raise UnknownNodeError(node_id)
        edge = DataEdge(source, target, role)
        self._edges.append(edge)
        self._out[source].append(edge)
        self._in[target].append(edge)
        self._version += 1
        self._topology_version += 1
        return edge

    # -- mutation ----------------------------------------------------------

    def update_attributes(self, node_id: str, attributes: dict[str, str]) -> DataNode:
        """Replace one node's attributes (label and edges untouched).

        The content-only mutation: the node set and edge set are unchanged,
        so everything derived from topology (dense indices, transfer
        matrices) stays valid — only the node's document text changes.
        """
        old = self._nodes.get(node_id)
        if old is None:
            raise UnknownNodeError(node_id)
        node = DataNode(node_id, old.label, dict(attributes))
        self._nodes[node_id] = node
        self._version += 1
        return node

    def remove_node(self, node_id: str) -> DataNode:
        """Remove a node and every edge incident to it."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise UnknownNodeError(node_id)
        # Only the removed node's neighbours can hold one of its edges.
        targets = {e.target for e in self._out.pop(node_id)}
        sources = {e.source for e in self._in.pop(node_id)}
        self._edges = [
            e for e in self._edges if e.source != node_id and e.target != node_id
        ]
        for source in sources - {node_id}:
            edges = self._out[source]
            edges[:] = [e for e in edges if e.target != node_id]
        for target in targets - {node_id}:
            edges = self._in[target]
            edges[:] = [e for e in edges if e.source != node_id]
        self._version += 1
        self._topology_version += 1
        return node

    def remove_edge(
        self, source: str, target: str, role: str | None = None
    ) -> DataEdge:
        """Remove the first ``source -> target`` edge (any role when ``role``
        is ``None``; parallel duplicates are removed one at a time)."""
        for node_id in (source, target):
            if node_id not in self._nodes:
                raise UnknownNodeError(node_id)
        for position, edge in enumerate(self._edges):
            if (
                edge.source == source
                and edge.target == target
                and (role is None or edge.role == role)
            ):
                del self._edges[position]
                self._out[source].remove(edge)
                self._in[target].remove(edge)
                self._version += 1
                self._topology_version += 1
                return edge
        wanted = f" [{role}]" if role is not None else ""
        raise GraphError(f"no edge {source!r} -> {target!r}{wanted} to remove")

    def copy(self) -> "DataGraph":
        """An independent copy (nodes are immutable and shared by reference)."""
        clone = DataGraph()
        clone._nodes = dict(self._nodes)
        clone._edges = list(self._edges)
        clone._out = {nid: list(edges) for nid, edges in self._out.items()}
        clone._in = {nid: list(edges) for nid, edges in self._in.items()}
        clone._version = self._version
        clone._topology_version = self._topology_version
        return clone

    @property
    def version(self) -> int:
        """A counter bumped by every successful mutation.

        Consumers that snapshot derived structures (precomputed score
        matrices, serve caches) record this and compare later: an unequal
        version means the graph they derived from no longer exists.
        """
        return self._version

    @property
    def topology_version(self) -> int:
        """A counter bumped by every mutation of the node or edge set.

        :meth:`update_attributes` leaves it alone: a copy with an equal
        ``topology_version`` has the same nodes and edges in the same order,
        so everything derived from topology alone carries over to it.
        """
        return self._topology_version

    # -- inspection --------------------------------------------------------

    def node(self, node_id: str) -> DataNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def caption(self, node_id: str) -> str:
        """A short human-readable line for a node: ``Label: title-or-name``.

        An id the graph does not hold captions as itself — a cluster worker
        serving a builder-published store generation can rank nodes that
        ingest added after the worker loaded its dataset.
        """
        node = self._nodes.get(node_id)
        if node is None:
            return node_id
        name = (
            node.attributes.get("title")
            or node.attributes.get("name")
            or node.attributes.get("symbol")
            or node_id
        )
        return f"{node.label}: {name[:70]}"

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterator[DataNode]:
        return iter(self._nodes.values())

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def edges(self) -> list[DataEdge]:
        return list(self._edges)

    def out_edges(self, node_id: str) -> list[DataEdge]:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return list(self._out[node_id])

    def in_edges(self, node_id: str) -> list[DataEdge]:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return list(self._in[node_id])

    def out_degree(self, node_id: str) -> int:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return len(self._out[node_id])

    def in_degree(self, node_id: str) -> int:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return len(self._in[node_id])

    def nodes_with_label(self, label: str) -> list[DataNode]:
        return [n for n in self._nodes.values() if n.label == label]

    def label_codes(self, node_ids: list[str]) -> tuple[dict[str, int], np.ndarray]:
        """``(label -> code, code per id)`` for ``node_ids``.

        Ids this graph does not hold get code -1.  Label filtering over a
        ranking's node order is then a mask over the codes rather than a
        lookup per node; the answer for the last id list asked about is kept
        until the graph changes, and rankings of one graph all carry the
        same list.
        """
        cached = self._label_codes
        if cached is not None:
            version, cached_ids, code_of, codes = cached
            if version == self._version and (
                cached_ids is node_ids or cached_ids == node_ids
            ):
                return code_of, codes
        code_of = {}
        nodes = self._nodes
        codes = np.fromiter(
            (
                code_of.setdefault(nodes[node_id].label, len(code_of))
                if node_id in nodes
                else -1
                for node_id in node_ids
            ),
            dtype=np.int64,
            count=len(node_ids),
        )
        self._label_codes = (self._version, node_ids, code_of, codes)
        return code_of, codes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def label_counts(self) -> dict[str, int]:
        """Number of nodes per label (for Table-1-style statistics)."""
        counts: dict[str, int] = {}
        for node in self._nodes.values():
            counts[node.label] = counts.get(node.label, 0) + 1
        return counts

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataGraph(nodes={self.num_nodes}, edges={self.num_edges})"
