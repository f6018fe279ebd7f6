"""Authority transfer schema graphs (Section 2, Figure 3).

For each schema edge ``e_G = (u -> v)`` the authority transfer schema graph
``G^A`` has two *authority transfer edges*: a forward edge ``e_G^f = (u -> v)``
and a backward edge ``e_G^b = (v -> u)``, each annotated with an authority
transfer rate ``alpha``.  The backward edge exists because authority
potentially flows in both directions (a paper passes authority to its authors
and vice versa), generally at different rates (citing an important paper does
not make a paper important, hence the DBLP "cited" rate of 0.0).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import RateError
from repro.fold import left_sum
from repro.graph.schema import SchemaEdge, SchemaGraph


class Direction(enum.Enum):
    """Direction of an authority transfer edge relative to its schema edge."""

    FORWARD = "forward"
    BACKWARD = "backward"

    def flipped(self) -> "Direction":
        return Direction.BACKWARD if self is Direction.FORWARD else Direction.FORWARD


@dataclass(frozen=True, order=True)
class EdgeType:
    """One authority transfer edge type: a schema edge plus a direction."""

    schema_edge: SchemaEdge
    direction: Direction = Direction.FORWARD

    @property
    def source(self) -> str:
        """Label that this edge type leaves from in the *transfer* graph."""
        if self.direction is Direction.FORWARD:
            return self.schema_edge.source
        return self.schema_edge.target

    @property
    def target(self) -> str:
        if self.direction is Direction.FORWARD:
            return self.schema_edge.target
        return self.schema_edge.source

    @property
    def role(self) -> str:
        return self.schema_edge.role

    def __str__(self) -> str:
        arrow = "->" if self.direction is Direction.FORWARD else "<-"
        return f"{self.schema_edge.source}-[{self.role}]{arrow}{self.schema_edge.target}"


# Direction ordering for the canonical edge-type vector: forward before
# backward for each schema edge, schema edges in insertion order.
_DIRECTIONS = (Direction.FORWARD, Direction.BACKWARD)


class AuthorityTransferSchemaGraph:
    """A schema graph whose edges carry per-direction authority transfer rates.

    The rates are the quantities a domain expert had to set manually in
    ObjectRank [BHP04] and which Section 5.2 of the paper learns from user
    feedback.  They are one vector, :attr:`vector` (read-only float64), in
    the canonical order of :attr:`types`: the vector Equation 13 rescales
    and Figure 11 compares with cosine similarity.  What the schema fixes —
    the types, their positions, names and label codes — is built by the
    constructor and shared by every graph :meth:`with_vector` and
    :meth:`scaled_to_convergent` derive.
    """

    def __init__(
        self,
        schema: SchemaGraph,
        rates: dict[EdgeType, float] | None = None,
        default_rate: float = 0.0,
        epsilon: float = 0.0,
    ) -> None:
        """Create an authority transfer schema graph over ``schema``.

        ``rates`` assigns transfer rates to edge types; unspecified types get
        ``default_rate``.  ``epsilon`` is a floor applied to every rate: the
        paper assumes all edges are bidirectional with "arbitrarily small flow
        rates assigned to the direction of small importance" to guarantee the
        convergence of the explaining fixpoint (Theorem 1).
        """
        self._schema = schema
        self.epsilon = float(epsilon)
        self.types = tuple(EdgeType(e, d) for e in schema.edges for d in _DIRECTIONS)
        self._position = {edge_type: i for i, edge_type in enumerate(self.types)}
        #: ``str(edge_type)`` per position: the store's ``edge_types``
        #: section and the ``learned_rates`` keys.
        self.names = tuple(map(str, self.types))
        self._label_code = {label: i for i, label in enumerate(schema.labels)}
        self._label_of_type = label_of_type = np.array(
            [self._label_code[t.source] for t in self.types], dtype=np.int64
        )
        #: Each label's outgoing types, in canonical order.
        self._members = [np.flatnonzero(label_of_type == c) for c in self._label_code.values()]
        self._type_counts = np.array([len(m) for m in self._members], dtype=np.float64)
        self._set_checked([default_rate] * len(self.types), (rates or {}).items())

    def _set_checked(self, values, changed=()) -> None:
        """Hold ``values`` (canonical order) with ``changed``'s ``(edge
        type, rate)`` pairs written over them, checked and floored; then
        refuse the pairs naming a type this schema does not have."""
        unknown = []
        if changed:
            values = list(values)
            for edge_type, rate in changed:
                index = self._position.get(edge_type)
                if index is None:
                    unknown.append(edge_type)
                else:
                    values[index] = rate
        self.vector = self.checked(values)
        self.vector.setflags(write=False)
        #: The rates as Python floats: a hashable key, equal exactly when
        #: ``==`` is for graphs over one edge-type order.
        self.key: tuple[float, ...] = tuple(self.vector.tolist())
        if unknown:
            raise RateError(f"rates given for unknown edge types: {sorted(map(str, unknown))}")

    def checked(self, values) -> np.ndarray:
        """``values`` (canonical order) as the float64 array a graph holds:
        a negative or non-finite rate raises :class:`RateError` naming the
        first such type, a value that is no number raises it too (numpy
        would parse the string ``"0.5"``), and every rate is floored at
        ``epsilon``."""
        raw = np.asarray(values)
        if raw.dtype.kind not in "biuf":
            raise RateError(f"rates must be numbers, got an array of {raw.dtype}")
        vector = raw.astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(vector) | (vector < 0.0))
        if bad.size:
            rate = values[bad[0]]
            rate = rate.item() if isinstance(rate, np.generic) else rate  # repr as a float
            raise RateError(f"invalid rate {rate!r} for edge type {self.types[bad[0]]}")
        return np.where(self.epsilon > vector, self.epsilon, vector)  # max(rate, epsilon)

    # -- basic access --------------------------------------------------------

    @property
    def schema(self) -> SchemaGraph:
        return self._schema

    def edge_types(self) -> list[EdgeType]:
        """All edge types in canonical (deterministic) order."""
        return list(self.types)

    def rate(self, edge_type: EdgeType) -> float:
        index = self._position.get(edge_type)
        if index is None:
            raise RateError(f"unknown edge type: {edge_type}")
        return self.key[index]

    # -- vector view (for training / cosine similarity) -----------------------

    def as_vector(self, order: list[EdgeType] | None = None) -> list[float]:
        """Rates as a flat vector, in ``order`` (default: canonical order)."""
        return list(self.key) if order is None else [self.rate(k) for k in order]

    def with_vector(
        self, vector: Sequence[float] | np.ndarray, order: list[EdgeType] | None = None
    ) -> "AuthorityTransferSchemaGraph":
        """A new graph with the rates of ``order`` (default: every type, in
        canonical order) replaced by ``vector``."""
        expected = len(self.key) if order is None else len(order)
        if len(vector) != expected:
            raise RateError(f"rate vector has length {len(vector)}, expected {expected}")
        graph = object.__new__(AuthorityTransferSchemaGraph)
        graph.__dict__.update(self.__dict__)
        if order is None:
            graph._set_checked(vector)
        else:
            graph._set_checked(self.key, zip(order, vector))
        return graph

    # -- per-label sums (Theorem 1's convergence condition) -------------------

    def label_sums(self, vector: np.ndarray | None = None) -> np.ndarray:
        """Each schema label's outgoing rate sum over ``vector`` (default:
        this graph's rates): one :func:`~repro.fold.left_sum` per label in
        canonical order, 0.0 for a label with no outgoing type."""
        rates = self.vector if vector is None else vector
        return np.array([left_sum(rates[m]) for m in self._members], dtype=np.float64)

    def outgoing_rate_sum(self, label: str) -> float:
        """Sum of transfer rates leaving ``label`` in the schema.

        Convergence of ObjectRank2 requires this to be at most 1 for every
        label (step 4 of the Section 5.2 normalization enforces it after a
        structure-based reformulation).
        """
        code = self._label_code.get(label)
        return 0.0 if code is None else float(self.label_sums()[code])

    def is_convergent(self, tolerance: float = 1e-9) -> bool:
        """Whether every label's outgoing rate sum is at most 1."""
        return bool((self.label_sums() <= 1.0 + tolerance).all())

    def headroom(self, vector: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(spare, mass)`` per label over ``vector`` (default: this
        graph's rates): for k outgoing types, the sum the epsilon floor
        leaves room for, ``max(1 - k*epsilon, 0)``, and the rate mass above
        the floor, ``sum - k*epsilon``.

        A label is over-full exactly when ``mass > spare``; taking each of
        its rates ``r`` to ``epsilon + (r - epsilon) * spare / mass`` brings
        its sum to 1 with every rate still at or above the floor, whenever
        ``k*epsilon <= 1``.  At ``epsilon = 0`` that divides by the sum.
        """
        sums = self.label_sums(vector)
        with np.errstate(over="ignore", invalid="ignore"):
            floor = self._type_counts * self.epsilon
            spare = 1.0 - floor
            return np.where(0.0 > spare, 0.0, spare), sums - floor

    def scaled_to_convergent(self) -> "AuthorityTransferSchemaGraph":
        """A graph where labels with outgoing sum > 1 are scaled down to
        sum 1 (this one when none is).

        Only the mass above the epsilon floor is scaled (:meth:`headroom`),
        so re-flooring cannot lift a sum back above 1.
        """
        spare, mass = self.headroom()
        over = (mass > spare)[self._label_of_type]
        if not over.any():
            return self
        label = self._label_of_type[over]
        rates, epsilon = self.vector.copy(), self.epsilon
        with np.errstate(over="ignore", invalid="ignore"):
            rates[over] = epsilon + (rates[over] - epsilon) * spare[label] / mass[label]
        return self.with_vector(rates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuthorityTransferSchemaGraph):
            return NotImplemented
        if self.types == other.types:
            return self.key == other.key
        return dict(zip(self.types, self.key)) == dict(zip(other.types, other.key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AuthorityTransferSchemaGraph(edge_types={len(self.key)})"
