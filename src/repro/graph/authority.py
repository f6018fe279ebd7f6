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
import math
from dataclasses import dataclass

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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = "->" if self.direction is Direction.FORWARD else "<-"
        return f"{self.schema_edge.source}-[{self.role}]{arrow}{self.schema_edge.target}"


# Direction ordering for the canonical edge-type vector: forward before
# backward for each schema edge, schema edges in insertion order.
_DIRECTIONS = (Direction.FORWARD, Direction.BACKWARD)

#: Rounding applied to floating-point fingerprint components, so that rates
#: or weights recomputed through an equivalent arithmetic path still hit.
FINGERPRINT_DIGITS = 12


class AuthorityTransferSchemaGraph:
    """A schema graph whose edges carry per-direction authority transfer rates.

    The rates are the quantities a domain expert had to set manually in
    ObjectRank [BHP04] and which Section 5.2 of the paper learns from user
    feedback.  :meth:`as_vector` / :meth:`with_vector` expose them in a fixed
    canonical order so that training curves (Figure 11) can compare a learned
    vector against a ground-truth vector with cosine similarity.
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
        self._rates: dict[EdgeType, float] = {}
        self.epsilon = float(epsilon)
        for schema_edge in schema.edges:
            for direction in _DIRECTIONS:
                edge_type = EdgeType(schema_edge, direction)
                rate = default_rate
                if rates is not None and edge_type in rates:
                    rate = rates[edge_type]
                self._set(edge_type, rate)
        if rates is not None:
            unknown = set(rates) - set(self._rates)
            if unknown:
                raise RateError(f"rates given for unknown edge types: {sorted(map(str, unknown))}")
        self._fingerprint = tuple(
            round(rate, FINGERPRINT_DIGITS) for rate in self._rates.values()
        )

    # -- basic access --------------------------------------------------------

    @property
    def schema(self) -> SchemaGraph:
        return self._schema

    def edge_types(self) -> list[EdgeType]:
        """All edge types in canonical (deterministic) order."""
        return list(self._rates)

    def rate(self, edge_type: EdgeType) -> float:
        if edge_type not in self._rates:
            raise RateError(f"unknown edge type: {edge_type}")
        return self._rates[edge_type]

    def _set(self, edge_type: EdgeType, rate: float) -> None:
        if rate < 0 or not math.isfinite(rate):
            raise RateError(f"invalid rate {rate!r} for edge type {edge_type}")
        self._rates[edge_type] = max(float(rate), self.epsilon)

    def fingerprint(self) -> tuple:
        """The rounded rates in canonical order (fixed at construction)."""
        return self._fingerprint

    # -- vector view (for training / cosine similarity) -----------------------

    def as_vector(self, order: list[EdgeType] | None = None) -> list[float]:
        """Rates as a flat vector, in ``order`` (default: canonical order)."""
        keys = order if order is not None else self.edge_types()
        return [self.rate(k) for k in keys]

    def with_vector(
        self, vector: list[float], order: list[EdgeType] | None = None
    ) -> "AuthorityTransferSchemaGraph":
        """A new graph with the rates of ``order`` replaced by ``vector``."""
        keys = order if order is not None else self.edge_types()
        if len(vector) != len(keys):
            raise RateError(f"rate vector has length {len(vector)}, expected {len(keys)}")
        return self._with_rates(dict(zip(keys, vector)))

    def _with_rates(self, changed: dict[EdgeType, float]) -> "AuthorityTransferSchemaGraph":
        """A new graph over the same schema and floor, ``changed`` replacing
        this graph's rates, built (and checked) by the constructor."""
        return AuthorityTransferSchemaGraph(
            self._schema, {**self._rates, **changed}, epsilon=self.epsilon
        )

    # -- structural helpers ----------------------------------------------------

    def outgoing_types(self, label: str) -> list[EdgeType]:
        """Edge types whose transfer edges leave nodes labeled ``label``."""
        return [t for t in self._rates if t.source == label]

    def outgoing_rate_sum(self, label: str) -> float:
        """Sum of transfer rates leaving ``label`` in the schema.

        Convergence of ObjectRank2 requires this to be at most 1 for every
        label (step 4 of the Section 5.2 normalization enforces it after a
        structure-based reformulation).
        """
        return left_sum(self.rate(t) for t in self.outgoing_types(label))

    def is_convergent(self, tolerance: float = 1e-9) -> bool:
        """Whether every label's outgoing rate sum is at most 1."""
        return all(
            self.outgoing_rate_sum(label) <= 1.0 + tolerance for label in self._schema.labels
        )

    def headroom(self, label: str) -> tuple[float, float]:
        """``(spare, mass)`` of ``label``'s k outgoing types: the outgoing sum
        the epsilon floor leaves room for, ``1 - k*epsilon`` (never below 0),
        and the rate mass above the floor, ``sum - k*epsilon``.

        The label is over-full exactly when ``mass > spare``.  Scaling only
        the mass above the floor by ``spare / mass`` then brings the outgoing
        sum to 1 with every rate still at or above the floor, whenever
        ``k*epsilon <= 1`` (:meth:`shrunk_rate`).  At ``epsilon = 0`` that
        is dividing every rate by the sum.
        """
        floor = len(self.outgoing_types(label)) * self.epsilon
        return max(1.0 - floor, 0.0), self.outgoing_rate_sum(label) - floor

    def shrunk_rate(self, edge_type: EdgeType, spare: float, mass: float) -> float:
        """``edge_type``'s rate with its mass above the floor scaled by
        ``spare / mass`` (see :meth:`headroom`)."""
        epsilon = self.epsilon
        return epsilon + (self.rate(edge_type) - epsilon) * spare / mass

    def scaled_to_convergent(self) -> "AuthorityTransferSchemaGraph":
        """A new graph where labels with outgoing sum > 1 are scaled down to
        sum 1.

        Only the mass above the epsilon floor is scaled (:meth:`headroom`),
        so re-flooring cannot lift a sum back above 1.
        """
        shrunk = {}
        for label in self._schema.labels:
            spare, mass = self.headroom(label)
            if mass > spare:
                for edge_type in self.outgoing_types(label):
                    shrunk[edge_type] = self.shrunk_rate(edge_type, spare, mass)
        return self._with_rates(shrunk)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuthorityTransferSchemaGraph):
            return NotImplemented
        return self._rates == other._rates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AuthorityTransferSchemaGraph(edge_types={len(self._rates)})"
