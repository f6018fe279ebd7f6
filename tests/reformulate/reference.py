"""Reference loops for Equations 11-15 and the rate normalisation — the
test oracle.

The per-node / per-edge Python loops the array-native reformulation
replaced, kept verbatim so the vectorised code can be checked ``==``
against them (tests/properties/test_reformulate_properties.py, and the
``dblp_top`` feedback session in tests/core/test_system.py): the node-term
table by tokenising every node's text with the expansion analyzer
(:func:`build_node_term_table`, which the table read off the inverted index
replaced), Equation 11's term weights, Equation 15's per-type flows, the dict aggregation of
Section 5.3 (:func:`aggregate_maps`) and the top-Z by ``heapq.nsmallest``
over the aggregated dict.  Likewise the divide-by-the-sum normalisations
that scaling only the mass above the epsilon floor replaced: at
``epsilon = 0`` the two must agree bit for bit.  And the rates as a dict:
:class:`DictTransferSchema` is the ``edge type -> rate`` schema graph the
one-vector :class:`~repro.graph.authority.AuthorityTransferSchemaGraph`
replaced, with its per-label loops (``outgoing_types``, ``headroom``,
``shrunk_rate``, ``scaled_to_convergent``), and
:func:`reference_structure_step` is Equation 13 over it, epsilon floor
included.  Nothing in ``src`` calls these.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import fields
from functools import reduce
from operator import add
from types import SimpleNamespace
from typing import Hashable, Mapping, TypeVar

import numpy as np

from repro.errors import RateError
from repro.explain.adjustment import FlowExplanation
from repro.graph.authority import AuthorityTransferSchemaGraph, Direction, EdgeType
from repro.graph.transfer_graph import AuthorityTransferDataGraph
from repro.ir.tokenize import Analyzer
from repro.reformulate import (
    AGGREGATORS,
    ContentReformulator,
    NodeTermTable,
    Reformulator,
    StructureReformulator,
)

#: Section 5.1's expansion rule as an analyzer: at least two characters
#: (author initials are never useful query terms), no stopwords.
EXPANSION_ANALYZER = Analyzer(min_token_length=2)

K = TypeVar("K", bound=Hashable)


def aggregate_maps(maps: list[Mapping[K, float]], how: str = "sum") -> dict[K, float]:
    """Combine several key -> weight maps with the named aggregator.

    Keys missing from a map are treated as absent, not zero: ``min`` over
    {a: 1} and {a: 2, b: 3} gives {a: 1, b: 3}.  (Treating absence as zero
    would make ``min`` discard every key not present in *all* explanations,
    which is never what feedback aggregation wants.)
    """
    try:
        combine = AGGREGATORS[how]
    except KeyError:
        raise ValueError(f"unknown aggregation {how!r}; known: {sorted(AGGREGATORS)}") from None
    collected: dict[K, list[float]] = {}
    for mapping in maps:
        for key, value in mapping.items():
            collected.setdefault(key, []).append(value)
    return {key: combine(values) for key, values in collected.items()}


def reference_flow_by_edge_type(explanation: FlowExplanation) -> dict:
    """``F(e_S)`` by walking every subgraph edge (Section 5.2)."""
    totals: dict = {}
    for edge_id, flow in zip(explanation.edge_ids, explanation.flows):
        edge_type = explanation.graph.edge_type_of(int(edge_id))
        totals[edge_type] = totals.get(edge_type, 0.0) + float(flow)
    return totals


def unique_expansion_terms(text: str) -> list[str]:
    """Distinct expansion terms of ``text``, in first-occurrence order."""
    return list(dict.fromkeys(EXPANSION_ANALYZER.terms(text)))


def build_node_term_table(graph: AuthorityTransferDataGraph) -> NodeTermTable:
    """Tokenise every node of ``graph`` once with the expansion analyzer."""
    data_graph = graph.data_graph
    vocabulary: dict[str, int] = {}
    term_ids: list[int] = []
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    for index, node_id in enumerate(graph.node_ids):
        for term in unique_expansion_terms(data_graph.node(node_id).text()):
            term_ids.append(vocabulary.setdefault(term, len(vocabulary)))
        indptr[index + 1] = len(term_ids)
    return NodeTermTable(
        indptr, np.asarray(term_ids, dtype=np.int64), list(vocabulary)
    )


def reference_term_weights(
    reformulator: ContentReformulator, explanation: FlowExplanation
) -> dict[str, float]:
    """Equation 11 by tokenising every subgraph node's text."""
    subgraph = explanation.subgraph
    graph = explanation.graph
    outflow = explanation.outgoing_flow_by_node()
    outflow[subgraph.target] = explanation.damping * explanation.target_inflow()

    weights: dict[str, float] = {}
    for node_index in subgraph.nodes:
        flow = outflow.get(node_index, 0.0)
        if flow <= 0.0:
            continue
        depth = subgraph.depth_to_target.get(node_index, 0)
        contribution = (reformulator.decay**depth) * flow
        node = graph.data_graph.node(graph.node_id_of(node_index))
        for term in unique_expansion_terms(node.text()):
            weights[term] = weights.get(term, 0.0) + contribution
    return weights


def reference_top_terms(raw: dict[str, float], count: int) -> list[tuple[str, float]]:
    """The top-``count`` of an aggregated term dict by ``(-weight, term)``."""
    return heapq.nsmallest(count, raw.items(), key=lambda item: (-item[1], item[0]))


def reference_expansion_terms(
    reformulator: ContentReformulator, query_vector, explanations
) -> list[tuple[str, float]]:
    """Equations 11 and 14 by the loops, top-Z by ``heapq.nsmallest``, and
    Section 5.1's normalisation."""
    raw = aggregate_maps(
        [reference_term_weights(reformulator, e) for e in explanations],
        reformulator.aggregation,
    )
    if not raw:
        return []
    top = reference_top_terms(raw, reformulator.num_terms)
    maximum = top[0][1]
    if maximum <= 0.0:
        return []
    average = query_vector.average_weight() or 1.0
    scale = average / maximum
    if math.isfinite(scale):
        return [(term, weight * scale) for term, weight in top]
    return [(term, (weight / maximum) * average) for term, weight in top]


def reference_flow_factors(
    reformulator: StructureReformulator, explanations
) -> dict:
    """Equation 15 by walking every edge of every explanation."""
    return aggregate_maps(
        [reference_flow_by_edge_type(e) for e in explanations],
        reformulator.aggregation,
    )


class FlowsByType:
    """An explanation reduced to what Equation 13 reads: ``F(e_S)``.

    ``factors`` (edge type -> flow) over ``edge_types``, a transfer schema's
    canonical order, which is the order a transfer graph lists them in.
    """

    def __init__(self, factors: dict, edge_types) -> None:
        self.factors = factors
        self.graph = SimpleNamespace(edge_types=list(edge_types))

    def type_flows(self) -> tuple[np.ndarray, np.ndarray]:
        types = self.graph.edge_types
        totals = np.array([self.factors.get(t, 0.0) for t in types], dtype=np.float64)
        return totals, np.array([t in self.factors for t in types], dtype=bool)


class DictTransferSchema:
    """The rates as an ``edge type -> rate`` dict, with the per-label loops
    over it: the schema graph the one-vector form replaced, verbatim."""

    def __init__(self, schema, rates=None, default_rate=0.0, epsilon=0.0) -> None:
        self.schema = schema
        self._rates: dict[EdgeType, float] = {}
        self.epsilon = float(epsilon)
        for schema_edge in schema.edges:
            for direction in (Direction.FORWARD, Direction.BACKWARD):
                edge_type = EdgeType(schema_edge, direction)
                rate = default_rate
                if rates is not None and edge_type in rates:
                    rate = rates[edge_type]
                self._set(edge_type, rate)
        if rates is not None:
            unknown = set(rates) - set(self._rates)
            if unknown:
                raise RateError(f"rates given for unknown edge types: {sorted(map(str, unknown))}")

    @classmethod
    def of(cls, graph: AuthorityTransferSchemaGraph) -> "DictTransferSchema":
        rates = dict(zip(graph.edge_types(), graph.as_vector()))
        return cls(graph.schema, rates, epsilon=graph.epsilon)

    def edge_types(self) -> list[EdgeType]:
        return list(self._rates)

    def rate(self, edge_type: EdgeType) -> float:
        if edge_type not in self._rates:
            raise RateError(f"unknown edge type: {edge_type}")
        return self._rates[edge_type]

    def _set(self, edge_type: EdgeType, rate: float) -> None:
        if rate < 0 or not math.isfinite(rate):
            raise RateError(f"invalid rate {rate!r} for edge type {edge_type}")
        self._rates[edge_type] = max(float(rate), self.epsilon)

    def as_vector(self, order=None) -> list[float]:
        keys = order if order is not None else self.edge_types()
        return [self.rate(k) for k in keys]

    def with_vector(self, vector, order=None) -> "DictTransferSchema":
        keys = order if order is not None else self.edge_types()
        if len(vector) != len(keys):
            raise RateError(f"rate vector has length {len(vector)}, expected {len(keys)}")
        return self._with_rates(dict(zip(keys, vector)))

    def _with_rates(self, changed: dict) -> "DictTransferSchema":
        return DictTransferSchema(self.schema, {**self._rates, **changed}, epsilon=self.epsilon)

    def outgoing_types(self, label: str) -> list[EdgeType]:
        return [t for t in self._rates if t.source == label]

    def outgoing_rate_sum(self, label: str) -> float:
        """A plain left fold, ``0.0`` for no types (``repro.fold.left_sum``)."""
        rates = [self.rate(t) for t in self.outgoing_types(label)]
        return reduce(add, rates) if rates else 0.0

    def is_convergent(self, tolerance: float = 1e-9) -> bool:
        return all(
            self.outgoing_rate_sum(label) <= 1.0 + tolerance for label in self.schema.labels
        )

    def headroom(self, label: str) -> tuple[float, float]:
        floor = len(self.outgoing_types(label)) * self.epsilon
        return max(1.0 - floor, 0.0), self.outgoing_rate_sum(label) - floor

    def shrunk_rate(self, edge_type: EdgeType, spare: float, mass: float) -> float:
        epsilon = self.epsilon
        return epsilon + (self.rate(edge_type) - epsilon) * spare / mass

    def scaled_to_convergent(self) -> "DictTransferSchema":
        shrunk = {}
        for label in self.schema.labels:
            spare, mass = self.headroom(label)
            if mass > spare:
                for edge_type in self.outgoing_types(label):
                    shrunk[edge_type] = self.shrunk_rate(edge_type, spare, mass)
        return self._with_rates(shrunk)


def reference_structure_step(
    reformulator: StructureReformulator, transfer_schema: DictTransferSchema, factors: dict
) -> DictTransferSchema:
    """Equation 13 and the four normalisation steps over the dict rates,
    step 4 scaling the mass above the epsilon floor by one global factor."""
    maximum_factor = max(factors.values(), default=0.0)
    if maximum_factor <= 0.0:
        return transfer_schema
    edge_types = transfer_schema.edge_types()
    rates = {
        edge_type: (
            1.0
            + reformulator.adjustment_factor * factors.get(edge_type, 0.0) / maximum_factor
        )
        * transfer_schema.rate(edge_type)
        for edge_type in edge_types
    }
    maximum_rate = max(rates.values())
    if maximum_rate > 0.0:
        rates = {t: r / maximum_rate for t, r in rates.items()}
    adjusted = transfer_schema.with_vector([rates[t] for t in edge_types], edge_types)
    over = [
        (spare, mass)
        for spare, mass in map(adjusted.headroom, adjusted.schema.labels)
        if mass > spare
    ]
    if over:
        spare, mass = min(over, key=lambda pair: (pair[0] / pair[1], -pair[1]))
        adjusted = transfer_schema.with_vector(
            [adjusted.shrunk_rate(t, spare, mass) for t in edge_types], edge_types
        )
    return adjusted


class _ReferenceContent(ContentReformulator):
    expansion_terms = reference_expansion_terms


class _ReferenceStructure(StructureReformulator):
    def reformulate(self, transfer_schema, explanations):
        factors = reference_flow_factors(self, explanations)
        stepped = reference_structure_step(self, DictTransferSchema.of(transfer_schema), factors)
        return transfer_schema.with_vector(stepped.as_vector())


def _as(cls, instance):
    """``instance`` re-typed as its reference subclass, fields shared."""
    return cls(**{f.name: getattr(instance, f.name) for f in fields(instance)})


def reference_reformulate(
    reformulator: Reformulator, query_vector, transfer_schema, explanations
):
    """``Reformulator.reformulate`` with Equations 11, 13, 14 and 15, the
    top-Z and the rate normalisation swapped for the loops; Equation 12 is
    the production code."""
    reference = Reformulator(
        content=_as(_ReferenceContent, reformulator.content),
        structure=_as(_ReferenceStructure, reformulator.structure),
    )
    return reference.reformulate(query_vector, transfer_schema, explanations)


def reference_scaled_to_convergent(
    schema: AuthorityTransferSchemaGraph,
) -> AuthorityTransferSchemaGraph:
    """Every over-full label's rates divided by its outgoing sum."""
    divided = {}
    for label in schema.schema.labels:
        total = schema.outgoing_rate_sum(label)
        if total > 1.0:
            for edge_type in schema.edge_types():
                if edge_type.source == label:
                    divided[edge_type] = schema.rate(edge_type) / total
    return schema.with_vector(list(divided.values()), list(divided))


def reference_structure_reformulate(
    reformulator: StructureReformulator,
    transfer_schema: AuthorityTransferSchemaGraph,
    factors: dict,
) -> AuthorityTransferSchemaGraph:
    """Equation 13 and the four normalisation steps, step 4 dividing every
    rate by the largest outgoing sum."""
    maximum_factor = max(factors.values(), default=0.0)
    if maximum_factor <= 0.0:
        return transfer_schema
    edge_types = transfer_schema.edge_types()
    rates = {
        edge_type: (
            1.0
            + reformulator.adjustment_factor
            * factors.get(edge_type, 0.0)
            / maximum_factor
        )
        * transfer_schema.rate(edge_type)
        for edge_type in edge_types
    }
    maximum_rate = max(rates.values())
    if maximum_rate > 0.0:
        rates = {t: r / maximum_rate for t, r in rates.items()}
    adjusted = transfer_schema.with_vector([rates[t] for t in edge_types], edge_types)
    worst = max(
        (adjusted.outgoing_rate_sum(label) for label in adjusted.schema.labels),
        default=0.0,
    )
    if worst > 1.0:
        rates = {t: r / worst for t, r in rates.items()}
        adjusted = transfer_schema.with_vector(
            [rates[t] for t in edge_types], edge_types
        )
    return adjusted
