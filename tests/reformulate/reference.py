"""Reference loops for Equations 11 and 15 and the rate normalisation —
the test oracle.

The per-node / per-edge Python loops the array-native reformulation
replaced, kept verbatim so the vectorised code can be checked ``==``
against them (tests/properties/test_reformulate_properties.py, and the
``dblp_top`` feedback session in tests/core/test_system.py).  Likewise the
divide-by-the-sum normalisations that scaling only the mass above the
epsilon floor replaced: at ``epsilon = 0`` the two must agree bit for bit.
Nothing in ``src`` calls these.
"""

from __future__ import annotations

from dataclasses import fields

from repro.explain.adjustment import FlowExplanation
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.reformulate import ContentReformulator, Reformulator, StructureReformulator


def reference_flow_by_edge_type(explanation: FlowExplanation) -> dict:
    """``F(e_S)`` by walking every subgraph edge (Section 5.2)."""
    totals: dict = {}
    for edge_id, flow in zip(explanation.edge_ids, explanation.flows):
        edge_type = explanation.graph.edge_type_of(int(edge_id))
        totals[edge_type] = totals.get(edge_type, 0.0) + float(flow)
    return totals


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
        for term in reformulator.analyzer.unique_terms(node.text()):
            if reformulator.analyzer.is_stopword(term):
                continue
            weights[term] = weights.get(term, 0.0) + contribution
    return weights


class _ReferenceExplanation(FlowExplanation):
    flow_by_edge_type = reference_flow_by_edge_type


class _ReferenceContent(ContentReformulator):
    term_weights = reference_term_weights


def _as(cls, instance):
    """``instance`` re-typed as its reference subclass, fields shared."""
    return cls(**{f.name: getattr(instance, f.name) for f in fields(instance)})


def reference_reformulate(
    reformulator: Reformulator, query_vector, transfer_schema, explanations
):
    """``Reformulator.reformulate`` with both loops swapped in; aggregation,
    top-Z, normalisation and Equations 12-13 are the production code."""
    reference = Reformulator(
        content=_as(_ReferenceContent, reformulator.content),
        structure=reformulator.structure,
    )
    return reference.reformulate(
        query_vector,
        transfer_schema,
        [_as(_ReferenceExplanation, e) for e in explanations],
    )


def reference_scaled_to_convergent(
    schema: AuthorityTransferSchemaGraph,
) -> AuthorityTransferSchemaGraph:
    """Every over-full label's rates divided by its outgoing sum."""
    divided = {}
    for label in schema.schema.labels:
        total = schema.outgoing_rate_sum(label)
        if total > 1.0:
            for edge_type in schema.outgoing_types(label):
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
