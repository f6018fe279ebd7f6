"""Reference loops for Equations 11 and 15 — the test oracle.

The per-node / per-edge Python loops the array-native reformulation
replaced, kept verbatim so the vectorised code can be checked ``==``
against them (tests/properties/test_reformulate_properties.py and the
``bench_explain_batch.py --smoke`` CI guard).  Nothing in ``src`` calls
these.
"""

from __future__ import annotations

from dataclasses import fields

from repro.explain.adjustment import FlowExplanation
from repro.reformulate import ContentReformulator, Reformulator


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
