"""Content-based query reformulation (Section 5.1, Equations 11-12).

Traditional relevance feedback adds terms from the feedback *document*; the
paper extends this to authority flow by drawing terms from every node of the
explaining subgraph, weighted by the authority each node passes toward the
feedback object and decayed by its distance:

    w(t) = C_d^{D(v_k)} * sum of Flow(v_k -> v_j) over subgraph out-edges
                                                            (Equation 11)

summed over subgraph nodes ``v_k`` containing ``t``.  For the feedback object
itself (whose outgoing flow is not what matters) the paper uses ``d`` times
its incoming flow instead.  The top-``Z`` terms are normalized against the
current query vector's average weight and merged in:

    Q_{i+1} = Q_i + C_e * sum of w'(t) * t                  (Equation 12)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.explain.adjustment import FlowExplanation
from repro.explain.flows import local_node_outgoing_flow
from repro.graph.node_values import first_occurrences
from repro.query.query import QueryVector
from repro.reformulate.aggregation import AGGREGATORS, aggregate_arrays, top_weights
from repro.reformulate.terms import node_term_table

DEFAULT_DECAY = 0.5  # C_d, "typically set to 0.5" (Section 5.1)
DEFAULT_EXPANSION_FACTOR = 0.5  # C_e
DEFAULT_NUM_TERMS = 5  # Z, the paper's "top-k terms"; Example 2 uses 5


@dataclass
class ContentReformulator:
    """Expands and reweights a query vector from explaining subgraphs."""

    decay: float = DEFAULT_DECAY
    expansion_factor: float = DEFAULT_EXPANSION_FACTOR
    num_terms: int = DEFAULT_NUM_TERMS
    aggregation: str = "sum"

    def __post_init__(self) -> None:
        if self.aggregation not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; "
                f"known: {sorted(AGGREGATORS)}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay C_d must be in (0, 1], got {self.decay}")
        if not 0.0 <= self.expansion_factor <= 1.0:
            raise ValueError(
                f"expansion factor C_e must be in [0, 1], got {self.expansion_factor}"
            )

    # -- Equation 11 ---------------------------------------------------------

    def _term_flows(
        self, explanation: FlowExplanation
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Equation 11's addends: ``(term ids, addends, vocabulary)``.

        Stopwords are ignored, as Section 5.1 prescribes.  Each contributing
        node's ``C_d^D(v_k) * outflow`` is repeated over its terms, read off
        the cached node-term table (:mod:`repro.reformulate.terms`, from the
        inverted index) in node order; summing them per term in that order
        is the per-node accumulation loop over the tokenised node text, bit
        for bit.
        """
        subgraph = explanation.subgraph
        table = node_term_table(explanation.graph)
        outflow = local_node_outgoing_flow(subgraph, explanation.flows)
        # The target's "outgoing flow is not specified in G_v^Q": use
        # d * (incoming flow) instead.
        outflow[subgraph.target_local] = (
            explanation.damping * explanation.target_inflow()
        )
        contributing = np.flatnonzero(outflow > 0.0)
        if contributing.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0), table.vocabulary
        depths = subgraph.depth_array[contributing]
        # One Python ``float ** int`` per distinct depth: numpy's vectorised
        # pow may round the last bit differently, and the weights are pinned
        # bit for bit to the per-node reference loop.
        decay_powers = np.asarray(
            [self.decay**depth for depth in range(int(depths.max()) + 1)]
        )
        contributions = decay_powers[depths] * outflow[contributing]
        term_ids, counts = table.gather(subgraph.nodes_array[contributing])
        return term_ids, np.repeat(contributions, counts), table.vocabulary

    def term_weight_arrays(
        self, explanation: FlowExplanation
    ) -> tuple[np.ndarray, np.ndarray]:
        """Equation 11 over the whole node-term vocabulary: ``(weights,
        present)``, one ``np.bincount`` (each term's addends summed from
        0.0 in node order) and the mask of the terms the subgraph has."""
        term_ids, addends, vocabulary = self._term_flows(explanation)
        present = np.zeros(len(vocabulary), dtype=bool)
        present[term_ids] = True
        weights = np.bincount(term_ids, weights=addends, minlength=len(vocabulary))
        return weights, present

    def term_weights(self, explanation: FlowExplanation) -> dict[str, float]:
        """:meth:`term_weight_arrays`' weights as ``term -> weight``, in the
        order the subgraph's nodes first name the terms."""
        term_ids, addends, vocabulary = self._term_flows(explanation)
        weights = np.bincount(term_ids, weights=addends, minlength=len(vocabulary))
        order = first_occurrences(term_ids)
        return dict(
            zip(map(vocabulary.__getitem__, order.tolist()), weights[order].tolist())
        )

    def aggregated_terms(
        self, explanations: list[FlowExplanation]
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Term weights combined across feedback objects (Equation 14).

        ``(weights, term ids, vocabulary)``: the aggregated weight of every
        term some explanation has, by vocabulary id.  The paper uses
        summation in its surveys; min/max/avg are the other monotone
        aggregation functions Section 5.3 names
        (:func:`~repro.reformulate.aggregation.aggregate_arrays`).
        """
        if not explanations:
            return np.zeros(0), np.zeros(0, dtype=np.int64), []
        vocabulary = node_term_table(explanations[0].graph).vocabulary
        rows = [self.term_weight_arrays(e) for e in explanations]
        present = np.stack([has for _, has in rows])
        keys = np.flatnonzero(present.any(axis=0))
        stack = np.stack([weights[keys] for weights, _ in rows])
        weights = aggregate_arrays(stack, present[:, keys], self.aggregation)
        return weights, keys, vocabulary

    def aggregate_term_weights(
        self, explanations: list[FlowExplanation]
    ) -> dict[str, float]:
        """:meth:`aggregated_terms` as ``term -> weight``, by vocabulary id."""
        weights, keys, vocabulary = self.aggregated_terms(explanations)
        return dict(zip(map(vocabulary.__getitem__, keys.tolist()), weights.tolist()))

    # -- top-Z selection + normalization + Equation 12 --------------------------

    def expansion_terms(
        self, query_vector: QueryVector, explanations: list[FlowExplanation]
    ) -> list[tuple[str, float]]:
        """The top-``Z`` expansion terms with *normalized* weights.

        Normalization (Section 5.1): let ``a_q`` be the average weight of the
        current query vector and ``x`` the maximum raw expansion weight; all
        expansion weights are scaled by ``a_q / x`` so the strongest new term
        weighs as much as an average current term.  The top ``Z`` come
        straight off the aggregated arrays (:func:`top_weights`), by
        descending weight and then term, as a sort of every term would list
        them.
        """
        top = top_weights(*self.aggregated_terms(explanations), self.num_terms)
        if not top:
            return []
        maximum = top[0][1]
        if maximum <= 0.0:
            return []
        average = query_vector.average_weight() or 1.0
        scale = average / maximum
        if math.isfinite(scale):
            return [(term, weight * scale) for term, weight in top]
        # A subnormal maximum overflows ``a_q / x``; each ``w / x`` is at most 1.
        return [(term, (weight / maximum) * average) for term, weight in top]

    def reformulate(
        self, query_vector: QueryVector, explanations: list[FlowExplanation]
    ) -> QueryVector:
        """Apply Equation 12: merge scaled expansion terms into the vector."""
        reformulated = query_vector.copy()
        for term, weight in self.expansion_terms(query_vector, explanations):
            reformulated.add_weight(term, self.expansion_factor * weight)
        return reformulated
