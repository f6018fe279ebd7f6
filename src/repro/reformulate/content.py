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

from dataclasses import dataclass, field

import numpy as np

from repro.explain.adjustment import FlowExplanation
from repro.explain.flows import grouped_flow_totals, local_node_outgoing_flow
from repro.ir.tokenize import Analyzer
from repro.query.query import QueryVector
from repro.reformulate.aggregation import AGGREGATORS, aggregate_maps
from repro.reformulate.terms import node_term_table

DEFAULT_DECAY = 0.5  # C_d, "typically set to 0.5" (Section 5.1)
DEFAULT_EXPANSION_FACTOR = 0.5  # C_e
DEFAULT_NUM_TERMS = 5  # Z, the paper's "top-k terms"; Example 2 uses 5

# Expansion terms come from node text that includes author initials ("R.
# Agrawal"); single letters are never useful query terms, so the expansion
# analyzer requires at least two characters.
_EXPANSION_ANALYZER = Analyzer(min_token_length=2)


@dataclass
class ContentReformulator:
    """Expands and reweights a query vector from explaining subgraphs."""

    decay: float = DEFAULT_DECAY
    expansion_factor: float = DEFAULT_EXPANSION_FACTOR
    num_terms: int = DEFAULT_NUM_TERMS
    analyzer: Analyzer = field(default_factory=lambda: _EXPANSION_ANALYZER)
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

    def term_weights(self, explanation: FlowExplanation) -> dict[str, float]:
        """Raw expansion-term weights for one feedback object's explanation.

        Stopwords are ignored, as Section 5.1 prescribes.  One reduction
        over the cached node-term table (:mod:`repro.reformulate.terms`):
        each node's contribution ``C_d^D(v_k) * outflow`` is added to its
        terms in node order, so every weight is bit-identical to a per-node
        accumulation loop over the tokenised node text.
        """
        subgraph = explanation.subgraph
        outflow = local_node_outgoing_flow(subgraph, explanation.flows)
        # The target's "outgoing flow is not specified in G_v^Q": use
        # d * (incoming flow) instead.
        outflow[subgraph.target_local] = (
            explanation.damping * explanation.target_inflow()
        )
        contributing = np.flatnonzero(outflow > 0.0)
        if contributing.size == 0:
            return {}
        depths = subgraph.depth_array[contributing]
        # One Python ``float ** int`` per distinct depth: numpy's vectorised
        # pow may round the last bit differently, and the weights are pinned
        # bit for bit to the per-node reference loop.
        decay_powers = np.asarray(
            [self.decay**depth for depth in range(int(depths.max()) + 1)]
        )
        contributions = decay_powers[depths] * outflow[contributing]

        table = node_term_table(explanation.graph, self.analyzer)
        term_ids, counts = table.gather(subgraph.nodes_array[contributing])
        terms, weights = grouped_flow_totals(
            term_ids, np.repeat(contributions, counts), len(table.vocabulary)
        )
        vocabulary = table.vocabulary
        return {
            vocabulary[term]: weight
            for term, weight in zip(terms.tolist(), weights.tolist())
        }

    def aggregate_term_weights(
        self, explanations: list[FlowExplanation]
    ) -> dict[str, float]:
        """Combine term weights across feedback objects (Equation 14).

        The paper uses summation in its surveys; min/max/avg are the other
        monotone aggregation functions Section 5.3 names.
        """
        return aggregate_maps(
            [self.term_weights(e) for e in explanations], self.aggregation
        )

    # -- top-Z selection + normalization + Equation 12 --------------------------

    def expansion_terms(
        self, query_vector: QueryVector, explanations: list[FlowExplanation]
    ) -> list[tuple[str, float]]:
        """The top-``Z`` expansion terms with *normalized* weights.

        Normalization (Section 5.1): let ``a_q`` be the average weight of the
        current query vector and ``x`` the maximum raw expansion weight; all
        expansion weights are scaled by ``a_q / x`` so the strongest new term
        weighs as much as an average current term.
        """
        raw = self.aggregate_term_weights(explanations)
        if not raw:
            return []
        top = sorted(raw.items(), key=lambda item: (-item[1], item[0]))[: self.num_terms]
        maximum = top[0][1]
        if maximum <= 0.0:
            return []
        average = query_vector.average_weight() or 1.0
        scale = average / maximum
        return [(term, weight * scale) for term, weight in top]

    def reformulate(
        self, query_vector: QueryVector, explanations: list[FlowExplanation]
    ) -> QueryVector:
        """Apply Equation 12: merge scaled expansion terms into the vector."""
        reformulated = query_vector.copy()
        for term, weight in self.expansion_terms(query_vector, explanations):
            reformulated.add_weight(term, self.expansion_factor * weight)
        return reformulated
