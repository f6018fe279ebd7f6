"""Structure-based query reformulation (Section 5.2, Equation 13).

If edges of a type carry large authority in the explaining subgraph of a
feedback object, the user probably believes that edge type matters for the
query; its authority transfer rate is boosted accordingly:

    a'(e_S) = (1 + C_f * F_norm(e_S)) * a(e_S)              (Equation 13)

where ``F(e_S)`` is the total adjusted flow carried by edges of type ``e_S``
in the explaining subgraph (summed over feedback objects, Equation 15).

Normalization (reverse-engineered from the paper's Example 2, whose output
vector [0.67, 0.0, 0.24, 0.16, 0.24, 0.24, 0.24, 0.08] it reproduces to
rounding):

1. ``F_norm = F / max(F)`` — flow factors scaled so the largest is 1;
2. apply Equation 13;
3. divide every rate by ``max(a')`` so rates lie in [0, 1] — this is what
   makes *unboosted* types decay relative to boosted ones;
4. scale all rates by a single global factor so that every schema label's
   outgoing rate sum is at most 1 (required for ObjectRank2 convergence);
   with an epsilon floor only the mass above it is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.explain.adjustment import FlowExplanation
from repro.graph.authority import AuthorityTransferSchemaGraph, EdgeType
from repro.reformulate.aggregation import AGGREGATORS, aggregate_arrays

DEFAULT_ADJUSTMENT_FACTOR = 0.5  # C_f, "typically set to 0.5" (Section 5.2)


@dataclass
class StructureReformulator:
    """Adjusts authority transfer rates from explaining subgraphs."""

    adjustment_factor: float = DEFAULT_ADJUSTMENT_FACTOR
    aggregation: str = "sum"

    def __post_init__(self) -> None:
        if not 0.0 <= self.adjustment_factor <= 1.0:
            raise ValueError(
                f"adjustment factor C_f must be in [0, 1], got {self.adjustment_factor}"
            )
        if self.aggregation not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; "
                f"known: {sorted(AGGREGATORS)}"
            )

    def flow_factors(self, explanations: list[FlowExplanation]) -> dict[EdgeType, float]:
        """``F(e_S)`` aggregated across feedback objects (Equation 15).

        Each explanation's per-type totals are one array over the graph's
        edge types (:meth:`FlowExplanation.type_flows`), combined column by
        column (:func:`~repro.reformulate.aggregation.aggregate_arrays`);
        the factors are listed in edge-type order.
        """
        if not explanations:
            return {}
        totals, present = zip(*(e.type_flows() for e in explanations))
        present = np.stack(present)
        factors = aggregate_arrays(np.stack(totals), present, self.aggregation)
        edge_types = explanations[0].graph.edge_types
        kept = np.flatnonzero(present.any(axis=0))
        return dict(
            zip(map(edge_types.__getitem__, kept.tolist()), factors[kept].tolist())
        )

    def reformulate(
        self,
        transfer_schema: AuthorityTransferSchemaGraph,
        explanations: list[FlowExplanation],
    ) -> AuthorityTransferSchemaGraph:
        """Produce a new transfer schema with adjusted, normalized rates."""
        factors = self.flow_factors(explanations)
        maximum_factor = max(factors.values(), default=0.0)
        if maximum_factor <= 0.0:
            return transfer_schema

        edge_types = transfer_schema.edge_types()
        # Steps 1 + 2: normalize factors, apply Equation 13.
        rates = {
            edge_type: (
                1.0
                + self.adjustment_factor * factors.get(edge_type, 0.0) / maximum_factor
            )
            * transfer_schema.rate(edge_type)
            for edge_type in edge_types
        }

        # Step 3: scale so the maximum rate is 1.
        maximum_rate = max(rates.values())
        if maximum_rate > 0.0:
            rates = {t: r / maximum_rate for t, r in rates.items()}

        # Step 4: one global factor so every label's outgoing sum is <= 1.
        # The factor scales the mass above the epsilon floor only, by the
        # smallest ``spare / mass`` of an over-full label (the largest sum
        # when epsilon is 0), so re-flooring cannot push a sum back over 1.
        adjusted = transfer_schema.with_vector(
            [rates[t] for t in edge_types], edge_types
        )
        over = [
            (spare, mass)
            for spare, mass in map(adjusted.headroom, adjusted.schema.labels)
            if mass > spare
        ]
        if over:
            spare, mass = min(over, key=lambda pair: (pair[0] / pair[1], -pair[1]))
            adjusted = transfer_schema.with_vector(
                [adjusted.shrunk_rate(t, spare, mass) for t in edge_types],
                edge_types,
            )
        return adjusted
