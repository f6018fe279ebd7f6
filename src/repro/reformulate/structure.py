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
from repro.graph.authority import AuthorityTransferSchemaGraph
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

    def flow_factors(self, explanations: list[FlowExplanation]) -> np.ndarray:
        """``F(e_S)`` aggregated across feedback objects (Equation 15).

        One array over the graph's edge types (canonical order): each
        explanation's per-type totals (:meth:`FlowExplanation.type_flows`)
        combined column by column
        (:func:`~repro.reformulate.aggregation.aggregate_arrays`), 0.0
        where no explanation has the type.
        """
        if not explanations:
            return np.zeros(0)
        totals, present = zip(*(e.type_flows() for e in explanations))
        present = np.stack(present)
        factors = aggregate_arrays(np.stack(totals), present, self.aggregation)
        return np.where(present.any(axis=0), factors, 0.0)

    def reformulate(
        self,
        transfer_schema: AuthorityTransferSchemaGraph,
        explanations: list[FlowExplanation],
    ) -> AuthorityTransferSchemaGraph:
        """Produce a new transfer schema with adjusted, normalized rates."""
        factors = self.flow_factors(explanations)
        maximum_factor = factors.max(initial=0.0)
        if maximum_factor <= 0.0:
            return transfer_schema

        # As Python floats do, overflow to inf and inf / inf to NaN silently;
        # a NaN rate is refused by ``checked`` below.
        with np.errstate(over="ignore", invalid="ignore"):
            # Steps 1 + 2: normalize factors, apply Equation 13.
            boost = 1.0 + self.adjustment_factor * factors / maximum_factor
            rates = boost * transfer_schema.vector

            # Step 3: scale so the maximum rate is 1 (``fmax`` passes over
            # a NaN, which ``checked`` then refuses, naming its type).
            maximum_rate = np.fmax.reduce(rates)
            if maximum_rate > 0.0:
                rates = rates / maximum_rate

            # Step 4: one global factor so every label's outgoing sum is <= 1.
            # The factor scales the mass above the epsilon floor only, by the
            # smallest ``spare / mass`` of an over-full label (the largest sum
            # when epsilon is 0), so re-flooring cannot push a sum back over 1.
            rates = transfer_schema.checked(rates)
            spare, mass = transfer_schema.headroom(rates)
            over = np.flatnonzero(mass > spare)
            if over.size:
                worst = over[np.lexsort((-mass[over], spare[over] / mass[over]))[0]]
                epsilon = transfer_schema.epsilon
                rates = epsilon + (rates - epsilon) * spare[worst] / mass[worst]
        return transfer_schema.with_vector(rates)
