"""Combined content + structure reformulation (Sections 5.1-5.3).

The two reformulation components are orthogonal — content-based rewrites the
query vector, structure-based rewrites the authority transfer rates — and the
paper evaluates three settings (Figure 10):

* Content-Only:            C_f = 0,   C_e = 0.2
* Content & Structure:     C_f = 0.5, C_e = 0.2
* Structure-Only:          C_f = 0.5, C_e = 0

:class:`Reformulator` bundles both components behind one call and supports
multiple feedback objects by aggregating their explaining subgraphs with a
monotone function (sum by default, as in the paper's surveys).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.explain.adjustment import FlowExplanation
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.query.query import QueryVector
from repro.reformulate.content import ContentReformulator
from repro.reformulate.structure import StructureReformulator


@dataclass(frozen=True)
class ReformulatedQuery:
    """The result of one reformulation step.

    ``query_vector`` carries the content-based expansion (unchanged when
    ``C_e = 0``); ``transfer_schema`` carries the structure-based rate
    adjustment (unchanged when ``C_f = 0``).
    """

    query_vector: QueryVector
    transfer_schema: AuthorityTransferSchemaGraph


@dataclass
class Reformulator:
    """One-call content + structure reformulation from feedback explanations."""

    content: ContentReformulator = field(default_factory=ContentReformulator)
    structure: StructureReformulator = field(default_factory=StructureReformulator)

    @classmethod
    def with_factors(
        cls,
        expansion_factor: float,
        adjustment_factor: float,
        decay: float = 0.5,
        num_terms: int = 5,
    ) -> "Reformulator":
        """Build a reformulator from the paper's calibration parameters
        ``(C_e, C_f, C_d, Z)``."""
        return cls(
            content=ContentReformulator(
                decay=decay, expansion_factor=expansion_factor, num_terms=num_terms
            ),
            structure=StructureReformulator(adjustment_factor=adjustment_factor),
        )

    @property
    def uses_content(self) -> bool:
        return self.content.expansion_factor > 0.0

    @property
    def uses_structure(self) -> bool:
        return self.structure.adjustment_factor > 0.0

    def reformulate(
        self,
        query_vector: QueryVector,
        transfer_schema: AuthorityTransferSchemaGraph,
        explanations: list[FlowExplanation],
    ) -> ReformulatedQuery:
        """Reformulate from the explaining subgraphs of the feedback objects.

        With no explanations (the user marked nothing) the query is returned
        unchanged.
        """
        if not explanations:
            return ReformulatedQuery(query_vector.copy(), transfer_schema)
        new_vector = (
            self.content.reformulate(query_vector, explanations)
            if self.uses_content
            else query_vector.copy()
        )
        new_schema = (
            self.structure.reformulate(transfer_schema, explanations)
            if self.uses_structure
            else transfer_schema
        )
        return ReformulatedQuery(new_vector, new_schema)
