"""System-wide configuration: the paper's calibration parameters in one place."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ranking.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)
from repro.reformulate.content import (
    DEFAULT_DECAY,
    DEFAULT_EXPANSION_FACTOR,
    DEFAULT_NUM_TERMS,
)
from repro.reformulate.structure import DEFAULT_ADJUSTMENT_FACTOR

DEFAULT_RADIUS = 3  # L; "a relatively small L (e.g., L=3) is adequate" (Section 4)


@dataclass(frozen=True)
class SystemConfig:
    """All tunables of an ObjectRank2 system instance.

    The defaults are the values the paper states it uses: damping d = 0.85,
    convergence threshold 0.0001 (Section 6.2), explaining-subgraph radius
    L = 3, decay C_d = 0.5, expansion factor C_e = 0.5 and rate adjustment
    factor C_f = 0.5 (Sections 4-5).  The survey settings of Figure 10 are
    provided as constructors.
    """

    damping: float = DEFAULT_DAMPING
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    radius: int | None = DEFAULT_RADIUS
    top_k: int = 10
    decay: float = DEFAULT_DECAY
    expansion_factor: float = DEFAULT_EXPANSION_FACTOR
    adjustment_factor: float = DEFAULT_ADJUSTMENT_FACTOR
    num_expansion_terms: int = DEFAULT_NUM_TERMS
    warm_start: bool = True
    # Section 6.2: "for the initial user query, we initialize every node in
    # D^A with their global ObjectRank values, to achieve faster convergence."
    global_warm_start: bool = True

    @classmethod
    def content_only(cls, expansion_factor: float = 0.2, **overrides) -> "SystemConfig":
        """Figure 10's Content-Only setting: C_f = 0, C_e = 0.2."""
        return cls(expansion_factor=expansion_factor, adjustment_factor=0.0, **overrides)

    @classmethod
    def structure_only(cls, adjustment_factor: float = 0.5, **overrides) -> "SystemConfig":
        """Figure 10's Structure-Only setting: C_f = 0.5, C_e = 0."""
        return cls(expansion_factor=0.0, adjustment_factor=adjustment_factor, **overrides)

    @classmethod
    def content_and_structure(
        cls, expansion_factor: float = 0.2, adjustment_factor: float = 0.5, **overrides
    ) -> "SystemConfig":
        """Figure 10's Content & Structure setting: C_f = 0.5, C_e = 0.2."""
        return cls(
            expansion_factor=expansion_factor,
            adjustment_factor=adjustment_factor,
            **overrides,
        )
