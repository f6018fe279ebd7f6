"""Stage timing instrumentation.

The paper's performance study (Section 6.2, Figures 14-17) decomposes each
feedback-and-reformulate iteration into four stages:

  (a) ObjectRank2 execution for the initial or reformulated query,
  (b) explaining subgraph creation,
  (c) explaining ObjectRank2 execution (the flow-adjustment fixpoint),
  (d) query reformulation.

:class:`StageClock` collects wall-clock durations for named stages so the
system facade can report exactly those rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

STAGE_SEARCH = "objectrank2_execution"
STAGE_SUBGRAPH = "explaining_subgraph_creation"
STAGE_ADJUST = "explaining_objectrank2_execution"
STAGE_REFORMULATE = "query_reformulation"


@dataclass
class StageClock:
    """Accumulates per-stage wall-clock seconds."""

    totals: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)


@dataclass(frozen=True)
class IterationTiming:
    """Per-stage seconds for one query/feedback iteration (one bar group of
    Figures 14a-17a), plus the ObjectRank2 iteration count (14b-17b)."""

    label: str
    search_seconds: float
    subgraph_seconds: float
    adjust_seconds: float
    reformulate_seconds: float
    objectrank_iterations: int
