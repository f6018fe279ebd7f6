"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base class at an API boundary.  Each subclass corresponds to one
well-defined failure mode; none of them are raised for programmer errors such
as passing the wrong type (those surface as ``TypeError``/``ValueError`` from
the standard library as usual).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A structural problem in a data graph or schema graph."""


class UnknownNodeError(GraphError):
    """A node id was referenced that does not exist in the graph."""

    def __init__(self, node_id: str):
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


class UnknownLabelError(GraphError):
    """A schema label was referenced that the schema graph does not define."""

    def __init__(self, label: str):
        super().__init__(f"unknown schema label: {label!r}")
        self.label = label


class DuplicateNodeError(GraphError):
    """A node id was added twice to a graph."""

    def __init__(self, node_id: str):
        super().__init__(f"duplicate node: {node_id!r}")
        self.node_id = node_id


class ConformanceError(GraphError):
    """A data graph does not conform to its schema graph (Section 2)."""

    def __init__(self, violations: list[str]):
        preview = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"data graph does not conform to schema: {preview}{more}")
        self.violations = violations


class RateError(ReproError):
    """Invalid authority transfer rates (negative, or unknown edge type)."""


class ParameterError(ReproError, ValueError):
    """A retrieval parameter outside its valid range.

    Both a :class:`ReproError` (the serve tier maps it to HTTP 400) and a
    :class:`ValueError` (what library callers of the ranking functions
    expect for a bad argument), so one validator serves every entry point.
    """


class IngestError(ReproError):
    """A malformed or inapplicable ingest mutation."""


class ConvergenceError(ReproError):
    """An iterative fixpoint computation failed to converge."""

    def __init__(self, what: str, iterations: int, residual: float):
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(residual {residual:.3g})"
        )
        self.what = what
        self.iterations = iterations
        self.residual = residual


class EmptyBaseSetError(ReproError):
    """A query matched no node in the database, so no ranking exists."""

    def __init__(self, keywords: tuple[str, ...]):
        super().__init__(f"no object contains any of the keywords {keywords!r}")
        self.keywords = keywords


class PrecomputedCoverageError(EmptyBaseSetError):
    """A precomputed cache covers too little of a query to answer it.

    Subclasses :class:`EmptyBaseSetError` so serving layers that already fall
    back to live ObjectRank2 on an unanswerable cached query treat partial
    coverage the same way instead of silently dropping the missing terms.
    """

    def __init__(
        self, missing: tuple[str, ...], coverage: float, threshold: float
    ):
        ReproError.__init__(
            self,
            f"precomputed vectors cover {coverage:.1%} of the query weight "
            f"(threshold {threshold:.1%}); uncached terms: {missing!r}",
        )
        self.keywords = missing
        self.coverage = coverage
        self.threshold = threshold


class ExplanationError(ReproError):
    """The explaining subgraph could not be built for a target object."""


class DatasetError(ReproError):
    """A named dataset is unknown or a generator received invalid parameters."""


class StorageError(ReproError):
    """A problem in the mini relational store (unknown table, bad row, ...)."""


class StoreError(StorageError):
    """A problem with an on-disk score store or its generation manifest."""
