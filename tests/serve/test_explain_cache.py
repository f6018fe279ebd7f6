"""Tests for the explanation cache in QueryService.explain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import QueryService, ServeConfig


@pytest.fixture
def service(figure1):
    """Figure 1 service, precompute off: /explain always runs ObjectRank2 live."""
    return QueryService(
        ServeConfig(datasets=("fig1",), precompute=False),
        datasets={"fig1": figure1},
    )


class TestExplainCache:
    def test_repeat_explain_served_from_cache(self, service):
        first = service.explain("fig1", "OLAP", "v7")
        second = service.explain("fig1", "OLAP", "v7")
        assert first["served_from"] == "live"
        assert second["served_from"] == "cache"
        assert second["edges"] == first["edges"]
        assert second["target_inflow"] == first["target_inflow"]
        assert second["adjustment_iterations"] == first["adjustment_iterations"]
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_explain_cache_hits_total"] == 1
        assert snapshot["repro_explain_cache_misses_total"] == 1

    def test_cache_hit_trims_to_max_edges(self, service):
        full = service.explain("fig1", "OLAP", "v7", max_edges=50)
        assert len(full["edges"]) > 1
        trimmed = service.explain("fig1", "OLAP", "v7", max_edges=1)
        assert trimmed["served_from"] == "cache"
        assert trimmed["edges"] == full["edges"][:1]
        assert trimmed["subgraph_edges"] == full["subgraph_edges"]

    @pytest.mark.parametrize("max_edges", [0, 1, 3, 10**6])
    def test_rows_are_built_for_the_returned_slice_only(self, service, max_edges):
        everything = service.explain("fig1", "OLAP", "v7", max_edges=10**6)
        assert len(everything["edges"]) == everything["subgraph_edges"] > 3
        served = service.explain("fig1", "OLAP", "v7", max_edges=max_edges)
        assert served["served_from"] == "cache"
        assert served["edges"] == everything["edges"][:max_edges]
        assert list(served) == list(everything)  # same fields, same order
        # What the cache holds is arrays, not one dict per subgraph edge.
        ((stored, _, _),) = service.explain_cache._entries.values()
        summary, node_ids, sources, targets, flows = stored
        assert "edges" not in summary
        assert node_ids is service.runtime("fig1").engine.graph.node_ids
        assert all(isinstance(a, np.ndarray) for a in (sources, targets, flows))
        assert len(sources) == len(targets) == len(flows) == everything["subgraph_edges"]

    def test_distinct_targets_miss_independently(self, service):
        service.explain("fig1", "OLAP", "v7")
        other = service.explain("fig1", "OLAP", "v4")
        assert other["served_from"] == "live"
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_explain_cache_misses_total"] == 2

    def test_distinct_queries_miss_independently(self, service):
        service.explain("fig1", "OLAP", "v7")
        other = service.explain("fig1", "Index", "v7")
        assert other["served_from"] == "live"

    def test_applied_reformulation_invalidates(self, service):
        service.explain("fig1", "OLAP", "v7")
        service.feedback_reformulate("fig1", "OLAP", ["v7"], apply=True)
        after = service.explain("fig1", "OLAP", "v7")
        # The serving rates changed, so the old entry is both evicted and —
        # thanks to the rate fingerprint in the key — unreachable anyway.
        assert after["served_from"] == "live"
        assert "repro_explain_cache_entries 1" in service.metrics_text()

    def test_what_if_reformulation_keeps_cache(self, service):
        service.explain("fig1", "OLAP", "v7")
        service.feedback_reformulate("fig1", "OLAP", ["v7"], apply=False)
        after = service.explain("fig1", "OLAP", "v7")
        assert after["served_from"] == "cache"

    def test_metrics_gauge_tracks_entries(self, service):
        assert "repro_explain_cache_entries 0" in service.metrics_text()
        service.explain("fig1", "OLAP", "v7")
        assert "repro_explain_cache_entries 1" in service.metrics_text()
