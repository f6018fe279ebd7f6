"""``/explain`` and ``/feedback/reformulate`` are transport over a session.

The serve tier obtains scores, explanations, the reformulated query and the
re-ranked page from a per-request :class:`ObjectRankSystem`; these tests pin
that contract from the outside: every float the endpoints return equals what
a hand-driven session over the same dataset computes (``==``, no tolerance),
the request deadline still fences each stage of the loop, and the feedback
path never builds the precomputed matrix on its own.
"""

from __future__ import annotations

import pytest

from repro.core import ObjectRankSystem, SystemConfig
from repro.errors import UnknownNodeError
from repro.serve import Deadline, DeadlineExceededError, QueryService, ServeConfig
from repro.serve.service import DatasetRuntime

CANDIDATES = 25

CORPORA = {"figure1": "OLAP", "dblp_tiny": "improved study"}


@pytest.fixture(params=sorted(CORPORA))
def corpus(request):
    """``(dataset, query)`` for the paper's example and a seeded dblp corpus."""
    return request.getfixturevalue(request.param), CORPORA[request.param]


def make_service(dataset) -> QueryService:
    return QueryService(
        ServeConfig(datasets=("ds",), precompute=False, candidates=CANDIDATES),
        datasets={"ds": dataset},
    )


def hand_driven(dataset, query, retrieval_mode="full") -> ObjectRankSystem:
    """The reference: a session over its *own* engine, initial query run."""
    system = ObjectRankSystem(
        dataset.data_graph,
        dataset.transfer_schema,
        SystemConfig(
            global_warm_start=False,
            retrieval_mode=retrieval_mode,
            candidates=CANDIDATES,
        ),
    )
    system.query(query)
    return system


class TestExplainEqualsSession:
    @pytest.mark.parametrize("mode", ["live", "two_stage"])
    def test_bit_identical_explanation(self, corpus, mode):
        dataset, query = corpus
        system = hand_driven(
            dataset, query, "two_stage" if mode == "two_stage" else "full"
        )
        target = system.last_result.top[0][0]
        expected = system.explain(target)

        served = make_service(dataset).explain(
            "ds", query, target, max_edges=10**6, mode=mode
        )
        assert served["served_from"] == "live"
        assert served["mode"] == mode
        assert served["target_inflow"] == expected.target_inflow()
        assert served["adjustment_iterations"] == expected.iterations
        assert served["converged"] == expected.converged
        assert served["subgraph_nodes"] == len(expected.subgraph.nodes)
        assert served["subgraph_edges"] == len(expected.subgraph.edge_ids)
        got = sorted((e["source"], e["target"], e["flow"]) for e in served["edges"])
        assert got == sorted(expected.edge_flow_items())
        flows = [edge["flow"] for edge in served["edges"]]
        assert flows == sorted(flows, reverse=True)

    def test_unknown_target_is_the_sessions_error(self, corpus):
        dataset, query = corpus
        with pytest.raises(UnknownNodeError) as expected:
            hand_driven(dataset, query).explain("no-such-node")
        with pytest.raises(UnknownNodeError) as served:
            make_service(dataset).explain("ds", query, "no-such-node")
        assert str(served.value) == str(expected.value)


class TestFeedbackEqualsSession:
    @pytest.mark.parametrize("apply", [True, False])
    @pytest.mark.parametrize("marked", [0, 1, 3])
    def test_bit_identical_reformulation(self, corpus, apply, marked):
        dataset, query = corpus
        system = hand_driven(dataset, query)
        relevant = system.last_result.hit_ids()[:marked]
        outcome = system.feedback(relevant)

        service = make_service(dataset)
        served = service.feedback_reformulate("ds", query, relevant, apply=apply)
        assert [(r["id"], r["score"]) for r in served["results"]] == outcome.result.top
        assert served["iterations"] == outcome.result.iterations
        assert served["reformulated_query"] == outcome.reformulated.query_vector.weights
        schema = outcome.reformulated.transfer_schema
        assert served["learned_rates"] == {
            str(edge_type): schema.rate(edge_type) for edge_type in schema.edge_types()
        }
        assert served["relevant_ids"] == relevant
        # Nothing marked is never an applied reformulation.
        assert served["applied"] is (apply and marked > 0)
        assert served["precomputed_stale"] is None  # no ranker was ever built
        rates = service.runtime("ds").rates
        assert (rates == schema) if served["applied"] else (rates is dataset.transfer_schema)

    def test_unknown_id_is_the_sessions_error(self, corpus):
        dataset, query = corpus
        with pytest.raises(UnknownNodeError) as expected:
            hand_driven(dataset, query).feedback(["no-such-node"])
        service = make_service(dataset)
        with pytest.raises(UnknownNodeError) as served:
            service.feedback_reformulate("ds", query, ["no-such-node"])
        assert str(served.value) == str(expected.value)
        assert service.runtime("ds").rates is dataset.transfer_schema


def test_feedback_never_builds_the_precomputed_matrix(figure1, monkeypatch):
    """Regression: ``precomputed_stale`` used to be filled through
    ``precomputed_ranker()``, which on a fresh non-store service ran the whole
    per-keyword precompute inside the first feedback request."""
    builds = []
    real = DatasetRuntime._build_precomputed

    def counting(self, graph):
        builds.append(graph)
        return real(self, graph)

    monkeypatch.setattr(DatasetRuntime, "_build_precomputed", counting)
    service = QueryService(
        ServeConfig(datasets=("fig1",), precompute_min_document_frequency=1),
        datasets={"fig1": figure1},
    )
    assert service.search("fig1", "OLAP", mode="live")["served_from"] == "live"
    outcome = service.feedback_reformulate("fig1", "OLAP", ["v4"])
    assert outcome["applied"] is True
    assert outcome["precomputed_stale"] is None
    assert builds == []

    # Once auto traffic has built it, staleness is reported from it.
    service.search("fig1", "OLAP")
    assert len(builds) == 1
    again = service.feedback_reformulate("fig1", "OLAP", ["v4"], apply=False)
    assert again["precomputed_stale"] is True
    assert len(builds) == 1


class _ExpiresBefore(Deadline):
    """A generous deadline that runs out the moment ``stage`` is checked."""

    def __init__(self, stage: str) -> None:
        self._now = 0.0
        super().__init__(5.0, clock=lambda: self._now)
        self._stage = stage
        self.passed: list[str] = []

    def check(self, stage: str) -> None:
        if stage == self._stage:
            self._now = 60.0
        super().check(stage)
        self.passed.append(stage)


class TestDeadlineFencesEveryStage:
    FEEDBACK_STAGES = ["feedback search", "feedback explanations", "reformulated search"]

    @pytest.fixture
    def service(self, figure1):
        return make_service(figure1)

    @pytest.mark.parametrize("position", range(3))
    def test_feedback_stage(self, service, position):
        stage = self.FEEDBACK_STAGES[position]
        deadline = _ExpiresBefore(stage)
        with pytest.raises(DeadlineExceededError) as raised:
            service.feedback_reformulate("ds", "OLAP", ["v4"], deadline=deadline)
        assert str(raised.value) == f"deadline of 5.000s exceeded before {stage}"
        assert deadline.passed == self.FEEDBACK_STAGES[:position]
        # Work stops at the fence: no search before the first, exactly the
        # initial one before the other two; learned rates are published
        # before the re-run is admitted, as they always were.
        iterations = service.metrics.snapshot()["repro_objectrank_iterations_total"]
        assert (iterations > 0) is (position > 0)
        applied = service.runtime("ds").reformulations_applied
        assert applied == (1 if position == 2 else 0)

    def test_explanation_stage(self, service):
        deadline = _ExpiresBefore("explanation")
        with pytest.raises(DeadlineExceededError) as raised:
            service.explain("ds", "OLAP", "v7", deadline=deadline)
        assert str(raised.value) == "deadline of 5.000s exceeded before explanation"
        assert service.metrics.snapshot()["repro_objectrank_iterations_total"] == 0
        assert len(service.explain_cache) == 0

    def test_unexpired_deadline_passes_every_fence(self, service):
        deadline = _ExpiresBefore("never")
        service.feedback_reformulate("ds", "OLAP", ["v4"], deadline=deadline)
        service.explain("ds", "OLAP", "v7", deadline=deadline)
        assert deadline.passed == self.FEEDBACK_STAGES + ["explanation"]
