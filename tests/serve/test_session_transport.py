"""``/explain`` and ``/feedback/reformulate`` are transport over a session.

The serve tier obtains scores, explanations, the reformulated query and the
re-ranked page from a per-request :class:`ObjectRankSystem`; these tests pin
that contract from the outside: every float the endpoints return equals what
a hand-driven session over the same dataset computes (``==``, no tolerance),
the request deadline still fences each stage of the loop, and the feedback
path never builds the precomputed matrix on its own.  The second half pins
the score cache: a session that starts from the ranking an earlier live
search kept answers the same bytes as one that searched, and nothing but a
cold, full-graph run under the exact same vector and epoch is reused.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import ObjectRankSystem, SystemConfig
from repro.errors import UnknownNodeError
from repro.query.query import QueryVector
from repro.serve import Deadline, DeadlineExceededError, QueryService, ServeConfig
from repro.serve.cache import query_fingerprint
from repro.serve.http_server import _BadRequest, _check_explain_mode
import repro.serve.service as service_module
from repro.serve.service import SCORE_CACHE_BYTES

CORPORA = {"figure1": "OLAP", "dblp_tiny": "improved study"}


@pytest.fixture(params=sorted(CORPORA))
def corpus(request):
    """``(dataset, query)`` for the paper's example and a seeded dblp corpus."""
    return request.getfixturevalue(request.param), CORPORA[request.param]


def make_service(dataset) -> QueryService:
    return QueryService(
        ServeConfig(datasets=("ds",), precompute=False),
        datasets={"ds": dataset},
    )


def hand_driven(dataset, query) -> ObjectRankSystem:
    """The reference: a session over its *own* engine, initial query run."""
    system = ObjectRankSystem(
        dataset.data_graph,
        dataset.transfer_schema,
        SystemConfig(global_warm_start=False),
    )
    system.query(query)
    return system


class TestExplainEqualsSession:
    def test_bit_identical_explanation(self, corpus):
        dataset, query = corpus
        system = hand_driven(dataset, query)
        target = system.last_result.top[0][0]
        expected = system.explain(target)

        served = make_service(dataset).explain("ds", query, target, max_edges=10**6)
        assert served["served_from"] == "live"
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
    @pytest.mark.parametrize("marked", [0, 1, 3])
    def test_bit_identical_reformulation(self, corpus, marked):
        dataset, query = corpus
        system = hand_driven(dataset, query)
        relevant = system.last_result.hit_ids()[:marked]
        outcome = system.feedback(relevant)

        service = make_service(dataset)
        served = service.feedback_reformulate("ds", query, relevant)
        assert [(r["id"], r["score"]) for r in served["results"]] == outcome.result.top
        assert served["iterations"] == outcome.result.iterations
        assert served["reformulated_query"] == outcome.reformulated.query_vector.weights
        schema = outcome.reformulated.transfer_schema
        assert served["learned_rates"] == {
            str(edge_type): schema.rate(edge_type) for edge_type in schema.edge_types()
        }
        assert served["relevant_ids"] == relevant
        # The learned rates are the response's, never the dataset's.
        assert service.runtime("ds").rates is dataset.transfer_schema

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
    """A feedback request never reads the precomputed ranker, so on a fresh
    non-store service it never runs the whole per-keyword precompute."""
    builds = []
    real = service_module.PrecomputedRanker

    def counting(graph, *args, **kwargs):
        builds.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(service_module, "PrecomputedRanker", counting)
    service = QueryService(
        ServeConfig(datasets=("fig1",), precompute_min_document_frequency=1),
        datasets={"fig1": figure1},
    )
    assert service.search("fig1", "OLAP", mode="live")["served_from"] == "live"
    service.feedback_reformulate("fig1", "OLAP", ["v4"])
    assert builds == []

    # Auto traffic builds it once, and the feedback between leaves it fresh.
    assert service.search("fig1", "OLAP")["served_from"] == "precomputed"
    service.feedback_reformulate("fig1", "OLAP", ["v4"])
    assert service.search("fig1", "OLAP", top_k=5)["served_from"] == "precomputed"
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
        # initial one before the other two.
        iterations = service.metrics.snapshot()["repro_objectrank_iterations_total"]
        assert (iterations > 0) is (position > 0)

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


# -- the loop reuses the scores of the search before it -------------------------


def answer(response: dict) -> str:
    """The response as the wire would carry it, minus the one timing field."""
    return json.dumps({k: v for k, v in response.items() if k != "elapsed_seconds"})


def counters(service) -> tuple[int, int, int]:
    """``(score-cache hits, misses, ObjectRank2 iterations)`` so far."""
    snapshot = service.metrics.snapshot()
    return (
        snapshot["repro_score_cache_hits_total"],
        snapshot["repro_score_cache_misses_total"],
        snapshot["repro_objectrank_iterations_total"],
    )


def marked(dataset, query) -> list[str]:
    return hand_driven(dataset, query).last_result.hit_ids()[:1]


class TestLoopStartsFromTheLiveSearch:
    def test_feedback_after_live_search_equals_a_fresh_service(self, corpus):
        dataset, query = corpus
        relevant = marked(dataset, query)
        fresh = make_service(dataset)
        expected = fresh.feedback_reformulate("ds", query, relevant, apply=False)
        assert counters(fresh)[:2] == (0, 1)

        service = make_service(dataset)
        page = service.search("ds", query, mode="live")
        served = service.feedback_reformulate("ds", query, relevant, apply=False)
        assert answer(served) == answer(expected)
        hits, misses, iterations = counters(service)
        assert (hits, misses) == (1, 0)
        # Same total as the fresh service: the search's run was not repeated.
        assert iterations == counters(fresh)[2]
        assert iterations == page["iterations"] + served["iterations"]

    @pytest.mark.parametrize("max_edges", [0, 1, 50, 10**6])
    def test_explain_after_live_search_equals_a_fresh_service(self, corpus, max_edges):
        dataset, query = corpus
        target = marked(dataset, query)[0]
        fresh = make_service(dataset)
        expected = fresh.explain("ds", query, target, max_edges=max_edges)

        service = make_service(dataset)
        page = service.search("ds", query, mode="live")
        served = service.explain("ds", query, target, max_edges=max_edges)
        assert served["served_from"] == "live"  # the explanation itself is new
        assert answer(served) == answer(expected)
        assert counters(service) == (1, 0, page["iterations"])
        assert counters(fresh) == (0, 1, page["iterations"])

    def test_the_ranking_does_not_depend_on_the_page(self, dblp_tiny):
        query = CORPORA["dblp_tiny"]
        relevant = marked(dblp_tiny, query)
        expected = make_service(dblp_tiny).feedback_reformulate(
            "ds", query, relevant, apply=False
        )
        service = make_service(dblp_tiny)
        service.search("ds", query, mode="live", top_k=3, labels=("Author",))
        served = service.feedback_reformulate("ds", query, relevant, apply=False)
        assert answer(served) == answer(expected)
        assert counters(service)[:2] == (1, 0)

    def test_auto_traffic_that_falls_through_to_live_feeds_the_loop(self, figure1):
        service = make_service(figure1)  # precompute off: auto ranks live
        assert service.search("ds", "OLAP")["served_from"] == "live"
        service.explain("ds", "OLAP", "v7")
        assert counters(service)[:2] == (1, 0)

    def test_a_session_keeps_its_own_search_for_the_next_request(self, figure1):
        service = make_service(figure1)
        service.explain("ds", "OLAP", "v7")
        service.explain("ds", "OLAP", "v4")
        service.feedback_reformulate("ds", "OLAP", ["v4"], apply=False)
        assert counters(service)[:2] == (2, 1)

    def test_kept_scores_are_read_only(self, figure1):
        service = make_service(figure1)
        service.search("ds", "OLAP", mode="live")
        ((ranked, _),) = service.score_cache._entries.values()
        assert not ranked.scores.flags.writeable
        with pytest.raises(ValueError):
            ranked.scores[0] = 1.0


class TestScoreCacheMisses:
    """Everything that must *not* be answered from a kept ranking."""

    @pytest.mark.parametrize("refresh", ["topology", "content"])
    def test_ingest_refresh_bumps_the_epoch(self, figure1, refresh):
        service = QueryService(
            ServeConfig(datasets=("ds",), precompute=False, ingest=True),
            datasets={"ds": figure1},
        )
        service.search("ds", "OLAP", mode="live")
        assert len(service.score_cache) == 1
        mutations = {
            "topology": [
                {"op": "add_node", "node_id": "p_new", "label": "Paper",
                 "attributes": {"title": "OLAP cube maintenance revisited"}},
                {"op": "add_edge", "source": "v7", "target": "p_new", "role": "cites"},
            ],
            "content": [
                {"op": "update_node", "node_id": "v7",
                 "attributes": {"title": "Data cube OLAP rewritten"}},
            ],
        }[refresh]
        summary = service.ingest("ds", mutations, refresh="force")
        assert summary["epoch"] == 1
        assert len(service.score_cache) == 0
        served = service.feedback_reformulate("ds", "OLAP", ["v7"], apply=False)
        assert served["staleness"]["epoch"] == 1
        assert counters(service)[:2] == (0, 1)

    def test_a_ranking_over_another_node_list_is_not_adopted(self, figure1):
        """The fence behind the epoch: an entry that survived a topology
        refresh racing its request indexes a node list nobody serves."""
        service = make_service(figure1)
        service.search("ds", "OLAP", mode="live")
        ((ranked, _),) = service.score_cache._entries.values()
        ranked.node_ids = list(ranked.node_ids)  # equal, not the served list
        service.explain("ds", "OLAP", "v7")
        assert counters(service)[:2] == (0, 1)

    def test_a_refresh_racing_the_request_is_not_adopted(self, figure1, monkeypatch):
        """A snapshot adopted after the request read its fence but before
        its session looked up the kept ranking: the request's key still
        names epoch 0, so it finds epoch 0's ranking, whose node list is not
        the one the session now runs on."""
        service = QueryService(
            ServeConfig(datasets=("ds",), precompute=False, ingest=True),
            datasets={"ds": figure1},
        )
        service.search("ds", "OLAP", mode="live")
        runtime = service.runtime("ds")
        get = service.score_cache.get

        def refresh_then_get(key):
            runtime.ingest.apply_batch([
                {"op": "add_node", "node_id": "p_new", "label": "Paper",
                 "attributes": {"title": "OLAP cube maintenance revisited"}},
                {"op": "add_edge", "source": "v7", "target": "p_new", "role": "cites"},
            ])
            assert runtime.refresh_ingest(force=True)["epoch"] == 1
            kept = get(key)
            assert kept is not None  # the epoch-0 entry the key still names
            return kept

        monkeypatch.setattr(service.score_cache, "get", refresh_then_get)
        served = service.explain("ds", "OLAP", "v7")
        assert served["staleness"]["epoch"] == 0
        assert counters(service)[:2] == (0, 1)

    def test_two_stage_explain_never_touches_the_score_cache(self, dblp_tiny):
        """There is no two-stage explanation: ``/explain`` refuses the mode
        at its body gate, before the service, so neither cache moves and the
        live ranking the search kept still starts the next explanation."""
        query = CORPORA["dblp_tiny"]
        target = marked(dblp_tiny, query)[0]
        expected = make_service(dblp_tiny).explain("ds", query, target)
        service = make_service(dblp_tiny)
        page = service.search("ds", query, mode="live")
        body = {"dataset": "ds", "query": query, "target": target, "mode": "two_stage"}
        with pytest.raises(_BadRequest, match="'mode': 'two_stage' was removed"):
            _check_explain_mode(body)
        assert counters(service) == (0, 0, page["iterations"])
        assert len(service.score_cache) == 1
        assert len(service.explain_cache) == 0
        served = service.explain("ds", query, target)
        assert answer(served) == answer(expected)
        assert counters(service) == (1, 0, page["iterations"])  # no search of its own

    def test_two_stage_search_admits_nothing(self, dblp_tiny):
        service = make_service(dblp_tiny)
        service.search("ds", CORPORA["dblp_tiny"], mode="two_stage")
        assert len(service.score_cache) == 0

    def test_a_weight_that_differs_past_the_fingerprint(self, figure1):
        service = make_service(figure1)
        vector = service.runtime("ds").engine.query_vector("OLAP")
        ((term, weight),) = vector.weights.items()
        nudged = QueryVector({term: weight * (1 + 1e-14)})
        assert query_fingerprint(nudged) == query_fingerprint(vector)
        assert nudged.weights != vector.weights
        service.search("ds", vector, mode="live")
        service.explain("ds", nudged, "v7")
        assert counters(service)[:2] == (0, 1)

    def test_a_rerun_is_never_admitted(self, corpus):
        dataset, query = corpus
        relevant = marked(dataset, query)
        service = make_service(dataset)
        first = service.feedback_reformulate("ds", query, relevant, apply=False)
        assert len(service.score_cache) == 1  # the initial run, not the re-run
        second = service.feedback_reformulate("ds", query, relevant, apply=False)
        assert answer(second) == answer(first)
        assert counters(service)[:2] == (1, 1)
        # The reformulated query itself, searched live, is a cold run: the
        # warm-started re-run that answered it above did not stand in.
        reformulated = QueryVector(first["reformulated_query"])
        cold = make_service(dataset).search("ds", reformulated, mode="live")
        assert answer(service.search("ds", reformulated, mode="live")) == answer(cold)

    def test_an_unmatched_query_keeps_nothing(self, figure1):
        service = make_service(figure1)
        assert service.search("ds", "zzzunmatched", mode="live")["results"] == []
        assert len(service.score_cache) == 0


class TestScoreCacheBound:
    def test_sized_in_bytes_from_the_ranking(self, dblp_tiny):
        service = make_service(dblp_tiny)
        assert service.score_cache.max_entries is None
        assert service.score_cache.max_bytes == SCORE_CACHE_BYTES
        service.search("ds", CORPORA["dblp_tiny"], mode="live")
        ((ranked, nbytes),) = service.score_cache._entries.values()
        nodes = service.runtime("ds").engine.graph.num_nodes
        assert nbytes == 8 * nodes + 16 * len(ranked.base_weights)
        assert len(ranked.base_weights) > 1

    def test_least_recently_used_rankings_leave_when_the_bytes_run_out(self, dblp_tiny):
        service = make_service(dblp_tiny)
        service.search("ds", "improved", mode="live")
        ((_, nbytes),) = service.score_cache._entries.values()
        service.score_cache.max_bytes = 2 * nbytes + nbytes // 2
        for query in ("study", "improved study", "improved"):
            service.search("ds", query, mode="live")
        assert service.score_cache._bytes <= service.score_cache.max_bytes
        assert 1 <= len(service.score_cache) <= 2
        service.explain("ds", "improved", marked(dblp_tiny, "improved")[0])
        assert counters(service)[:2] == (1, 0)


class TestDeadlineOnAHit:
    @pytest.mark.parametrize("position", range(3))
    def test_feedback_stages_still_fire(self, figure1, position):
        stages = TestDeadlineFencesEveryStage.FEEDBACK_STAGES
        service = make_service(figure1)
        searched = service.search("ds", "OLAP", mode="live")["iterations"]
        deadline = _ExpiresBefore(stages[position])
        with pytest.raises(DeadlineExceededError):
            service.feedback_reformulate("ds", "OLAP", ["v4"], deadline=deadline)
        assert deadline.passed == stages[:position]
        hits, misses, iterations = counters(service)
        assert (hits, misses) == ((1, 0) if position else (0, 0))
        assert iterations == searched  # no search ran on the way to the fence


def test_two_threads_on_one_key(dblp_tiny):
    query = CORPORA["dblp_tiny"]
    relevant = marked(dblp_tiny, query)
    expected = make_service(dblp_tiny).feedback_reformulate(
        "ds", query, relevant, apply=False
    )
    service = make_service(dblp_tiny)
    service.runtime("ds")
    barrier = threading.Barrier(2)
    answers: list[str] = []

    def click():
        barrier.wait()
        answers.append(
            answer(service.feedback_reformulate("ds", query, relevant, apply=False))
        )

    threads = [threading.Thread(target=click) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert answers == [answer(expected)] * 2
    hits, misses, _ = counters(service)
    assert hits + misses == 2 and misses >= 1
    assert len(service.score_cache) == 1
    service.feedback_reformulate("ds", query, relevant, apply=False)
    assert counters(service)[0] == hits + 1
