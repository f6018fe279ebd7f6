"""The seeded samplers: determinism, distinctness, designed kind shares."""

import random

import pytest

from benchmarks.e2e import harness  # noqa: F401  (puts src/ on sys.path)
from benchmarks.e2e.workloads import (
    Query,
    WorkloadError,
    check_kind_shares,
    distinct_queries,
    ingest_cycles,
    term_pools,
    zipf_sequence,
)

from repro.datasets import load_dataset
from repro.ir.index import InvertedIndex


@pytest.fixture(scope="module")
def tiny():
    dataset = load_dataset("dblp_tiny")
    return dataset, InvertedIndex.from_graph(dataset.data_graph)


def test_pools_are_df_bands_and_honour_the_coverage_filter(tiny):
    _, index = tiny
    pools = term_pools(index)
    assert all(pools.values())
    dfs = {kind: [index.document_frequency(t) for t in pool] for kind, pool in pools.items()}
    assert min(dfs["selective"]) >= 2
    assert max(dfs["selective"]) < min(dfs["topical"]) <= max(dfs["topical"]) < min(dfs["popular"])
    kept = set(pools["topical"][:3])
    assert term_pools(index, covered=kept.__contains__)["topical"] == sorted(kept)


def test_distinct_queries_hit_the_designed_shares_exactly(tiny):
    _, index = tiny
    shares = {"selective": 0.70, "topical": 0.15, "popular": 0.15}
    queries = distinct_queries(term_pools(index), shares, 200, random.Random(3))
    assert len({query.text for query in queries}) == 200
    counts = {kind: sum(q.kind == kind for q in queries) for kind in shares}
    assert counts == {"selective": 140, "topical": 30, "popular": 30}
    again = distinct_queries(term_pools(index), shares, 200, random.Random(3))
    assert queries == again
    assert queries != distinct_queries(term_pools(index), shares, 200, random.Random(4))


def test_pairs_run_out_into_triples_and_then_fail(tiny):
    pool = ["a", "b", "c", "d"]  # 6 pairs + 4 triples
    texts = distinct_queries({"topical": pool}, {"topical": 1.0}, 10, random.Random(1))
    assert len({q.text for q in texts}) == 10
    assert sum(len(q.text.split()) == 3 for q in texts) == 4
    with pytest.raises(WorkloadError):
        distinct_queries({"topical": pool}, {"topical": 1.0}, 11, random.Random(1))


def test_share_assertion_catches_a_wrong_mix():
    queries = [Query("a b", "selective")] * 8 + [Query("c d", "popular")] * 2
    check_kind_shares(queries, {"selective": 0.8, "popular": 0.2})
    with pytest.raises(WorkloadError):
        check_kind_shares(queries, {"selective": 0.5, "popular": 0.5})
    with pytest.raises(WorkloadError):
        check_kind_shares(queries, {"selective": 1.0})


def test_zipf_head_is_heavy(tiny):
    _, index = tiny
    universe = distinct_queries(term_pools(index), {"topical": 1.0}, 100, random.Random(5))
    draws = zipf_sequence(universe, 5000, random.Random(5))
    assert len(draws) == 5000
    assert draws.count(universe[0]) > 4 * draws.count(universe[9])


def test_ingest_cycles_shape(tiny):
    dataset, index = tiny
    cycles = ingest_cycles(dataset.data_graph, term_pools(index), 12, random.Random(2))
    assert [c.topology for c in cycles] == [False] * 5 + [True] + [False] * 5 + [True]
    for cycle in cycles:
        assert len(cycle.reads) == 12 and len(set(cycle.reads)) == 3
        assert cycle.reads[:3] == cycle.reads[3:6]
        ops = [m["op"] for m in cycle.mutations]
        assert ops == (["add_node", "add_edge"] if cycle.topology else ["update_node"] * 4)
