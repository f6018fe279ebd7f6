"""No entry point writes into what its caller owns.

``SearchEngine`` once updated the rate map its caller passed in, so one
feedback session's learned rates leaked into every other session over the
same engine.  Each entry below runs on a random corpus, and every
argument its caller owns (a rate map or schema, a query vector, a
``Mapping`` or id list, a score or warm-start array) must afterwards equal,
bit for bit, a deep copy taken before the call.  An entry that refuses its
input with a typed error is held to the same.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.errors import ReproError
from repro.explain import adjust_flows, batched_adjust_flows, batched_build_explaining_subgraphs
from repro.graph import AuthorityTransferDataGraph
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.ir import BM25Scorer, InvertedIndex
from repro.query import QueryVector
from repro.ranking import Tolerance, objectrank2, rank, uniform_restarts, weighted_restarts
from repro.ranking.precompute import PrecomputedRanker
from repro.reformulate import ContentReformulator, StructureReformulator

from tests.properties.strategies import _WORDS, dblp_graphs, rate_vectors
from tests.properties.test_explain_batch_properties import same_bits


def same(before, after) -> bool:
    """Whether ``after`` still holds ``before``'s keys, order and float bits."""
    if isinstance(after, QueryVector):
        return same(before.weights, after.weights)
    if isinstance(after, AuthorityTransferSchemaGraph):
        return same(
            (before.epsilon, before.edge_types(), before.as_vector()),
            (after.epsilon, after.edge_types(), after.as_vector()),
        )
    if isinstance(after, Mapping):
        return list(before) == list(after) and all(same(before[k], after[k]) for k in after)
    if isinstance(after, (list, tuple)):
        return len(before) == len(after) and all(map(same, before, after))
    if isinstance(after, (float, np.ndarray)):
        return same_bits(before, after)
    return before == after


def unchanged(call, *owned):
    """``call(*owned)``'s answer, after checking it left ``owned`` as it was."""
    before = copy.deepcopy(owned)
    try:
        answer = call(*owned)
    except ReproError:
        answer = None
    assert same(before, owned), call
    return answer


@given(
    graph=dblp_graphs(),
    rates=rate_vectors(),
    known=st.integers(0, 8),
    epsilon=st.sampled_from([0.0, 0.05]),
    words=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 63), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_no_entry_point_changes_what_its_caller_owns(
    graph, rates, known, epsilon, words, picks, seed
):
    schema = dblp_transfer_schema(epsilon=epsilon)
    rate_map = dict(zip(schema.edge_types()[:known], rates))
    transfer = unchanged(
        lambda m: AuthorityTransferSchemaGraph(schema.schema, m, epsilon=epsilon), rate_map
    )
    atdg = AuthorityTransferDataGraph(graph, transfer)
    index = InvertedIndex.from_graph(graph)
    vector = QueryVector({word: 1.0 + i for i, word in enumerate(words)})
    rng = np.random.default_rng(seed)
    result = unchanged(
        lambda v, i: objectrank2(atdg, BM25Scorer(index), v, init=i),
        vector, rng.random(atdg.num_nodes),
    )
    if result is None:  # no word of the query is in the corpus
        return
    ids = [atdg.node_ids[pick % atdg.num_nodes] for pick in picks]
    unchanged(lambda b: weighted_restarts(atdg, [b]), result.base_weights)
    restarts = unchanged(lambda i: uniform_restarts(atdg, [i, i[:1]]), ids)
    unchanged(
        lambda r, i: rank(atdg, r, Tolerance(), init=i), restarts, rng.random(atdg.num_nodes)
    )
    ranker = PrecomputedRanker(atdg, index, min_document_frequency=1)
    unchanged(ranker.rank, vector)

    targets = [node for node in atdg.node_ids if node.startswith("paper:")][:3]
    subgraphs = batched_build_explaining_subgraphs(atdg, list(result.base_weights), targets)
    unchanged(lambda s: adjust_flows(subgraphs[0], s), result.scores)
    explanations = unchanged(lambda s: batched_adjust_flows(subgraphs, s), result.scores)
    unchanged(lambda v: ContentReformulator().reformulate(v, explanations), vector)
    unchanged(lambda t: StructureReformulator().reformulate(t, explanations), transfer)
