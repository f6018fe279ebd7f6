"""Reference loops for the live read path — the test oracle.

The document-at-a-time base set (Equations 2-4), the top-N and its first-hit
order, the per-node restart loop, the full-argsort top-k and the ranking-walk label
filter that the array-native read path replaced, kept verbatim so the array
code can be checked ``==`` against them (``tests/properties/
test_read_path_properties.py``).  They score through the scalar
``Scorer.score`` — the definition.  Nothing in ``src`` calls these.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmptyBaseSetError


def reference_weighted_base_set(scorer, query_vector) -> dict[str, float]:
    """``weighted_base_set`` as one ``scorer.score`` call per document."""
    terms = [t for t in query_vector.terms if query_vector.weight(t) > 0]
    candidates = scorer.index.documents_with_any(terms)
    if not candidates:
        raise EmptyBaseSetError(tuple(terms))

    weights = query_vector.weights
    raw = {doc_id: scorer.score(doc_id, weights) for doc_id in candidates}
    positive = [w for w in raw.values() if w > 0]
    floor = min(positive) if positive else 1.0
    adjusted = {doc_id: (w if w > 0 else floor) for doc_id, w in raw.items()}
    total = sum(adjusted.values())
    if total <= 0.0:
        raise EmptyBaseSetError(tuple(terms))
    return {doc_id: w / total for doc_id, w in adjusted.items()}


def reference_top_n(scorer, query_vector, n: int) -> list[tuple[str, float]]:
    """Exhaustive top-N by (score desc, doc id asc), scored per document."""
    weights = {
        term: query_vector.weight(term)
        for term in query_vector.terms
        if query_vector.weight(term) > 0
    }
    docs = scorer.index.documents_with_any(list(weights))
    if not docs:
        raise EmptyBaseSetError(tuple(weights))
    scored = sorted(
        ((scorer.score(doc_id, weights), doc_id) for doc_id in docs),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [(doc_id, score) for score, doc_id in scored[:n]]


def reference_first_hit_order(scorer, query_vector, doc_ids) -> list[int]:
    """Positions into ``doc_ids`` in ``S(Q)`` first-hit order."""
    terms = [t for t in query_vector.terms if query_vector.weight(t) > 0]
    base = scorer.index.documents_with_any(terms)
    rank = {doc_id: i for i, doc_id in enumerate(base)}
    return sorted(range(len(doc_ids)), key=lambda i: rank[doc_ids[i]])


def reference_restart_vector(graph, base: dict[str, float]) -> np.ndarray:
    """The restart vector, one ``index_of`` per base-set node."""
    restart = np.zeros(graph.num_nodes)
    for node_id, weight in base.items():
        restart[graph.index_of(node_id)] = weight
    return restart


def reference_top_k(node_ids, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """``RankedResult.top_k`` as a full stable argsort."""
    k = min(k, len(node_ids))
    if k <= 0:
        return []
    order = np.argsort(-scores, kind="stable")[:k]
    return [(node_ids[i], float(scores[i])) for i in order]


def reference_select_top(data_graph, ranked, top_k: int, labels):
    """``select_top`` with labels as a walk down the full ranking."""
    wanted = set(labels)
    index_of = {node_id: i for i, node_id in enumerate(ranked.node_ids)}
    top: list[tuple[str, float]] = []
    for node_id in ranked.ranking():
        if data_graph.has_node(node_id) and data_graph.node(node_id).label in wanted:
            top.append((node_id, float(ranked.scores[index_of[node_id]])))
            if len(top) == top_k:
                break
    return top
