"""The corpus generators' output is pinned: against the oracle, and by digest.

The DBLP generator draws each paper's authors with one ``rng.choices`` over
cumulative weights summed once per topic pool, and the shredder reads rows
without copying them.  Both must produce exactly what the per-paper loops
and copying reads of ``tests/datasets/reference.py`` produce — node ids,
labels, attribute order, edge order and ``paper_topics`` — for any config.
The golden digests pin every registry corpus at seed 7 to the bytes the
generators produced before that rewrite; a change that moves one of them
changes every experiment run on that corpus.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import DblpConfig, Dataset, generate_dblp, load_dataset
from repro.datasets.dblp import DBLP_SHRED_SPEC
from tests.datasets.reference import (
    reference_build_dblp_database,
    reference_shred_to_graph,
)


def _graph_form(graph):
    nodes = [(n.node_id, n.label, list(n.attributes.items())) for n in graph.nodes()]
    edges = [(e.source, e.target, e.role) for e in graph.edges()]
    return nodes, edges


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 over nodes (id, label, attributes in order), edges in order
    and the topic maps a generator leaves in ``extras``."""
    digest = hashlib.sha256()
    nodes, edges = _graph_form(dataset.data_graph)
    for record in [["node", *n] for n in nodes] + [["edge", *e] for e in edges]:
        digest.update(json.dumps(record).encode() + b"\n")
    for key in ("paper_topics", "publication_topics", "gene_topics"):
        if key in dataset.extras:
            record = [key, list(dataset.extras[key].items())]
            digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


# Recorded from the generators as they were before the linear rewrite.
GOLDEN_DIGESTS = {
    ("dblp_tiny", 1.0): "73e992bd37babcd93c0f945d76692063ee60123dfab38b423f7ee55507aaead8",
    ("dblp_top", 1.0): "1d6aeb8183e92df41c5755f5607223d9d235a4584e7f1e571763656b2bb3e4fe",
    ("dblp_complete", 0.5): "6054cb7c37196525835fd6e92078957074242240c7856ee2e78248b127a6bd87",
    ("bio_tiny", 1.0): "4506e83f325a898679c698cd8831f27e9bf622ec499efce1ae9417b5b56d9400",
    ("ds7", 1.0): "9881d5011f53ffd549e1632b66032d7b03003ca00c79c6c890a3e710b3f3dba1",
    ("ds7_cancer", 1.0): "f5d4b4a00c37a664a24d1be77be0b7170b5b040597a3811a73677bc7368d1321",
}


@pytest.mark.parametrize(("name", "scale"), sorted(GOLDEN_DIGESTS))
def test_registry_corpus_matches_its_golden_digest(name, scale):
    dataset = load_dataset(name, scale=scale, seed=7)
    assert dataset_digest(dataset) == GOLDEN_DIGESTS[(name, scale)]


def test_the_digest_sees_attribute_order():
    dataset = load_dataset("dblp_tiny", seed=7)
    graph = dataset.data_graph
    node = next(n for n in graph.nodes() if len(n.attributes) > 1)
    before = dataset_digest(dataset)
    graph.update_attributes(node.node_id, dict(reversed(node.attributes.items())))
    assert dataset_digest(dataset) != before


_configs = st.builds(
    DblpConfig,
    num_papers=st.integers(1, 60),
    # Few authors leave most of the 16 topic pools empty.
    num_authors=st.integers(1, 40),
    num_conferences=st.integers(1, 6),
    first_year=st.just(2000),
    last_year=st.integers(2000, 2004),
    mean_citations=st.floats(0.0, 6.0),
    max_authors_per_paper=st.integers(1, 6),
    topic_coherence=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(config=_configs)
# One author joins at most two of the 16 topics: most papers draw from the
# all-authors fallback pool.
@example(config=DblpConfig(num_papers=30, num_authors=1, num_conferences=2, seed=3))
@example(config=DblpConfig(num_papers=40, num_authors=20, seed=7))
def test_generator_equals_the_reference_loops(config):
    dataset = generate_dblp(config)
    database, paper_topic = reference_build_dblp_database(config)
    reference = reference_shred_to_graph(database, DBLP_SHRED_SPEC)
    assert _graph_form(dataset.data_graph) == _graph_form(reference)
    assert list(dataset.extras["paper_topics"].items()) == [
        (f"paper:{paper_id}", topic.name) for paper_id, topic in paper_topic.items()
    ]

