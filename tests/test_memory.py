"""tracemalloc pins what the build -> publish -> serve path allocates.

A score store at paper scale (thousands of columns over a million nodes)
leaves room for one store-sized array per process: the scores themselves.
Opening and verifying a slab, writing one, swapping a ``StoreManager`` to a
new generation and building the per-keyword columns each stay within a
fixed budget here, so a copy of a section, a ``tobytes()`` or a dense
restart block shows up as a failure.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.ranking import PrecomputedRanker, _native
from repro.ranking.batch import DEFAULT_BLOCK_WIDTH
from repro.ranking.objectrank import keyword_objectranks
from repro.retrieval.engine import SearchEngine
from repro.storage.slab import SlabFile, write_slab
from repro.store import StoreManager, build_and_publish

MB = 1 << 20
#: 32 MiB of float64: a section as large as a mid-sized store's scores.
SECTION_SHAPE = (2048, 2048)


def traced(call) -> tuple[int, int]:
    """Bytes ``call()`` left allocated and allocated at its peak, over what
    was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        retained, peak = tracemalloc.get_traced_memory()
        return retained - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_peak(call) -> int:
    return traced(call)[1]


@pytest.fixture(scope="module")
def section():
    return np.random.default_rng(0).random(SECTION_SHAPE)


def test_writing_a_slab_copies_no_section(tmp_path, section):
    path = tmp_path / "big.slab"
    assert traced_peak(lambda: write_slab(path, {"scores": section}, fsync=False)) < MB


def test_opening_and_verifying_a_slab_copies_no_section(tmp_path, section):
    path = tmp_path / "big.slab"
    write_slab(path, {"scores": section}, fsync=False)

    def open_and_verify():
        with SlabFile(path) as slab:
            slab.verify()

    assert traced_peak(open_and_verify) < MB


class _MadeUpVectors:
    """The provider surface ``write_score_store`` reads, over one array."""

    damping = 0.85
    build_iterations = 0
    graph_version = 0

    def __init__(self, scores, rates):
        self._scores = scores
        self.keywords = [f"term{row}" for row in range(scores.shape[0])]
        self.node_ids = [f"paper:{node}" for node in range(scores.shape[1])]
        self.rates_snapshot = rates

    def vector(self, keyword):
        return self._scores[int(keyword[len("term"):])]

    def idf_of(self, keyword):
        return 1.0


def test_a_forced_refresh_copies_no_section(tmp_path, section, figure1_graph):
    ranker = PrecomputedRanker.over(
        _MadeUpVectors(section, figure1_graph.transfer_schema)
    )
    manager = StoreManager(tmp_path)
    manager.publish(ranker, "made_up")
    build_and_publish(tmp_path, ranker, "made_up")
    assert traced_peak(lambda: manager.refresh(force=True)) < MB
    assert manager.generation == 2
    assert np.array_equal(manager.ranker().source.scores, section)


@pytest.mark.parametrize("mode", ["kernel", "scipy"])
def test_keyword_columns_cost_their_output_and_four_chunk_slabs(mode):
    """The build holds what it returns (every column's scores and base set)
    plus the engine's chunk slabs, never a restart block or every chunk."""
    if mode == "kernel" and not _native.available():
        pytest.skip("no compiled kernel in this process")
    dataset = load_dataset("dblp_top")
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    graph, index = engine.graph, engine.index
    keywords = index.vocabulary(2)
    keyword_objectranks(graph, index, keywords[:2])  # kernel and matrix warm
    built = {}
    with contextlib.ExitStack() as stack:
        if mode == "scipy":
            stack.enter_context(mock.patch.object(_native, "_ensure", lambda: None))
        output, peak = traced(
            lambda: built.update(keyword_objectranks(graph, index, keywords))
        )
    slab = graph.num_nodes * DEFAULT_BLOCK_WIDTH * 8
    assert len(built) > 4 * DEFAULT_BLOCK_WIDTH
    assert output >= sum(result.scores.nbytes for result in built.values())
    assert peak <= output + 4 * slab
