"""Property-based tests for the slab container, string packing and the
one ranker's provider-independence (mapped store vs in-memory vectors)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.errors import EmptyBaseSetError
from repro.graph import AuthorityTransferDataGraph
from repro.ir import InvertedIndex
from repro.query import QueryVector
from repro.ranking.precompute import PrecomputedRanker
from repro.storage.slab import SlabFile, SlabFormatError, write_slab
from repro.store.format import (
    ScoreStore,
    _pack_strings,
    _unpack_strings,
    write_score_store,
)

from .strategies import dblp_graphs

_DTYPES = (np.float64, np.float32, np.int64, np.int32, np.uint8)


@st.composite
def named_arrays(draw):
    """A dict of 1-4 named arrays with assorted dtypes and shapes."""
    names = draw(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    arrays = {}
    for name in names:
        dtype = draw(st.sampled_from(_DTYPES))
        shape = draw(
            st.one_of(
                st.integers(0, 40).map(lambda n: (n,)),
                st.tuples(st.integers(1, 8), st.integers(1, 8)),
            )
        )
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        if np.issubdtype(dtype, np.floating):
            arrays[name] = rng.standard_normal(shape).astype(dtype)
        else:
            arrays[name] = rng.integers(0, 100, size=shape).astype(dtype)
    return arrays


@given(named_arrays())
@settings(max_examples=25, deadline=None)
def test_round_trip_is_bit_identical(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("slabs") / "prop.slab"
    write_slab(path, arrays, fsync=False)
    with SlabFile(path) as slab:
        assert sorted(slab.names()) == sorted(arrays)
        for name, original in arrays.items():
            view = slab.array(name)
            assert view.dtype == original.dtype
            assert view.shape == original.shape
            assert view.tobytes() == original.tobytes()


@given(named_arrays(), st.data())
@settings(max_examples=25, deadline=None)
def test_any_payload_byte_flip_is_detected(tmp_path_factory, arrays, data):
    if all(array.nbytes == 0 for array in arrays.values()):
        return  # nothing to corrupt
    path = tmp_path_factory.mktemp("slabs") / "prop.slab"
    write_slab(path, arrays, fsync=False)
    slab = SlabFile(path)
    sections = [s for s in slab._sections.values() if s["nbytes"] > 0]
    slab.close()
    section = data.draw(st.sampled_from(sections))
    offset = section["offset"] + data.draw(
        st.integers(0, section["nbytes"] - 1)
    )
    raw = bytearray(path.read_bytes())
    raw[offset] ^= data.draw(st.integers(1, 255))
    path.write_bytes(raw)
    with pytest.raises(SlabFormatError, match="checksum mismatch"):
        SlabFile(path)


@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
        ),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_string_packing_round_trips(values):
    blob, offsets = _pack_strings(values)
    assert _unpack_strings(blob, offsets) == values


@given(dblp_graphs(min_papers=3, max_papers=6), st.data())
@settings(max_examples=15, deadline=None)
def test_ranker_answers_identically_over_both_providers(tmp_path_factory, graph, data):
    """Scores, base weights and errors do not depend on whether
    ``PrecomputedRanker`` reads the in-memory build or its mapped export.

    Queries are drawn from the build's own keywords, so every one is covered
    and a positive weight is always answered by a blend; all-zero weights
    raise.  A term without a column is refused the same way by both
    providers (``tests/store/test_ranker.py``)."""
    transfer = AuthorityTransferDataGraph(graph, dblp_transfer_schema())
    built = PrecomputedRanker(
        transfer, InvertedIndex.from_graph(graph), min_document_frequency=1
    )
    weights = data.draw(
        st.dictionaries(
            st.sampled_from(built.keywords),
            st.floats(0.0, 4.0, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    path = tmp_path_factory.mktemp("stores") / "store.gen-1.slab"
    write_score_store(path, built, dataset="prop", generation=1, fsync=False)
    with ScoreStore(path) as store:
        rankers = [PrecomputedRanker.over(source) for source in (built.source, store)]
        vector = QueryVector(weights)
        assert not any(r.is_stale(transfer.transfer_schema) for r in rankers)
        outcomes = []
        for ranker in rankers:
            try:
                outcomes.append(ranker.rank(vector))
            except EmptyBaseSetError as error:
                outcomes.append((type(error), str(error)))
        memory, mapped = outcomes
        if isinstance(memory, tuple):
            assert memory[0] is EmptyBaseSetError
            assert not any(weight > 0 for weight in weights.values())
            assert mapped == memory
        else:
            assert mapped.node_ids == memory.node_ids
            assert mapped.scores.tobytes() == memory.scores.tobytes()
            assert mapped.base_weights == memory.base_weights
