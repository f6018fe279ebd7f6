"""A damaged published store never reaches a request.

Three kinds of damage to a published ``dblp_tiny`` score store: truncation
at any length, any single byte flipped, and a header re-checksummed (so
the checksum cannot catch it) with one section field or meta field
replaced by any JSON value.  ``SlabFile`` checks every section entry it
maps and ``ScoreStore`` every meta field and offsets array it reads, so
each damaged file either raises :class:`~repro.errors.StoreError` or opens
a store whose keywords, node ids and vectors agree in shape — no other
exception.  Published as the next generation, it leaves
``StoreManager.ranker()`` answering exactly as the previous generation
did, with ``load_errors`` up by one when it could not be opened.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.query import QueryVector
from repro.ranking.precompute import PrecomputedRanker
from repro.storage.slab import SlabFile, SlabFormatError
from repro.store import (
    ScoreStore,
    StoreManager,
    publish_manifest,
    store_path,
    write_score_store,
)
from tests.store.slab_headers import read_header, with_header_field

_QUERIES = (("olap",), ("mining", "data"), ("cube", "olap", "query"))

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def published(tmp_path_factory, dblp_tiny_engine):
    """The good store's bytes, its header and the answers it gives."""
    engine = dblp_tiny_engine
    ranker = PrecomputedRanker(engine.graph, engine.index)
    root = tmp_path_factory.mktemp("store")
    path = store_path(root, 1)
    write_score_store(path, ranker, dataset="dblp_tiny", generation=1, fsync=False)
    good = path.read_bytes()
    header = read_header(good)
    answers = _answers(PrecomputedRanker.over(ScoreStore(path), min_coverage=0.0))
    return good, header, answers, tmp_path_factory.mktemp("faults"), itertools.count()


def _answers(ranker) -> list[bytes]:
    """The score bytes of each query in :data:`_QUERIES`."""
    return [
        ranker.rank(QueryVector({term: 1.0 for term in terms})).scores.tobytes()
        for terms in _QUERIES
    ]


@st.composite
def damages(draw, published):
    """One damage, as a readable description :func:`damage` applies:
    ``("truncate", length)``, ``("flip", position, mask)`` or
    ``("field", (owner, name), value)`` with ``owner`` ``"meta"`` or a
    section name."""
    good, header, *_ = published
    kind = draw(st.sampled_from(["truncate", "flip", "field"]))
    if kind == "truncate":
        return kind, draw(st.integers(0, len(good) - 1))
    if kind == "flip":
        return kind, draw(st.integers(0, len(good) - 1)), draw(st.integers(1, 255))
    fields = [("meta", name) for name in header["meta"]] + [
        (section["name"], name) for section in header["sections"] for name in section
    ]
    return kind, draw(st.sampled_from(fields)), draw(JSON_VALUES)


def damage(published, description) -> bytes:
    good, header, *_ = published
    kind, *args = description
    if kind == "truncate":
        return good[: args[0]]
    if kind == "flip":
        position, mask = args
        return good[:position] + bytes([good[position] ^ mask]) + good[position + 1 :]
    (owner, name), value = args
    return with_header_field(good, owner, name, value)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_damaged_slab_refuses_or_maps_what_its_header_says(published, data):
    """The container alone: every view ``SlabFile`` hands out holds exactly
    the bytes its section entry names."""
    *_, directory, counter = published
    path = directory / f"slab-{next(counter)}.slab"
    path.write_bytes(damage(published, data.draw(damages(published))))
    try:
        slab = SlabFile(path)
    except SlabFormatError:
        return
    for name in slab.names():
        entry = slab._sections[name]
        view = slab.array(name)
        assert (view.nbytes, list(view.shape)) == (entry["nbytes"], entry["shape"])


def _open(path):
    """The store at ``path``, or ``None`` when it raised ``StoreError``."""
    try:
        return ScoreStore(path)
    except StoreError:
        return None


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_damaged_store_raises_store_error_or_opens_consistent(published, data):
    *_, directory, counter = published
    path = directory / f"damaged-{next(counter)}.slab"
    path.write_bytes(damage(published, data.draw(damages(published))))
    store = _open(path)
    if store is None:
        return
    assert store.scores.shape == (len(store.keywords), len(store.node_ids))
    assert store.idf.shape == (len(store.keywords),)
    for keyword in store.keywords:
        assert store.vector(keyword).shape == (len(store.node_ids),)
        assert np.isfinite(store.idf_of(keyword))
    assert len(store.rates) == len(store.edge_types)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_damaged_generation_never_changes_an_answer(published, data):
    good, _header, answers, directory, counter = published
    root = directory / f"root-{next(counter)}"
    root.mkdir()
    store_path(root, 1).write_bytes(good)
    publish_manifest(root, 1, store_path(root, 1).name, fsync=False)
    manager = StoreManager(root, min_coverage=0.0)
    assert _answers(manager.ranker()) == answers
    store_path(root, 2).write_bytes(damage(published, data.draw(damages(published))))
    publish_manifest(root, 2, store_path(root, 2).name, fsync=False)
    refused = _open(store_path(root, 2)) is None
    assert _answers(manager.ranker()) == answers
    assert manager.load_errors == int(refused)
    assert manager.generation == (1 if refused else 2)
