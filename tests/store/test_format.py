"""Score-store format tests: export fidelity and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoreError
from repro.ranking.precompute import PrecomputedRanker
from repro.storage.slab import write_slab
from repro.store import ScoreStore, write_score_store


@pytest.fixture(scope="module")
def ranker(figure1_graph, figure1_index):
    return PrecomputedRanker(
        figure1_graph, figure1_index, min_document_frequency=1
    )


@pytest.fixture
def store_file(tmp_path, ranker):
    path = tmp_path / "store.gen-1.slab"
    write_score_store(path, ranker, dataset="fig1", generation=1)
    return path


class TestExport:
    def test_vectors_bit_identical(self, store_file, ranker):
        store = ScoreStore(store_file)
        assert store.keywords == ranker.keywords
        for keyword in ranker.keywords:
            assert store.vector(keyword).tobytes() == ranker.vector(keyword).tobytes()
            assert store.idf_of(keyword) == ranker.source.idf_of(keyword)

    def test_node_table_matches_graph(self, store_file, ranker):
        store = ScoreStore(store_file)
        assert store.node_ids == list(ranker.node_ids)
        assert store.num_nodes == len(ranker.node_ids)

    def test_meta_fields(self, store_file, ranker):
        store = ScoreStore(store_file)
        assert store.dataset == "fig1"
        assert store.generation == 1
        assert store.damping == ranker.source.damping
        assert store.build_iterations == ranker.build_iterations

    def test_rates_fingerprint_matches_build_snapshot(self, store_file, ranker):
        store = ScoreStore(store_file)
        assert store.matches_rates(ranker.source.rates_snapshot)

    def test_changed_rates_do_not_match(self, store_file, figure1):
        store = ScoreStore(store_file)
        changed = figure1.transfer_schema.copy()
        edge_type = changed.edge_types()[0]
        changed.set_rate(edge_type, changed.rate(edge_type) / 2 + 0.01)
        assert not store.matches_rates(changed)

    def test_unknown_keyword_raises(self, store_file):
        store = ScoreStore(store_file)
        with pytest.raises(StoreError, match="no vector"):
            store.vector("definitely-not-indexed")
        with pytest.raises(StoreError, match="no idf"):
            store.idf_of("definitely-not-indexed")

    def test_context_manager_and_verify(self, store_file):
        with ScoreStore(store_file) as store:
            store.verify()


class TestValidation:
    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.slab"
        write_slab(path, {"x": np.ones(2)}, meta={"kind": "something-else"})
        with pytest.raises(StoreError, match="not a score store"):
            ScoreStore(path)

    def test_missing_section_rejected(self, tmp_path, store_file):
        from repro.storage.slab import SlabFile

        slab = SlabFile(store_file)
        arrays = {
            name: np.array(slab.array(name))
            for name in slab.names()
            if name != "idf"
        }
        broken = tmp_path / "broken.slab"
        write_slab(broken, arrays, meta=slab.meta)
        with pytest.raises(StoreError, match="missing section 'idf'"):
            ScoreStore(broken)

    def test_corrupt_payload_rejected(self, store_file):
        store = ScoreStore(store_file)
        offset = store._slab._sections["scores"]["offset"] + 1
        store.close()
        raw = bytearray(store_file.read_bytes())
        raw[offset] ^= 0x10
        store_file.write_bytes(raw)
        with pytest.raises(StoreError, match="checksum"):
            ScoreStore(store_file)

    def test_shape_mismatch_rejected(self, tmp_path, store_file):
        from repro.storage.slab import SlabFile

        slab = SlabFile(store_file)
        arrays = {name: np.array(slab.array(name)) for name in slab.names()}
        arrays["scores"] = arrays["scores"][:-1]  # drop one keyword row
        broken = tmp_path / "broken.slab"
        write_slab(broken, arrays, meta=slab.meta)
        with pytest.raises(StoreError, match="shape"):
            ScoreStore(broken)
