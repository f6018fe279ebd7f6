"""The on-disk score store: precomputed keyword→score matrix as one slab.

A score store freezes everything the serving tier's precomputed fast path
needs — the per-keyword ObjectRank vectors of
:class:`repro.ranking.precompute.PrecomputedRanker`, the vocabulary, the
node-id table, the per-keyword idf weights and the transfer-rate vector the
vectors were computed under — into one :mod:`repro.storage.slab` file that
worker processes mmap read-only and slice zero-copy.

Sections (``KIND = "repro-score-store"`` in the slab meta):

================  ===========================================================
``scores``        float64 ``(num_keywords, num_nodes)`` — row ``i`` is the
                  authority vector of keyword ``i`` (column-slab layout: one
                  contiguous row per keyword, so a query touches exactly the
                  rows of its terms)
``idf``           float64 ``(num_keywords,)`` — BM25 idf per keyword, frozen
                  at build time so query-time blending needs no index
``keyword_blob``  utf-8 bytes of all keywords concatenated
``keyword_offsets``  int64 ``(num_keywords + 1,)`` — blob slice bounds
``node_blob``     utf-8 bytes of all node ids concatenated
``node_offsets``  int64 ``(num_nodes + 1,)``
``rates``         float64 — the transfer-rate vector in canonical edge-type
                  order (the store's staleness fingerprint)
================  ===========================================================

The meta object carries ``dataset``, ``generation``, ``damping``,
``edge_types`` (canonical ``str(EdgeType)`` names matching ``rates``) and
``build_iterations``.  Scores are assembled on hugepage-backed slabs
(:func:`repro.ranking._native.slab_empty`) before the write — the same
aligned-buffer builder the blocked kernel uses.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import StoreError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.ranking._native import slab_empty
from repro.ranking.precompute import PrecomputedRanker
from repro.storage.slab import SlabFile, SlabFormatError, write_slab

KIND = "repro-score-store"


def _pack_strings(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate strings into a utf-8 blob + int64 offsets array."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = blob.tobytes()
    return [
        raw[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


def write_score_store(
    path: str | os.PathLike,
    ranker: PrecomputedRanker,
    dataset: str,
    generation: int,
    fsync: bool = True,
) -> int:
    """Export a built (in-memory) :class:`PrecomputedRanker` as one slab file.

    The exported vectors, idf weights and rate vector are byte-exact copies
    of the ranker's in-memory state, so ``PrecomputedRanker.over`` the mapped
    store answers bit-identically to the ranker itself.  Returns the file
    size.
    """
    source = ranker.source
    keywords = source.keywords
    num_nodes = len(source.node_ids)
    # Hugepage-backed assembly slab: the write streams it once, and builds
    # at paper scale (1e6 nodes x 1e4 keywords) touch it row-by-row first.
    scores = slab_empty((len(keywords), num_nodes))
    idf = np.empty(len(keywords))
    for row, keyword in enumerate(keywords):
        scores[row] = source.vector(keyword)
        idf[row] = source.idf_of(keyword)
    keyword_blob, keyword_offsets = _pack_strings(keywords)
    node_blob, node_offsets = _pack_strings(list(source.node_ids))
    snapshot = source.rates_snapshot
    rates = np.asarray(snapshot.as_vector(), dtype=np.float64)
    meta = {
        "kind": KIND,
        "dataset": dataset,
        "generation": int(generation),
        "damping": source.damping,
        "num_keywords": len(keywords),
        "num_nodes": num_nodes,
        "edge_types": [str(edge_type) for edge_type in snapshot.edge_types()],
        "build_iterations": source.build_iterations,
        "graph_version": source.graph_version,
    }
    return write_slab(
        path,
        {
            "scores": scores,
            "idf": idf,
            "keyword_blob": keyword_blob,
            "keyword_offsets": keyword_offsets,
            "node_blob": node_blob,
            "node_offsets": node_offsets,
            "rates": rates,
        },
        meta=meta,
        fsync=fsync,
    )


class ScoreStore:
    """A score store opened read-only; all array access is zero-copy.

    The instance is immutable after construction and safe to share across
    threads.  It pins the underlying mapping, so it keeps serving consistent
    data even after a generation swap replaces (or deletes) the file on disk
    — a reader is only ever entirely on one generation.

    Serves as a :class:`PrecomputedRanker` provider, the mapped counterpart
    of :class:`repro.ranking.precompute.KeywordVectors`.
    """

    #: A mapped store carries no live graph: staleness against a data-graph
    #: version is opt-in (see :meth:`PrecomputedRanker.is_stale`).
    graph = None

    _REQUIRED = (
        "scores", "idf", "keyword_blob", "keyword_offsets",
        "node_blob", "node_offsets", "rates",
    )

    def __init__(self, path: str | os.PathLike, verify: bool = True) -> None:
        try:
            self._slab = SlabFile(path, verify=verify)
        except SlabFormatError as error:
            raise StoreError(str(error)) from None
        meta = self._slab.meta
        if meta.get("kind") != KIND:
            raise StoreError(
                f"{os.fspath(path)!r} is a slab but not a score store "
                f"(kind={meta.get('kind')!r})"
            )
        for name in self._REQUIRED:
            if name not in self._slab:
                raise StoreError(f"{os.fspath(path)!r}: missing section {name!r}")
        self.path = self._slab.path
        self.dataset: str = meta["dataset"]
        self.generation: int = int(meta["generation"])
        self.damping: float = float(meta["damping"])
        self.build_iterations: int = int(meta.get("build_iterations", 0))
        # Stores written before graph versioning carry no counter; 0 matches
        # an unmutated graph's version, so old stores read as fresh.
        self.graph_version: int = int(meta.get("graph_version", 0))
        self.edge_types: list[str] = list(meta["edge_types"])
        self.scores: np.ndarray = self._slab.array("scores")
        self.idf: np.ndarray = self._slab.array("idf")
        self.rates: np.ndarray = self._slab.array("rates")
        self.keywords: list[str] = _unpack_strings(
            self._slab.array("keyword_blob"), self._slab.array("keyword_offsets")
        )
        self.node_ids: list[str] = _unpack_strings(
            self._slab.array("node_blob"), self._slab.array("node_offsets")
        )
        if self.scores.shape != (len(self.keywords), len(self.node_ids)):
            raise StoreError(
                f"{self.path!r}: scores shape {self.scores.shape} does not "
                f"match {len(self.keywords)} keywords x "
                f"{len(self.node_ids)} nodes"
            )
        if len(self.rates) != len(self.edge_types):
            raise StoreError(
                f"{self.path!r}: {len(self.rates)} rates for "
                f"{len(self.edge_types)} edge types"
            )
        self._column: dict[str, int] = {
            keyword: row for row, keyword in enumerate(self.keywords)
        }

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def has_keyword(self, keyword: str) -> bool:
        return keyword in self._column

    def vector(self, keyword: str) -> np.ndarray:
        """The keyword's authority vector as a zero-copy read-only view."""
        row = self._column.get(keyword)
        if row is None:
            raise StoreError(f"store has no vector for keyword {keyword!r}")
        return self.scores[row]

    def idf_of(self, keyword: str) -> float:
        row = self._column.get(keyword)
        if row is None:
            raise StoreError(f"store has no idf for keyword {keyword!r}")
        return float(self.idf[row])

    def matches_rates(self, rates: AuthorityTransferSchemaGraph) -> bool:
        """Whether ``rates`` equal the rates the store was built under.

        Compared on the canonical edge-type names and the exact rate floats
        — the same discriminator the in-memory provider's schema equality
        applies, so store-backed and in-memory serving route identically.
        """
        names = [str(edge_type) for edge_type in rates.edge_types()]
        if names != self.edge_types:
            return False
        current = np.asarray(rates.as_vector(), dtype=np.float64)
        return bool(np.array_equal(current, self.rates))

    def verify(self) -> None:
        """Recompute every section checksum against the mapped bytes."""
        self._slab.verify()

    def close(self) -> None:
        self._slab.close()

    def __enter__(self) -> "ScoreStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoreStore(dataset={self.dataset!r}, gen={self.generation}, "
            f"{len(self.keywords)} keywords x {self.num_nodes} nodes)"
        )
