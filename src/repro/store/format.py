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
``build_iterations``.  The scores section is streamed from the provider's
per-keyword vectors (:class:`repro.storage.slab.Rows`, a chained crc32 then
one write per row), so the publisher never assembles the ``(num_keywords,
num_nodes)`` array: writing a store costs no second copy of it.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import StoreError
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.ranking.precompute import PrecomputedRanker
from repro.storage.slab import Rows, SlabFile, SlabFormatError, write_slab

KIND = "repro-score-store"


def _pack_strings(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate strings into a utf-8 blob + int64 offsets array."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """The strings :func:`_pack_strings` packed; ``ValueError`` unless
    ``offsets`` start at 0, never decrease and end at the blob's length,
    and every slice decodes as UTF-8.  Each string is decoded straight from
    the (mapped) blob; the blob is not copied."""
    bounds = offsets.tolist()
    if not bounds or bounds[0] != 0 or bounds[-1] != len(blob):
        raise ValueError(f"offsets do not span the {len(blob)}-byte blob")
    if any(start > end for start, end in zip(bounds, bounds[1:])):
        raise ValueError("offsets decrease")
    with memoryview(blob) as raw:
        return [str(raw[start:end], "utf-8") for start, end in zip(bounds, bounds[1:])]


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
    store answers bit-identically to the ranker itself.  The vectors are
    written row by row from the ranker's own arrays.  Returns the file size.
    """
    source = ranker.source
    keywords = source.keywords
    num_nodes = len(source.node_ids)
    scores = Rows([source.vector(keyword) for keyword in keywords], (num_nodes,))
    idf = np.array([source.idf_of(keyword) for keyword in keywords], dtype=np.float64)
    keyword_blob, keyword_offsets = _pack_strings(keywords)
    node_blob, node_offsets = _pack_strings(list(source.node_ids))
    snapshot = source.rates_snapshot
    rates = snapshot.vector
    meta = {
        "kind": KIND,
        "dataset": dataset,
        "generation": int(generation),
        "damping": source.damping,
        "num_keywords": len(keywords),
        "num_nodes": num_nodes,
        "edge_types": list(snapshot.names),
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

    #: Every section and the one dtype it is read as (``scores`` is 2-D,
    #: the rest 1-D).
    _SECTIONS = {
        "scores": np.float64, "idf": np.float64, "rates": np.float64,
        "keyword_blob": np.uint8, "keyword_offsets": np.int64,
        "node_blob": np.uint8, "node_offsets": np.int64,
    }
    #: Every meta field read and the JSON types it may hold (``bool`` is
    #: refused separately: JSON ``true`` is not a count).
    _META = {
        "dataset": (str,), "generation": (int,), "damping": (float, int),
        "num_keywords": (int,), "num_nodes": (int,), "edge_types": (list,),
        "build_iterations": (int,), "graph_version": (int,),
    }

    def __init__(self, path: str | os.PathLike, verify: bool = True) -> None:
        try:
            slab = SlabFile(path, verify=verify)
        except SlabFormatError as error:
            raise StoreError(str(error)) from None
        self._slab = slab
        self.path = slab.path

        def malformed(problem: str) -> StoreError:
            return StoreError(f"{self.path!r}: {problem}")

        # Stores written before graph versioning carry no counter; 0 matches
        # an unmutated graph's version, so old stores read as fresh.
        meta = {"build_iterations": 0, "graph_version": 0, **slab.meta}
        if meta.get("kind") != KIND:
            raise malformed(f"is a slab but not a score store (kind={meta.get('kind')!r})")
        for field, types in self._META.items():
            if not isinstance(meta.get(field), types) or isinstance(meta[field], bool):
                raise malformed(f"meta {field!r} is {meta.get(field)!r}")
        if not all(isinstance(name, str) for name in meta["edge_types"]):
            raise malformed("meta 'edge_types' holds a non-string")
        arrays = {}
        for name, dtype in self._SECTIONS.items():
            if name not in slab:
                raise malformed(f"missing section {name!r}")
            array = arrays[name] = slab.array(name)
            if array.dtype != dtype or array.ndim != (2 if name == "scores" else 1):
                raise malformed(f"section {name!r} is {array.dtype} {array.shape}")
        try:
            self.keywords: list[str] = _unpack_strings(
                arrays["keyword_blob"], arrays["keyword_offsets"]
            )
            self.node_ids: list[str] = _unpack_strings(
                arrays["node_blob"], arrays["node_offsets"]
            )
        except ValueError as error:  # UnicodeDecodeError included
            raise malformed(f"string table: {error}") from None
        self.dataset: str = meta["dataset"]
        self.generation: int = meta["generation"]
        self.damping: float = meta["damping"]
        self.build_iterations: int = meta["build_iterations"]
        self.graph_version: int = meta["graph_version"]
        self.edge_types: tuple[str, ...] = tuple(meta["edge_types"])
        self.scores: np.ndarray = arrays["scores"]
        self.idf: np.ndarray = arrays["idf"]
        self.rates: np.ndarray = arrays["rates"]
        counts = (len(self.keywords), len(self.node_ids))
        if (meta["num_keywords"], meta["num_nodes"]) != counts:
            raise malformed(
                f"meta counts {meta['num_keywords']} x {meta['num_nodes']} do not "
                f"match {counts[0]} keywords x {counts[1]} nodes"
            )
        if self.scores.shape != counts or self.idf.shape != counts[:1]:
            raise malformed(
                f"scores shape {self.scores.shape} / idf shape {self.idf.shape} "
                f"do not match {counts[0]} keywords x {counts[1]} nodes"
            )
        if len(self.rates) != len(self.edge_types):
            raise malformed(
                f"{len(self.rates)} rates for {len(self.edge_types)} edge types"
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
        return rates.names == self.edge_types and bool(
            np.array_equal(rates.vector, self.rates)
        )

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
