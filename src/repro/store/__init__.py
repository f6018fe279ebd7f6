"""Shared-memory score stores: mmap-able precomputed matrices + generations.

The serving tier's read-mostly asset — the [BHP04]-style precomputed
keyword→score matrix — exported to a versioned, checksummed on-disk slab
that N worker processes mmap read-only and slice zero-copy, plus the
generation-numbered swap protocol that lets rebuilds and ingest
refreshes go live without blocking serving or tearing a reader.

Typical flow::

    from repro.store import build_and_publish, StoreManager

    build_and_publish(store_root, precomputed_ranker, dataset="dblp_complete")

    manager = StoreManager(store_root)
    ranker = manager.ranker()        # PrecomputedRanker over the current gen
    result = ranker.rank(query_vector)   # bit-identical to the in-memory build

See :mod:`repro.storage.slab` for the container format and
:mod:`repro.serve.cluster` for the prefork tier built on top.
"""

from repro.store.format import KIND, ScoreStore, write_score_store
from repro.store.generations import (
    MANIFEST_NAME,
    Manifest,
    StoreManager,
    build_and_publish,
    list_generations,
    next_generation,
    prune_generations,
    publish_manifest,
    read_manifest,
    store_path,
)

__all__ = [
    "KIND",
    "MANIFEST_NAME",
    "Manifest",
    "ScoreStore",
    "StoreManager",
    "build_and_publish",
    "list_generations",
    "next_generation",
    "prune_generations",
    "publish_manifest",
    "read_manifest",
    "store_path",
    "write_score_store",
]
