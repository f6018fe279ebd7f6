"""Query workload generation for the benchmark scripts.

The paper evaluates on hand-picked queries ("[olap], [query, optimization],
..."); for parameter sweeps and scale studies the harness also needs *many*
queries with controlled properties.  The generator samples queries from a
dataset's own term statistics:

* ``topical`` queries draw 1-2 characteristic terms of one topic (using the
  generator-provided topic labels when present, falling back to mid-df
  index terms);
* ``selective`` queries draw rare terms (small base sets);
* ``popular`` queries draw high-df terms (large base sets — the regime where
  Equation 16's normalizing exponent and the weighted base set matter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.base import Dataset
from repro.ir.index import InvertedIndex


@dataclass(frozen=True)
class WorkloadQuery:
    """One generated query with its provenance."""

    text: str
    kind: str

    @property
    def keywords(self) -> tuple[str, ...]:
        return tuple(self.text.split())


class WorkloadGenerator:
    """Samples reproducible query workloads from a dataset."""

    def __init__(self, dataset: Dataset, seed: int = 0):
        self.dataset = dataset
        self.index = InvertedIndex.from_graph(dataset.data_graph)
        self._rng = random.Random(seed)
        frequencies = [
            (term, self.index.document_frequency(term))
            for term in self.index.vocabulary()
        ]
        frequencies.sort(key=lambda item: item[1])
        self._terms_by_rarity = [term for term, _ in frequencies]

    # -- term pools ---------------------------------------------------------

    def _slice(self, low: float, high: float) -> list[str]:
        n = len(self._terms_by_rarity)
        pool = self._terms_by_rarity[int(n * low) : max(int(n * high), 1)]
        return pool or self._terms_by_rarity

    def selective_terms(self) -> list[str]:
        """Rare terms: small base sets (but df >= 2 so results exist)."""
        return [
            term
            for term in self._slice(0.0, 0.4)
            if self.index.document_frequency(term) >= 2
        ] or self._slice(0.3, 0.6)

    def popular_terms(self) -> list[str]:
        """The most frequent terms: the popular-keyword-skew regime."""
        return self._slice(0.9, 1.0)

    def topical_terms(self) -> dict[str, list[str]]:
        """Topic -> characteristic terms, from the generator's labels."""
        topics: dict[str, list[str]] = {}
        labels = self.dataset.extras.get("paper_topics") or self.dataset.extras.get(
            "publication_topics"
        )
        if not labels:
            return topics
        for topic in set(labels.values()):
            if topic in self.index:
                topics[topic] = [topic]
        return topics

    # -- sampling ------------------------------------------------------------

    def sample(self, kind: str, count: int, max_keywords: int = 2) -> list[WorkloadQuery]:
        """``count`` queries of one kind: topical, selective or popular."""
        if kind == "topical":
            pools = list(self.topical_terms().values())
            if not pools:
                pools = [self.selective_terms()]
            queries = []
            for _ in range(count):
                pool = self._rng.choice(pools)
                size = self._rng.randint(1, min(max_keywords, len(pool)))
                queries.append(
                    WorkloadQuery(" ".join(self._rng.sample(pool, size)), kind)
                )
            return queries
        if kind == "selective":
            pool = self.selective_terms()
        elif kind == "popular":
            pool = self.popular_terms()
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
        queries = []
        for _ in range(count):
            size = self._rng.randint(1, min(max_keywords, len(pool)))
            queries.append(WorkloadQuery(" ".join(self._rng.sample(pool, size)), kind))
        return queries

    def mixed(self, count: int) -> list[WorkloadQuery]:
        """A balanced mix of the three kinds."""
        per_kind, remainder = divmod(count, 3)
        workload = (
            self.sample("topical", per_kind + (1 if remainder > 0 else 0))
            + self.sample("selective", per_kind + (1 if remainder > 1 else 0))
            + self.sample("popular", per_kind)
        )
        self._rng.shuffle(workload)
        return workload
