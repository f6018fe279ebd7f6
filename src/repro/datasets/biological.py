"""Synthetic biological datasets over the Figure 4 schema.

The paper's DS7 dataset is "a collection of biological sources downloaded
from PubMed" (Entrez Gene/Protein/Nucleotide, PubMed, OMIM); it is not
redistributable, so this generator synthesizes a graph with the same shape:

* genes as hubs, each linked to its protein and nucleotide records, disease
  (OMIM) entries and supporting publications;
* publications with topic-clustered abstract-like text (so that queries like
  "cancer" carve out a topical subgraph, which is how the paper derives
  DS7cancer from DS7);
* citation-like skew: a minority of publications accumulate most links.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.datasets.base import (
    BIOLOGICAL_GROUND_TRUTH_VECTOR,
    Dataset,
    biological_transfer_schema,
)
from repro.datasets.vocabulary import (
    BIOLOGY_TOPICS,
    Topic,
    make_gene_symbol,
    make_title,
)
from repro.errors import DatasetError
from repro.graph.data_graph import DataGraph


@dataclass(frozen=True)
class BiologicalConfig:
    """Size and shape parameters of a synthetic biological dataset."""

    num_genes: int = 800
    num_publications: int = 3000
    num_omim: int = 200
    proteins_per_gene: float = 1.5
    nucleotides_per_gene: float = 1.5
    publications_per_gene: float = 4.0
    seed: int = 11

    def __post_init__(self) -> None:
        if min(self.num_genes, self.num_publications, self.num_omim) < 1:
            raise DatasetError("biological generator sizes must be positive")
        for name in ("proteins_per_gene", "nucleotides_per_gene", "publications_per_gene"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DatasetError(f"{name} must be finite and non-negative")


def generate_biological(
    config: BiologicalConfig = BiologicalConfig(), name: str = "ds7"
) -> Dataset:
    """Generate a synthetic Figure-4-style biological dataset."""
    rng = random.Random(config.seed)
    topics = BIOLOGY_TOPICS
    graph = DataGraph()

    # Publications first: topic-clustered titles, skewed popularity.
    publication_topic: dict[str, Topic] = {}
    publications_by_topic: dict[str, list[str]] = {t.name: [] for t in topics}
    for pub_index in range(config.num_publications):
        topic = rng.choice(topics)
        secondary = rng.choice(topics) if rng.random() < 0.25 else None
        node_id = f"pubmed:{pub_index}"
        graph.add_node(
            node_id,
            "PubMed",
            {
                "title": make_title(rng, topic, secondary, min_words=6, max_words=14),
                "year": str(rng.randint(1985, 2007)),
            },
        )
        publication_topic[node_id] = topic
        publications_by_topic[topic.name].append(node_id)

    def pick_publication(topic: Topic) -> str:
        pool = publications_by_topic[topic.name]
        # Quadratic skew: early (low-index) publications act as citation hubs.
        return pool[int(len(pool) * rng.random() * rng.random())]

    # OMIM disease entries.
    omim_topics: dict[str, Topic] = {}
    omim_by_topic: dict[str, list[str]] = {t.name: [] for t in topics}
    for omim_index in range(config.num_omim):
        topic = rng.choice(topics)
        node_id = f"omim:{omim_index}"
        graph.add_node(
            node_id,
            "OMIM",
            {"title": make_title(rng, topic, None, min_words=3, max_words=6)},
        )
        omim_topics[node_id] = topic
        omim_by_topic[topic.name].append(node_id)
        for _ in range(_count(rng, 2.0)):
            graph.add_edge(node_id, pick_publication(topic), "omimPubMedAssociates")

    # Genes and their satellite records.
    gene_topic: dict[str, Topic] = {}
    protein_index = 0
    nucleotide_index = 0
    for gene_index in range(config.num_genes):
        topic = rng.choice(topics)
        gene_id = f"gene:{gene_index}"
        symbol = make_gene_symbol(rng)
        graph.add_node(
            gene_id,
            "EntrezGene",
            {"symbol": symbol, "description": make_title(rng, topic, None, 3, 6)},
        )
        gene_topic[gene_id] = topic

        for _ in range(_count(rng, config.publications_per_gene)):
            graph.add_edge(gene_id, pick_publication(topic), "genePubMedAssociates")

        if omim_by_topic[topic.name] and rng.random() < 0.4:
            graph.add_edge(
                gene_id, rng.choice(omim_by_topic[topic.name]), "geneOmimAssociates"
            )

        for _ in range(_count(rng, config.proteins_per_gene)):
            protein_id = f"protein:{protein_index}"
            protein_index += 1
            graph.add_node(
                protein_id,
                "EntrezProtein",
                {"name": f"{symbol} protein", "description": make_title(rng, topic, None, 3, 6)},
            )
            graph.add_edge(gene_id, protein_id, "geneProteinAssociates")
            for _ in range(_count(rng, 1.0)):
                graph.add_edge(protein_id, pick_publication(topic), "proteinPubMedAssociates")

        for _ in range(_count(rng, config.nucleotides_per_gene)):
            nucleotide_id = f"nucleotide:{nucleotide_index}"
            nucleotide_index += 1
            graph.add_node(
                nucleotide_id,
                "EntrezNucleotide",
                {"name": f"{symbol} mrna", "description": make_title(rng, topic, None, 3, 6)},
            )
            graph.add_edge(gene_id, nucleotide_id, "geneNucleotideAssociates")
            for _ in range(_count(rng, 0.7)):
                graph.add_edge(
                    nucleotide_id, pick_publication(topic), "nucleotidePubMedAssociates"
                )

    transfer_schema = biological_transfer_schema(BIOLOGICAL_GROUND_TRUTH_VECTOR)
    return Dataset(
        name=name,
        data_graph=graph,
        transfer_schema=transfer_schema,
        ground_truth_rates=transfer_schema,
        extras={
            "publication_topics": {
                node_id: topic.name for node_id, topic in publication_topic.items()
            },
            "gene_topics": {node_id: topic.name for node_id, topic in gene_topic.items()},
            "config": config,
        },
    )


def _count(rng: random.Random, mean: float) -> int:
    """A small non-negative count with the given mean (geometric-ish)."""
    if mean <= 0:
        return 0
    count = 0
    while rng.random() < mean / (mean + 1.0):
        count += 1
        if count > mean * 10 + 10:
            break
    return count
