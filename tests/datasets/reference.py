"""Reference loops for corpus construction — the test oracle.

The DBLP generator's per-paper weight list and one-draw-at-a-time
``rng.choices`` author loop, and the shredder's copy-per-row reads, that the
linear generator replaced, kept verbatim so its output can be checked ``==``
against them (tests/datasets/test_generation_identity.py).  Nothing in
``src`` calls these.
"""

from __future__ import annotations

import random

from repro.datasets.dblp import _LOCATIONS, DblpConfig, _poisson
from repro.datasets.vocabulary import DATABASE_TOPICS, Topic, make_person_name, make_title
from repro.errors import StorageError
from repro.graph.data_graph import DataGraph
from repro.storage.relational import Database, ForeignKey, TableSchema
from repro.storage.shred import ShredSpec, node_id


def reference_build_dblp_database(config: DblpConfig) -> tuple[Database, dict[int, Topic]]:
    """Generate the relational form; returns (database, paper-id -> topic)."""
    rng = random.Random(config.seed)
    topics = DATABASE_TOPICS
    database = Database()
    database.create_table(TableSchema("conference", ("id", "name")))
    database.create_table(
        TableSchema(
            "year",
            ("id", "conference_id", "name", "year", "location"),
            foreign_keys=(ForeignKey("conference_id", "conference"),),
        )
    )
    database.create_table(
        TableSchema(
            "paper",
            ("id", "year_id", "title", "venue"),
            foreign_keys=(ForeignKey("year_id", "year"),),
        )
    )
    database.create_table(TableSchema("author", ("id", "name")))
    database.create_table(
        TableSchema(
            "paper_author",
            ("id", "paper_id", "author_id"),
            foreign_keys=(ForeignKey("paper_id", "paper"), ForeignKey("author_id", "author")),
        )
    )
    database.create_table(
        TableSchema(
            "citation",
            ("id", "citing_id", "cited_id"),
            foreign_keys=(ForeignKey("citing_id", "paper"), ForeignKey("cited_id", "paper")),
        )
    )

    # Conferences with topic profiles; a year row per (conference, year).
    conference_topics: dict[int, tuple[Topic, ...]] = {}
    year_ids: dict[int, list[int]] = {}
    year_row = 0
    for conf_id in range(config.num_conferences):
        name = "CONF" + str(conf_id)
        database.insert("conference", {"id": conf_id, "name": name})
        profile = tuple(rng.sample(topics, k=min(3, len(topics))))
        conference_topics[conf_id] = profile
        year_ids[conf_id] = []
        for year in range(config.first_year, config.last_year + 1):
            database.insert(
                "year",
                {
                    "id": year_row,
                    "conference_id": conf_id,
                    "name": name,
                    "year": str(year),
                    "location": rng.choice(_LOCATIONS),
                },
            )
            year_ids[conf_id].append(year_row)
            year_row += 1

    # Authors: each belongs to 1-2 topics; productivity is Zipf-like via
    # weighted choice by 1/rank.  Author rows are inserted only for authors
    # that end up with at least one paper (no isolated Author nodes), so
    # authorship rows are buffered until the paper loop finishes.
    author_topics: dict[str, list[int]] = {topic.name: [] for topic in topics}
    for author_id in range(config.num_authors):
        for topic in rng.sample(topics, k=rng.randint(1, 2)):
            author_topics[topic.name].append(author_id)
    author_rank_weight = [1.0 / (1 + i) for i in range(config.num_authors)]
    authorship_buffer: list[tuple[int, int]] = []  # (paper_id, author_id)

    # Papers in chronological order so citations can point backward in time.
    paper_topic: dict[int, Topic] = {}
    papers_by_topic: dict[str, list[int]] = {topic.name: [] for topic in topics}
    citation_row = 0
    authorship_row = 0
    all_papers: list[int] = []
    for paper_id in range(config.num_papers):
        conf_id = rng.randrange(config.num_conferences)
        topic = rng.choice(conference_topics[conf_id])
        secondary = rng.choice(topics) if rng.random() < 0.3 else None
        year_index = rng.randrange(len(year_ids[conf_id]))
        year_id = year_ids[conf_id][year_index]
        year_value = config.first_year + year_index
        database.insert(
            "paper",
            {
                "id": paper_id,
                "year_id": year_id,
                "title": make_title(rng, topic, secondary),
                "venue": f"CONF{conf_id} {year_value}",
            },
        )
        paper_topic[paper_id] = topic

        # Authorship: prefer prolific authors from the paper's topic pool.
        pool = author_topics[topic.name] or list(range(config.num_authors))
        pool_weights = [author_rank_weight[a] for a in pool]
        num_authors = rng.randint(1, config.max_authors_per_paper)
        chosen: set[int] = set()
        for _ in range(num_authors):
            chosen.add(rng.choices(pool, weights=pool_weights, k=1)[0])
        for author_id in sorted(chosen):
            authorship_buffer.append((paper_id, author_id))

        # Citations: preferential attachment (recent papers cite earlier
        # ones, earlier ones accumulate citations), biased on-topic.
        num_citations = min(
            _poisson(rng, config.mean_citations), len(all_papers)
        )
        cited: set[int] = set()
        for _ in range(num_citations):
            if rng.random() < config.topic_coherence and papers_by_topic[topic.name]:
                candidates = papers_by_topic[topic.name]
            else:
                candidates = all_papers
            # Quadratic skew toward low indices approximates preferential
            # attachment without per-node counters.
            pick = candidates[int(len(candidates) * rng.random() * rng.random())]
            if pick != paper_id:
                cited.add(pick)
        for cited_id in cited:
            database.insert(
                "citation",
                {"id": citation_row, "citing_id": paper_id, "cited_id": cited_id},
            )
            citation_row += 1

        papers_by_topic[topic.name].append(paper_id)
        all_papers.append(paper_id)

    # Materialize only the authors that were actually used, then their rows.
    used_authors = sorted({author_id for _, author_id in authorship_buffer})
    for author_id in used_authors:
        database.insert("author", {"id": author_id, "name": make_person_name(rng)})
    for paper_id, author_id in authorship_buffer:
        database.insert(
            "paper_author",
            {"id": authorship_row, "paper_id": paper_id, "author_id": author_id},
        )
        authorship_row += 1

    return database, paper_topic


def reference_shred_to_graph(database: Database, spec: ShredSpec) -> DataGraph:
    """Materialize the data graph described by ``spec``."""
    graph = DataGraph()
    referenced_table: dict[tuple[str, str], str] = {}

    for node_table in spec.node_tables:
        table = database.table(node_table.table)
        for fk in table.schema.foreign_keys:
            referenced_table[(node_table.table, fk.column)] = fk.references
        for row in table.rows():
            key = row[table.schema.primary_key]
            attributes = {
                column: str(row[column])
                for column in node_table.attributes
                if row.get(column) is not None
            }
            graph.add_node(node_id(node_table.table, key), node_table.label, attributes)

    for fk_edge in spec.fk_edges:
        table = database.table(fk_edge.table)
        target_table = referenced_table.get((fk_edge.table, fk_edge.column))
        if target_table is None:
            raise StorageError(
                f"{fk_edge.table}.{fk_edge.column} is not a declared foreign key"
            )
        for row in table.rows():
            value = row.get(fk_edge.column)
            if value is None:
                continue
            child = node_id(fk_edge.table, row[table.schema.primary_key])
            parent = node_id(target_table, value)
            if fk_edge.reverse:
                graph.add_edge(parent, child, fk_edge.role)
            else:
                graph.add_edge(child, parent, fk_edge.role)

    for edge_table in spec.edge_tables:
        table = database.table(edge_table.table)
        for row in table.rows():
            source = node_id(edge_table.source_table, row[edge_table.source_column])
            target = node_id(edge_table.target_table, row[edge_table.target_column])
            graph.add_edge(source, target, edge_table.role)

    return graph
