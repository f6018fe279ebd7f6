"""Keyword queries, query vectors and the ObjectRank2 search engine."""

from repro.query.engine import SearchEngine, SearchResult
from repro.query.query import KeywordQuery, QueryVector

__all__ = [
    "KeywordQuery",
    "QueryVector",
    "SearchEngine",
    "SearchResult",
]
