"""IR substrate: tokenization, inverted index, BM25/tf-idf scoring
(Section 3, Equations 2-3)."""

from repro.ir.index import InvertedIndex, Posting
from repro.ir.scoring import BM25Scorer, Scorer, TfIdfScorer, UniformScorer
from repro.ir.tokenize import (
    DEFAULT_ANALYZER,
    DEFAULT_STOPWORDS,
    QUERY_ANALYZER,
    Analyzer,
    tokenize,
)

__all__ = [
    "Analyzer",
    "BM25Scorer",
    "DEFAULT_ANALYZER",
    "DEFAULT_STOPWORDS",
    "InvertedIndex",
    "Posting",
    "QUERY_ANALYZER",
    "Scorer",
    "TfIdfScorer",
    "UniformScorer",
    "tokenize",
]
