"""Tokenization and stopword handling for the IR substrate.

ObjectRank2 treats every node of the data graph as a document (Section 3);
this module turns a node's text into the keyword multiset used by the
inverted index and by the content-based reformulation's "ignoring stop
words" rule (Section 5.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# A compact English stopword list: enough to keep expansion terms meaningful
# without pulling in an external dependency.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again all also an and any are as at be because been
    before being below between both but by can did do does doing down during
    each few for from further had has have having he her here hers him his how
    i if in into is it its itself just me more most my no nor not now of off
    on once only or other our ours out over own same she should so some such
    than that the their theirs them then there these they this those through
    to too under until up very was we were what when where which while who
    whom why will with you your yours
    """.split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into alphanumeric tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Analyzer:
    """A configurable text-to-terms pipeline.

    ``keep_stopwords`` retains stopwords in the index (they still never become
    expansion terms — Section 5.1 explicitly ignores them);
    ``min_token_length`` drops very short tokens such as single letters from
    initials.
    """

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    keep_stopwords: bool = False
    min_token_length: int = 1

    def terms(self, text: str) -> list[str]:
        """All index terms of ``text``, in order (with duplicates)."""
        tokens = tokenize(text)
        return [t for t in tokens if self._keep(t)]

    def is_stopword(self, term: str) -> bool:
        return term in self.stopwords

    def _keep(self, token: str) -> bool:
        if len(token) < self.min_token_length:
            return False
        if not self.keep_stopwords and token in self.stopwords:
            return False
        return True


DEFAULT_ANALYZER = Analyzer()
# Analyzer used for query keywords: stopwords are kept so that a user query
# like ["the", "olap"] still matches what it can.
QUERY_ANALYZER = Analyzer(keep_stopwords=True)
