"""Unit tests for tokenization and analyzers."""

from repro.ir import DEFAULT_STOPWORDS, Analyzer, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("OLAP Cubes") == ["olap", "cubes"]

    def test_splits_on_punctuation(self):
        assert tokenize("Group-By, Cross-Tab, and Sub-Total.") == [
            "group", "by", "cross", "tab", "and", "sub", "total",
        ]

    def test_keeps_digits(self):
        assert tokenize("ICDE 1997") == ["icde", "1997"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_unicode_punctuation_dropped(self):
        assert tokenize("naïve") == ["na", "ve"]  # ascii-alnum tokenizer


class TestAnalyzer:
    def test_default_removes_stopwords(self):
        analyzer = Analyzer()
        assert analyzer.terms("the data cube") == ["data", "cube"]

    def test_keep_stopwords(self):
        analyzer = Analyzer(keep_stopwords=True)
        assert analyzer.terms("the data cube") == ["the", "data", "cube"]

    def test_min_token_length(self):
        analyzer = Analyzer(min_token_length=3)
        assert analyzer.terms("R. Agrawal on OLAP") == ["agrawal", "olap"]

    def test_is_stopword(self):
        analyzer = Analyzer()
        assert analyzer.is_stopword("the")
        assert not analyzer.is_stopword("olap")

    def test_stopword_list_is_lowercase(self):
        assert all(word == word.lower() for word in DEFAULT_STOPWORDS)

    def test_custom_stopwords(self):
        analyzer = Analyzer(stopwords=frozenset({"olap"}))
        assert analyzer.terms("the olap cube") == ["the", "cube"]
