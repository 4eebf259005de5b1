"""Tests for keyword query parsing."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.search.query import KeywordQuery


class TestParse:
    def test_paper_query(self):
        query = KeywordQuery.parse("Texas, apparel, retailer")
        assert query.keywords == ("texas", "apparel", "retailer")
        assert query.raw == "Texas, apparel, retailer"

    def test_figure5_query(self):
        assert KeywordQuery.parse("store texas").keywords == ("store", "texas")

    def test_stop_words_removed(self):
        assert KeywordQuery.parse("the retailer of apparel").keywords == ("retailer", "apparel")

    def test_duplicates_removed_order_kept(self):
        assert KeywordQuery.parse("a b A c b").keywords == ("b", "c")  # "a" is a stop word

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("")

    def test_stopwords_only_raises(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("the of and")

    def test_non_string_raises(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse(42)  # type: ignore[arg-type]


class TestFromKeywords:
    def test_list_of_keywords(self):
        query = KeywordQuery.from_keywords(["Store", "TEXAS"])
        assert query.keywords == ("store", "texas")

    def test_deduplication(self):
        query = KeywordQuery.from_keywords(["x", "X", "y"])
        assert query.keywords == ("x", "y")

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            KeywordQuery.from_keywords([])
        with pytest.raises(QueryError):
            KeywordQuery.from_keywords(["", "  "])


class TestProtocol:
    def test_contains_is_case_insensitive(self):
        query = KeywordQuery.parse("store texas")
        assert "TEXAS" in query
        assert "houston" not in query

    def test_share_reuses_one_object_per_keyword_tuple(self):
        # Same keywords in the same order (keyword order matters to the
        # IList) but different raw spellings share one parsed query object.
        first, second, other = KeywordQuery.share(
            [KeywordQuery.parse(raw) for raw in ("store texas", "STORE,  texas!", "texas store")]
        )
        assert second is first
        assert other is not first

    def test_iter_and_size(self):
        query = KeywordQuery.parse("a store in texas")
        assert list(query) == ["store", "texas"]
        assert query.size == 2

    def test_str(self):
        assert str(KeywordQuery.parse("store texas")) == "store, texas"

    def test_frozen(self):
        query = KeywordQuery.parse("store")
        with pytest.raises(AttributeError):
            query.raw = "changed"  # type: ignore[misc]
