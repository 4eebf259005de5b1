"""Tests for text normalisation and tokenisation."""

from __future__ import annotations

import pytest

from repro.utils.text import (
    STOPWORDS,
    iter_index_terms,
    matches_keyword,
    normalize_token,
    normalize_value,
    singularize,
    tokenize,
    tokenize_query,
)


class TestTokenize:
    def test_splits_on_whitespace_and_punctuation(self):
        assert tokenize("Texas, apparel; retailer!") == ["texas", "apparel", "retailer"]

    def test_lowercases(self):
        assert tokenize("Brook Brothers") == ["brook", "brothers"]

    def test_keeps_digits(self):
        assert tokenize("year 2005") == ["year", "2005"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("...!!!") == []

    def test_mixed_alphanumeric(self):
        assert tokenize("item42 x") == ["item42", "x"]


class TestSingularize:
    def test_regular_plural(self):
        assert singularize("stores") == "store"

    def test_ies_plural(self):
        assert singularize("categories") == "category"

    def test_es_after_sibilant(self):
        assert singularize("boxes") == "box"

    def test_irregular_plural(self):
        assert singularize("children") == "child"
        assert singularize("women") == "woman"

    def test_clothes_is_kept(self):
        # the paper's tag is literally <clothes>
        assert singularize("clothes") == "clothes"

    def test_short_words_untouched(self):
        assert singularize("gas") == "gas"
        assert singularize("is") == "is"

    def test_ss_us_is_endings_untouched(self):
        assert singularize("dress") == "dress"
        assert singularize("status") == "status"
        assert singularize("analysis") == "analysis"

    def test_singular_word_untouched(self):
        assert singularize("store") == "store"


class TestNormalizeToken:
    def test_lowercases_and_strips(self):
        assert normalize_token("  Texas ") == "texas"

    def test_does_not_singularize(self):
        # identities must stay human-readable; "texas" must not become "texa"
        assert normalize_token("Texas") == "texas"
        assert normalize_token("stores") == "stores"


class TestTokenizeQuery:
    def test_paper_query(self):
        assert tokenize_query("Texas, apparel, retailer") == ["texas", "apparel", "retailer"]

    def test_drops_stopwords(self):
        assert tokenize_query("the stores in Texas") == ["stores", "texas"]

    def test_deduplicates_preserving_order(self):
        assert tokenize_query("texas TEXAS retailer texas") == ["texas", "retailer"]

    def test_empty_query(self):
        assert tokenize_query("") == []

    def test_stopwords_only(self):
        assert tokenize_query("the of and") == []

    def test_stopword_list_is_small_and_lowercase(self):
        assert all(word == word.lower() for word in STOPWORDS)
        assert "retailer" not in STOPWORDS


class TestNormalizeValue:
    def test_collapses_whitespace(self):
        assert normalize_value("  Brook   Brothers ") == "brook brothers"

    def test_case_folding(self):
        assert normalize_value("HOUSTON") == normalize_value("Houston")

    def test_empty(self):
        assert normalize_value("   ") == ""


class TestMatchesKeyword:
    def test_tag_match(self):
        assert matches_keyword("retailer", "retailer")

    def test_value_token_match(self):
        assert matches_keyword("Brook Brothers", "brothers")

    def test_no_match(self):
        assert not matches_keyword("Brook Brothers", "houston")

    def test_plural_keyword_matches_singular_text(self):
        assert matches_keyword("store", "stores")

    def test_singular_keyword_matches_plural_text(self):
        assert matches_keyword("stores", "store")

    def test_case_insensitive(self):
        assert matches_keyword("TEXAS", "texas")


class TestIterIndexTerms:
    def test_yields_raw_and_singular(self):
        assert set(iter_index_terms("stores")) == {"stores", "store"}

    def test_singular_only_once(self):
        assert list(iter_index_terms("store")) == ["store"]

    def test_multiword_value(self):
        terms = set(iter_index_terms("Brook Brothers"))
        assert "brook" in terms and "brothers" in terms
