"""Tests for the keyword inverted index."""

from __future__ import annotations

import pytest

from repro.errors import IndexNotBuiltError
from repro.index.inverted import InvertedIndex
from repro.xmltree.builder import tree_from_dict


@pytest.fixture()
def index(small_retailer_tree):
    return InvertedIndex().build(small_retailer_tree)


class TestBuild:
    def test_indexed_node_count(self, index, small_retailer_tree):
        assert index.indexed_nodes == small_retailer_tree.size_nodes

    def test_a_node_is_listed_once_per_term(self):
        # the tag and the text yield "store" (the text twice, and "stores"
        # folds to it as well): one posting, appended in document order
        tree = tree_from_dict("db", {"store": ["store stores store", "x"], "item": "store"})
        index = InvertedIndex().build(tree)
        assert list(index.lookup("store")) == [1, 2, 3]
        assert list(index.postings_dict()["stores"]) == [1]

    def test_unbuilt_index_raises(self):
        with pytest.raises(IndexNotBuiltError):
            InvertedIndex().lookup("x")
        with pytest.raises(IndexNotBuiltError):
            _ = InvertedIndex().vocabulary

    def test_repr(self, index):
        assert "terms=" in repr(index)
        assert "unbuilt" in repr(InvertedIndex())


class TestLookup:
    def test_tag_lookup(self, index, small_retailer_tree):
        postings = index.lookup("store")
        assert len(postings) == 2
        nodes = small_retailer_tree.nodes_by_pre
        assert all(nodes[pre].tag == "store" for pre in postings)
        assert postings.shape is small_retailer_tree.shape

    def test_value_lookup(self, index):
        assert len(index.lookup("houston")) == 1
        assert len(index.lookup("texas")) == 2

    def test_case_insensitive(self, index):
        assert index.lookup("TEXAS") == index.lookup("texas")

    def test_multi_word_value_tokens(self, index, small_retailer_tree):
        brook = index.lookup("brook")
        brothers = index.lookup("brothers")
        assert len(brook) == 1 and brook == brothers

    def test_unknown_keyword_empty(self, index):
        assert index.lookup("zzz").is_empty

    def test_plural_query_matches_singular_tag(self, index):
        assert len(index.lookup("stores")) == 2

    def test_singular_query_matches_plural_tag(self):
        tree = tree_from_dict("db", {"clothes": [{"category": "suit"}], "shirts": "two"})
        index = InvertedIndex().build(tree)
        assert len(index.lookup("shirt")) == 1

    def test_lookup_all(self, index):
        result = index.lookup_all(["store", "texas"])
        assert set(result) == {"store", "texas"}
        assert len(result["store"]) == 2

    def test_document_frequency(self, index):
        assert index.document_frequency("texas") == 2
        assert index.document_frequency("missing") == 0

    def test_contains_term(self, index):
        assert index.contains_term("houston")
        assert index.contains_term("Stores")
        assert not index.contains_term("nothing")


class TestVocabulary:
    def test_vocabulary_sorted(self, index):
        vocabulary = index.vocabulary
        assert vocabulary == sorted(vocabulary)
        assert "texas" in vocabulary

    def test_vocabulary_size(self, index):
        assert index.vocabulary_size == len(index.vocabulary)

    def test_from_postings_round_trip(self, index, small_retailer_tree):
        rebuilt = InvertedIndex.from_postings(small_retailer_tree.shape, index.postings_dict())
        assert rebuilt.vocabulary == index.vocabulary
        assert rebuilt.lookup("texas") == index.lookup("texas")
        assert rebuilt.indexed_nodes == index.indexed_nodes == small_retailer_tree.size_nodes


class TestTokenisationConsistency:
    """Index-side and query-side tokenisation must not drift: a query term
    whose singular form appears only in the index (and vice versa) matches
    identically through both paths."""

    def test_plural_query_matches_singular_index(self):
        from repro.index.builder import IndexBuilder
        from repro.search.engine import SearchEngine
        from repro.search.query import KeywordQuery
        from repro.xmltree.builder import tree_from_dict

        tree = tree_from_dict("shop", {"store": [{"name": "Galleria"}]})
        index = IndexBuilder().build(tree)
        # "stores" is not literally in the document; its singular is.
        parsed = KeywordQuery.parse("stores")
        assert parsed.keywords == ("stores",)
        direct = index.inverted.lookup("stores")
        via_engine = SearchEngine(index).search("stores")
        assert not direct.is_empty
        assert len(via_engine) == len(direct)

    def test_singular_query_matches_plural_text(self):
        from repro.index.builder import IndexBuilder
        from repro.search.engine import SearchEngine
        from repro.xmltree.builder import tree_from_dict

        tree = tree_from_dict("doc", {"item": [{"note": "great stores here"}]})
        index = IndexBuilder().build(tree)
        # The text token "stores" is indexed under both "stores" and "store".
        assert not index.inverted.lookup("store").is_empty
        assert len(SearchEngine(index).search("store")) >= 1

    def test_query_and_index_share_normalisation(self):
        from repro.utils.text import iter_index_terms, tokenize_query

        # Every non-stopword query token must be findable among the index
        # terms generated for the same text — the two paths share
        # utils.text tokenisation, so there is no drift.
        for text in ("The Stores in Texas", "Movie, drama!", "children's CLOTHES"):
            index_terms = set(iter_index_terms(text))
            for keyword in tokenize_query(text):
                assert keyword in index_terms, (text, keyword, index_terms)

    def test_identical_matches_via_both_plural_forms(self, small_index):
        singular = small_index.inverted.lookup("store")
        plural = small_index.inverted.lookup("stores")
        assert len(singular) == 2 and singular == plural
