"""Tests for XSeek-style result construction."""

from __future__ import annotations

import pytest

from repro.api import SearchRequest, SnippetService
from repro.corpus import Corpus
from repro.errors import SearchError
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.slca import compute_slca
from repro.search.xseek import (
    ResultConstruction,
    build_all_results,
    build_result_tree,
    promote_to_entity_root,
)
from repro.xmltree.node import XMLNode
from tests.search.test_differential_lca import _random_index


@pytest.fixture()
def slca_roots(small_index):
    query = KeywordQuery.parse("store texas")
    postings = [small_index.keyword_matches(keyword) for keyword in query.keywords]
    return query, compute_slca(postings)


class TestPromotion:
    def test_connection_root_promoted_to_entity(self, small_index, small_retailer_tree):
        merchandises = small_retailer_tree.find_by_tag("merchandises")[0]
        promoted = promote_to_entity_root(small_index.analyzer, merchandises.pre)
        assert small_retailer_tree.nodes_by_pre[promoted] is merchandises.parent
        assert merchandises.parent.tag == "store"

    def test_attribute_promoted_to_owning_entity(self, small_index, small_retailer_tree):
        city = small_retailer_tree.find_by_tag("city")[0]
        promoted = promote_to_entity_root(small_index.analyzer, city.pre)
        assert small_retailer_tree.nodes_by_pre[promoted] is city.parent

    def test_entity_root_stays(self, small_index, small_retailer_tree):
        store = small_retailer_tree.find_by_tag("store")[0]
        assert promote_to_entity_root(small_index.analyzer, store.pre) == store.pre

    def test_node_without_entity_ancestor_stays(self, small_index, small_retailer_tree):
        name = small_retailer_tree.root.find_child("name")
        assert promote_to_entity_root(small_index.analyzer, name.pre) == name.pre


class TestBuildResultTree:
    def test_subtree_construction(self, small_index, slca_roots):
        query, roots = slca_roots
        result = build_result_tree(
            small_index, query, roots[0], construction=ResultConstruction.SUBTREE
        )
        assert result.root_node.pre == roots[0]
        assert result.root == small_index.tree.nodes_by_pre[roots[0]].dewey
        assert result.size_nodes == result.root_node.subtree_size_nodes()

    def test_matches_restricted_to_result(self, small_index, slca_roots):
        query, roots = slca_roots
        result = build_result_tree(small_index, query, roots[0])
        assert any(len(ids) for ids in result.matches.values())
        for keyword in result.matches:
            assert all(result.contains(pre) for pre in result.matches[keyword])

    def test_xseek_promotes_and_keeps_whole_entity(self, small_index, small_retailer_tree):
        query = KeywordQuery.parse("houston")
        city = small_retailer_tree.find_by_tag("city")[0]
        result = build_result_tree(
            small_index, query, city.pre, construction=ResultConstruction.XSEEK
        )
        assert result.root_node.tag == "store"
        # the full store subtree is present (self-contained result)
        assert result.size_nodes == result.root_node.subtree_size_nodes()

    def test_match_paths_projection_is_smaller(self, small_index, slca_roots):
        query, roots = slca_roots
        subtree_result = build_result_tree(
            small_index, query, roots[0], construction=ResultConstruction.SUBTREE
        )
        paths_result = build_result_tree(
            small_index, query, roots[0], construction=ResultConstruction.MATCH_PATHS
        )
        assert paths_result.size_nodes <= subtree_result.size_nodes
        assert paths_result.to_tree().root.tag == subtree_result.root_node.tag


class TestMatchPathsSizes:
    """A match-paths result's size is the number of ``pre`` ids its
    projection keeps; at the parent of this change every read of it copied
    (and reindexed) the projection, so ranking plus one payload copied a
    result that spans the document twice."""

    @pytest.mark.parametrize("seed", range(20))
    def test_ranking_and_payloads_copy_no_node(self, seed, monkeypatch):
        rng, index = _random_index(seed)
        corpus = Corpus()
        corpus.add_tree("doc", index.tree)
        service = SnippetService(corpus)
        vocabulary = sorted(index.inverted.vocabulary)
        queries = [
            " ".join(rng.sample(vocabulary, rng.randint(1, min(3, len(vocabulary)))))
            for _ in range(10)
        ] + ["root"]  # a match at the document root keeps the whole document
        made = []
        init = XMLNode.__init__

        def counted_init(self, tag, text=None):
            made.append(tag)
            init(self, tag, text)

        monkeypatch.setattr(XMLNode, "__init__", counted_init)
        payloads = [
            payload
            for query in queries
            for payload in service.run(
                SearchRequest(
                    query, "doc", construction="match_paths", include_snippets=False
                )
            ).results
        ]
        assert len(payloads) > len(queries) / 2 and made == []

        engine = SearchEngine(index, construction=ResultConstruction.MATCH_PATHS)
        results = [result for query in queries for result in engine.search(query)]
        assert [result.size_edges for result in results] == [
            payload.result_edges for payload in payloads
        ]
        for result in results:
            projection = result.to_tree()
            assert result.size_nodes == projection.size_nodes == len(made)
            assert result.size_edges == projection.size_edges
            made.clear()


class TestBuildAllResults:
    def test_one_result_per_root(self, small_index, slca_roots):
        query, roots = slca_roots
        results = build_all_results(small_index, query, roots)
        assert len(results) == len(roots)
        assert [result.result_id for result in results] == list(range(len(results)))

    def test_duplicate_promotions_are_merged(self, small_index, small_retailer_tree):
        query = KeywordQuery.parse("suit outwear")
        # two different clothes nodes inside the same store
        clothes = small_retailer_tree.find_by_tag("clothes")[:2]
        results = build_all_results(
            small_index, query, [node.pre for node in clothes], construction=ResultConstruction.XSEEK
        )
        assert len(results) == 2  # each clothes is its own entity, no merging
        merged = build_all_results(
            small_index,
            query,
            [clothes[0].children[0].pre, clothes[0].children[1].pre],
            construction=ResultConstruction.XSEEK,
        )
        assert len(merged) == 1  # both attributes promote to the same clothes entity

    def test_empty_roots(self, small_index):
        query = KeywordQuery.parse("anything")
        assert build_all_results(small_index, query, []) == []


class TestSharedPostingLists:
    """Construction from the posting lists the caller holds equals
    construction that looks every keyword up itself."""

    @pytest.mark.parametrize(
        "text", ["store texas", "stores texas", "store", "stores", "clothes suit", "texas nowhere"]
    )
    @pytest.mark.parametrize("construction", list(ResultConstruction))
    def test_same_results_as_per_result_lookups(self, small_index, text, construction):
        query = KeywordQuery.parse(text)
        postings = {keyword: small_index.keyword_matches(keyword) for keyword in query.keywords}
        roots = compute_slca(list(postings.values()))

        shared = build_all_results(small_index, query, roots, construction, postings=postings)
        looked_up = [
            build_result_tree(
                small_index,
                query,
                root,
                ResultConstruction.SUBTREE if construction == ResultConstruction.XSEEK else construction,
                result_id=position,
            )
            for position, root in enumerate(result.root_node.pre for result in shared)
        ]

        assert shared == looked_up
        assert shared == build_all_results(small_index, query, roots, construction)
        assert [type(result) for result in shared] == [type(result) for result in looked_up]

    @pytest.mark.parametrize("text", ["stores texas", "store texas", "stores", "store"])
    def test_two_form_keywords(self, figure5_idx, text):
        # <stores> and <store> are both tags here, so either keyword is
        # indexed under two forms and every lookup of it is a union
        assert {"stores", "store"} <= set(figure5_idx.inverted.postings_dict())
        query = KeywordQuery.parse(text)
        postings = {keyword: figure5_idx.keyword_matches(keyword) for keyword in query.keywords}
        roots = compute_slca(list(postings.values()))
        shared = build_all_results(figure5_idx, query, roots, postings=postings)
        assert len(shared) >= 1
        assert shared == build_all_results(figure5_idx, query, roots)
        for result in shared:
            assert result == build_result_tree(
                figure5_idx, query, result.root_node.pre, ResultConstruction.SUBTREE, result.result_id
            )

    def test_a_keyword_the_caller_does_not_hold_is_looked_up(self, small_index, slca_roots):
        query, roots = slca_roots
        partial = {"store": small_index.keyword_matches("store")}
        assert build_all_results(small_index, query, roots, postings=partial) == build_all_results(
            small_index, query, roots
        )


class TestProvenance:
    """Roots and posting lists are ints: what they index is checked."""

    @pytest.mark.parametrize("root", [-1, 10**6])
    def test_a_root_outside_the_tree_is_an_error(self, small_index, root):
        query = KeywordQuery.parse("store")
        with pytest.raises(SearchError, match="lie outside"):
            build_all_results(small_index, query, [root])

    def test_posting_lists_of_another_tree_are_refused(self, small_index, small_retailer_tree):
        from repro.xmltree.diff import clone_tree

        other = IndexBuilder().build(clone_tree(small_retailer_tree))
        query = KeywordQuery.parse("store")
        foreign = {"store": other.keyword_matches("store")}
        with pytest.raises(SearchError, match="another tree"):
            build_all_results(small_index, query, [1], postings=foreign)
