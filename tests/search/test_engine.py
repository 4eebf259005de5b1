"""Tests for the SearchEngine façade."""

from __future__ import annotations

import pytest

from repro.errors import QueryError, SearchError
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.results import ResultSet
from repro.search.xseek import ResultConstruction


class TestSearch:
    def test_figure5_query_two_results(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        assert len(results) == 2
        names = {result.root_node.find_child("name").text for result in results}
        assert names == {"Levis", "ESprit"}

    def test_results_are_self_contained_entities(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        for result in results:
            assert result.root_node.tag == "store"
            assert result.size_nodes == result.root_node.subtree_size_nodes()

    def test_no_match_returns_empty_result_set(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store antarctica")
        assert results.is_empty
        assert len(results) == 0

    def test_limit(self, retail_idx):
        all_results = SearchEngine(retail_idx).search("retailer apparel")
        limited = SearchEngine(retail_idx).search("retailer apparel", limit=2)
        assert len(limited) == min(2, len(all_results))

    def test_accepts_parsed_query(self, figure5_idx):
        query = KeywordQuery.parse("store texas")
        results = SearchEngine(figure5_idx).search(query)
        assert results.query is query

    def test_invalid_query_raises(self, figure5_idx):
        with pytest.raises(QueryError):
            SearchEngine(figure5_idx).search("the of")

    def test_unknown_algorithm_raises(self, figure5_idx):
        with pytest.raises(SearchError):
            SearchEngine(figure5_idx, algorithm="magic")

    def test_elca_algorithm_runs(self, figure5_idx):
        results = SearchEngine(figure5_idx, algorithm="elca").search("store texas")
        assert results.algorithm == "elca"
        assert len(results) >= 2

    def test_elca_results_superset_of_slca(self, retail_idx):
        slca = SearchEngine(retail_idx, algorithm="slca").search("store texas")
        elca = SearchEngine(retail_idx, algorithm="elca").search("store texas")
        slca_roots = {result.root for result in slca}
        elca_roots = {result.root for result in elca}
        assert slca_roots <= elca_roots

    def test_match_paths_construction(self, figure5_idx):
        engine = SearchEngine(figure5_idx, construction=ResultConstruction.MATCH_PATHS)
        results = engine.search("store texas")
        assert len(results) == 2

    def test_timings_recorded(self, figure5_idx):
        engine = SearchEngine(figure5_idx)
        engine.search("store texas")
        assert {"lookup", "lca", "result_construction", "ranking"} <= set(engine.timings.phases)

    def test_repr(self, figure5_idx):
        assert "slca" in repr(SearchEngine(figure5_idx))


class TestResultSet:
    def test_iteration_and_indexing(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        assert results[0] is list(results)[0]
        assert len(results.top(1)) == 1

    def test_total_result_edges(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        assert results.total_result_edges() == sum(result.size_edges for result in results)

    def test_repr(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        assert "results=2" in repr(results)


class TestQueryResult:
    def test_text_content_flattens_subtree(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        text = results[0].text_content()
        assert "Texas" in text

    def test_to_tree_is_standalone_copy(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        copy = results[0].to_tree()
        assert copy.root.tag == "store"
        assert copy.size_nodes == results[0].size_nodes

    def test_matched_keywords_and_all_matches(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        result = results[0]
        assert set(result.matched_keywords) == {"store", "texas"}
        matches = result.all_matches()
        assert matches == sorted(set(matches))
        assert set(matches) == set().union(*result.matches.values())

    def test_contains(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        result = results[0]
        nodes = list(result.iter_nodes())
        assert all(result.contains(node.pre) for node in nodes)
        assert not result.contains(nodes[0].pre - 1)
        assert not result.contains(nodes[-1].pre + 1)
        other = results[1]
        assert not result.contains(other.root_node.pre)


class TestLimitNumbering:
    """Regression tests: ids on a limited result page must match snippet
    numbering, and the pre-truncation total must be recorded."""

    def test_limit_reassigns_contiguous_ids(self, retail_idx):
        engine = SearchEngine(retail_idx)
        limited = engine.search("retailer apparel", limit=2)
        assert [result.result_id for result in limited] == list(range(len(limited)))

    def test_total_results_records_pre_truncation_count(self, retail_idx):
        engine = SearchEngine(retail_idx)
        full = engine.search("retailer apparel")
        limited = engine.search("retailer apparel", limit=2)
        assert limited.total_results == len(full)
        assert limited.is_truncated
        assert not full.is_truncated
        assert full.total_results == len(full)

    def test_snippet_numbering_agrees_with_limited_results(self, retail_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(retail_idx)
        outcome = system.run_query("retailer apparel", size_bound=6, limit=2)
        result_ids = [result.result_id for result in outcome.results]
        snippet_ids = [generated.result.result_id for generated in outcome.snippets]
        assert snippet_ids == result_ids == list(range(len(outcome.results)))

    def test_limit_zero_and_overlong_limit(self, retail_idx):
        engine = SearchEngine(retail_idx)
        assert len(engine.search("retailer apparel", limit=0)) == 0
        full = engine.search("retailer apparel")
        assert len(engine.search("retailer apparel", limit=10_000)) == len(full)

    def test_negative_limit_is_rejected(self, retail_idx):
        from repro.api.protocol import code_for_exception

        # As a slice bound, -1 silently dropped the last ranked result.
        with pytest.raises(QueryError) as excinfo:
            SearchEngine(retail_idx).search("retailer apparel", limit=-1)
        assert code_for_exception(excinfo.value) == "bad_request"
