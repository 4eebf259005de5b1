"""Tests for the SnippetGenerator façade."""

from __future__ import annotations

import pytest

from repro.errors import InvalidSizeBoundError
from repro.search.engine import SearchEngine
from repro.snippet.generator import DEFAULT_SIZE_BOUND, SnippetGenerator
from repro.snippet.ilist import ItemKind


class TestGenerate:
    def test_generated_snippet_structure(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        generated = generator.generate(results[0], size_bound=6)
        assert generated.size_bound == 6
        assert generated.snippet.size_edges <= 6
        assert 0.0 < generated.coverage <= 1.0
        assert generated.covered_items == len(generated.snippet.covered_items)

    def test_default_bound(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generated = SnippetGenerator(figure5_idx.analyzer).generate(results[0])
        assert generated.size_bound == DEFAULT_SIZE_BOUND

    def test_invalid_bound_rejected(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        with pytest.raises(InvalidSizeBoundError):
            generator.generate(results[0], size_bound=0)
        with pytest.raises(InvalidSizeBoundError):
            generator.generate(results[0], size_bound=True)

    def test_snippet_contains_result_key_when_budget_allows(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        for result in results:
            generated = generator.generate(result, size_bound=6)
            key_items = generated.ilist.items_of_kind(ItemKind.RESULT_KEY)
            assert key_items and generated.snippet.covers(key_items[0].identity)

    def test_query_override(self, figure5_idx):
        from repro.search.query import KeywordQuery

        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        generated = generator.generate(results[0], size_bound=6, query=KeywordQuery.parse("jeans"))
        assert generated.ilist[0].text == "jeans"

    def test_build_ilist_exposed(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        ilist = generator.build_ilist(results[0])
        assert len(ilist) > 0

    def test_timings_recorded(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        generator.generate(results[0], size_bound=6)
        assert {"ilist", "instance_selection"} <= set(generator.timings.phases)

    def test_repr(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generated = SnippetGenerator(figure5_idx.analyzer).generate(results[0], size_bound=6)
        assert "edges=" in repr(generated)


class TestGenerateAll:
    def test_one_snippet_per_result(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert len(batch) == len(results)
        assert [generated.result for generated in batch] == list(results)

    def test_batch_protocol(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert batch[0] is list(batch)[0]
        assert 0.0 < batch.mean_coverage() <= 1.0

    def test_empty_result_set(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store antarctica")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert len(batch) == 0
        assert batch.mean_coverage() == 0.0

    def test_coverage_definition(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=1000)
        assert batch.mean_coverage() == pytest.approx(1.0)


class TestEndToEndInvariants:
    @pytest.mark.parametrize("bound", [3, 6, 10, 16])
    def test_all_results_respect_bound(self, retail_idx, retail_results, retail_generator, bound):
        batch = retail_generator.generate_all(retail_results, size_bound=bound)
        for generated in batch:
            assert generated.snippet.size_edges <= bound
            assert generated.snippet.is_connected()
            # every selected node belongs to the generating result
            for node in generated.snippet.selected_nodes():
                assert generated.result.contains(node.pre)

    def test_snippet_is_subtree_of_result(self, retail_results, retail_generator):
        generated = retail_generator.generate(retail_results[0], size_bound=8)
        snippet_tree = generated.snippet.to_tree()
        assert snippet_tree.root.tag == retail_results[0].root_node.tag
        assert snippet_tree.size_edges == generated.snippet.size_edges
