"""Tests for result-set-aware (distinct) snippet generation."""

from __future__ import annotations

import pytest

from repro.eval.metrics import distinguishability
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.distinct import DistinctSnippetGenerator, snippet_signature
from repro.snippet.generator import SnippetGenerator
from repro.xmltree.builder import tree_from_dict


@pytest.fixture()
def clashing_index():
    """Stores engineered to produce identical base snippets.

    Both Texas stores are key-less (state and city values repeat across
    stores, so no attribute is unique) and share the same dominant
    category/fitting; they differ only in one minority clothes item
    (scarves vs. socks), which the per-result pipeline never selects within
    a tight bound — so the base snippets come out identical.
    """
    stores = []
    for extra in ("scarves", "socks"):
        stores.append(
            {
                "state": "Texas",
                "city": "Houston",
                "merchandises": {
                    "clothes": [
                        {"category": "jeans", "fitting": "man"},
                        {"category": "jeans", "fitting": "man"},
                        {"category": "jeans", "fitting": "man"},
                        {"category": extra, "fitting": "woman"},
                    ]
                },
            }
        )
    tree = tree_from_dict("stores", {"store": stores}, name="clashing")
    return IndexBuilder().build(tree)


class TestClashResolution:
    def test_base_snippets_clash_and_distinct_resolves(self, clashing_index):
        results = SearchEngine(clashing_index).search("store texas jeans")
        assert len(results) == 2
        bound = 6

        base = SnippetGenerator(clashing_index.analyzer).generate_all(results, size_bound=bound)
        assert base.generated == len(base) == 2  # generate_all leaves nothing for later
        base_signatures = [snippet_signature(generated) for generated in base]
        # the engineered documents make the per-result snippets identical
        assert base_signatures[0] == base_signatures[1]

        distinct = DistinctSnippetGenerator(clashing_index.analyzer).generate_all(
            results, size_bound=bound
        )
        signatures = [snippet_signature(generated) for generated in distinct]
        assert signatures[0] != signatures[1]
        assert distinguishability(list(distinct)) == 1.0
        # the regenerated snippet replaced its slot: every way of reading
        # the batch shows it, none generates the clashing one again
        assert distinct[1] is distinct.snippets[1] is distinct.page(2, 1)[0]
        assert snippet_signature(distinct.page(1, None)[1]) == signatures[1]

    def test_bound_still_respected_after_resolution(self, clashing_index):
        results = SearchEngine(clashing_index).search("store texas jeans")
        for bound in (3, 4, 6):
            batch = DistinctSnippetGenerator(clashing_index.analyzer).generate_all(results, size_bound=bound)
            for generated in batch:
                assert generated.snippet.size_edges <= bound
                assert generated.snippet.is_connected()

    def test_no_change_when_snippets_already_differ(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        base = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        distinct = DistinctSnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert [snippet_signature(g) for g in base] == [snippet_signature(g) for g in distinct]

    def test_single_result_untouched(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("jeans houston")
        batch = DistinctSnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert len(batch) == len(results)

    def test_max_rounds_zero_is_base_behaviour(self, clashing_index):
        results = SearchEngine(clashing_index).search("store texas jeans")
        generator = DistinctSnippetGenerator(clashing_index.analyzer, max_rounds=0)
        batch = generator.generate_all(results, size_bound=6)
        signatures = [snippet_signature(generated) for generated in batch]
        assert signatures[0] == signatures[1]
