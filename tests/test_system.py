"""Tests for the end-to-end ExtractSystem façade."""

from __future__ import annotations

import pytest

from repro import ExtractSystem
from repro.datasets.retail import figure5_document
from repro.errors import QueryError, XMLParseError
from repro.search.xseek import ResultConstruction
from repro.xmltree.serialize import to_xml_string

SMALL_XML = """<!DOCTYPE stores [
  <!ELEMENT stores (store*)>
]>
<stores>
  <store><name>Levis</name><state>Texas</state></store>
  <store><name>ESprit</name><state>Oregon</state></store>
</stores>
"""


class TestConstruction:
    def test_from_tree(self):
        system = ExtractSystem.from_tree(figure5_document())
        assert system.index.tree.size_nodes > 0

    def test_from_xml_uses_dtd(self):
        system = ExtractSystem.from_xml(SMALL_XML, name="small")
        assert "store" in system.analyzer.entity_tags()
        assert system.index.tree.name == "small"

    def test_from_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(to_xml_string(figure5_document()), encoding="utf-8")
        system = ExtractSystem.from_file(path)
        outcome = system.run_query("store texas", size_bound=6)
        assert len(outcome) == 2

    def test_from_xml_malformed_raises(self):
        with pytest.raises(XMLParseError):
            ExtractSystem.from_xml("<a><b></a>")

    def test_repr(self):
        assert "nodes=" in repr(ExtractSystem.from_tree(figure5_document()))


class TestQuery:
    @pytest.fixture()
    def system(self):
        return ExtractSystem.from_tree(figure5_document())

    def test_outcome_contains_results_and_snippets(self, system):
        outcome = system.run_query("store texas", size_bound=6)
        assert len(outcome.results) == len(outcome.snippets) == len(outcome) == 2
        assert all(generated.snippet.size_edges <= 6 for generated in outcome.snippets)

    def test_limit_applies_to_both(self, system):
        outcome = system.run_query("store", size_bound=6, limit=1)
        assert len(outcome.results) == 1
        assert len(outcome.snippets) == 1

    def test_empty_query_raises(self, system):
        with pytest.raises(QueryError):
            system.run_query("  ")

    def test_no_results_outcome(self, system):
        outcome = system.run_query("store antarctica")
        assert len(outcome) == 0
        assert outcome.render_text().count("Result #") == 0

    def test_render_text_and_html(self, system):
        outcome = system.run_query("store texas", size_bound=6)
        text = outcome.render_text(show_ilist=True)
        assert "IList:" in text
        html = outcome.render_html()
        assert html.startswith("<!DOCTYPE html>")

    def test_timings_include_all_phases(self, system):
        outcome = system.run_query("store texas", size_bound=6)
        # the search ran; no snippet has been asked for yet
        assert "search" in outcome.timings.phases
        assert "snippets" not in outcome.timings.phases
        assert outcome.timings.total > 0
        # the snippet phases join the outcome's timings as it generates
        outcome.snippets.page(1, 1)
        assert {"search", "snippets", "ilist", "instance_selection"} <= set(outcome.timings.phases)
        assert outcome.timings.counts["ilist"] == 1
        list(outcome.snippets)
        assert outcome.timings.counts["ilist"] == len(outcome) == 2

    def test_construction_modes(self, system):
        subtree = system.run_query("store texas", construction=ResultConstruction.SUBTREE)
        paths = system.run_query("store texas", construction=ResultConstruction.MATCH_PATHS)
        assert len(subtree) >= 1 and len(paths) >= 1

    def test_document_stats(self, system):
        stats = system.document_stats()
        assert stats.node_count == system.index.tree.size_nodes

    def test_elca_system(self):
        system = ExtractSystem.from_tree(figure5_document(), algorithm="elca")
        outcome = system.run_query("store texas", size_bound=6)
        assert len(outcome) >= 2


class TestQueryResultCache:
    def test_repeated_query_served_from_cache(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        cold = system.run_query("store texas", size_bound=6)
        warm = system.run_query("store texas", size_bound=6)
        assert cold.from_cache is False
        assert warm.from_cache is True
        assert warm.render_text() == cold.render_text()
        assert system.cache.stats.hits == 1

    def test_repeated_workload_hit_rate(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        # 10 lookups over 3 distinct queries: 3 misses, 7 hits.
        for query in ["store texas", "clothes casual", "store houston"] * 3 + ["store texas"]:
            system.run_query(query, size_bound=6)
        stats = system.cache.stats
        assert (stats.misses, stats.hits, stats.hit_rate) == (3, 7, 0.7)

    def test_different_parameters_miss(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        system.run_query("store texas", size_bound=6)
        assert system.run_query("store texas", size_bound=8).from_cache is False
        assert system.run_query("store texas", size_bound=6, limit=1).from_cache is False
        assert system.run_query("store austin", size_bound=6).from_cache is False

    def test_normalised_query_shares_cache_entry(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        system.run_query("store texas", size_bound=6)
        # Different raw text, same normalised keywords in the same order.
        assert system.run_query("STORE,   texas!", size_bound=6).from_cache is True

    def test_use_cache_false_bypasses(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        system.run_query("store texas", size_bound=6)
        outcome = system.run_query("store texas", size_bound=6, use_cache=False)
        assert outcome.from_cache is False

    def test_invalidate_cache_clears_everything(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        system.run_query("store texas", size_bound=6)
        assert len(system.cache) > 0
        system.invalidate_cache()
        assert len(system.cache) == 0
        assert len(system.generator.cache) == 0
        assert system.run_query("store texas", size_bound=6).from_cache is False

    def test_cache_stats_expose_both_caches(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        stats = system.cache_stats()
        assert set(stats) == {"query", "snippet"}

    def test_run_search_caches_result_sets(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        first, first_cached = system.run_search("store texas")
        second, second_cached = system.run_search("store texas")
        assert second is first  # served verbatim from the cache
        assert (first_cached, second_cached) == (False, True)
        assert len(first) == 2

    def test_cache_size_zero_disables_caching(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx, cache_size=0)
        system.run_query("store texas", size_bound=6)
        assert system.run_query("store texas", size_bound=6).from_cache is False

    def test_snippet_cache_rewraps_current_result(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        # Same document/root/query/bound through different limits: the
        # snippet cache must serve the tree but keep each outcome's own
        # result objects (ranking metadata stays current).
        full = system.run_query("store texas", size_bound=6)
        limited = system.run_query("store texas", size_bound=6, limit=1)
        assert system.generator.cache.stats.lookups == 0  # nothing read, nothing generated
        assert len(full.snippets.snippets) == 2
        assert limited.snippets[0].result is limited.results[0]
        assert system.generator.cache.stats.hits == 1  # the tree came from the snippet cache
        assert (
            limited.snippets[0].snippet.size_edges
            == full.snippets[0].snippet.size_edges
        )

    @pytest.mark.parametrize("size_bound", [0, -3, True, 2.5, "6"])
    def test_invalid_size_bound_raises_before_anything_is_cached(self, figure5_idx, size_bound):
        from repro.errors import InvalidSizeBoundError
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        for _ in range(2):  # the second call must not find a poisoned outcome
            with pytest.raises(InvalidSizeBoundError):
                system.run_query("store texas", size_bound=size_bound)
        with pytest.raises(InvalidSizeBoundError):
            system.run_query("nothing matches this", size_bound=size_bound)
        assert len(system.cache) == 0 and len(system.generator.cache) == 0

    def test_page_past_the_end_generates_nothing(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        outcome = system.run_query("store texas", size_bound=6)
        assert outcome.snippets.page(99, 5) == [] == outcome.snippets.page(2, None)
        assert outcome.snippets.generated == 0
        assert system.generator.cache.stats.lookups == 0
        assert "snippets" not in outcome.timings.phases

    def test_use_cache_false_generates_only_the_page_read(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        outcome = system.run_query("store texas", size_bound=6, use_cache=False)
        (only,) = outcome.snippets.page(2, 1)
        assert only.result is outcome.results[1]
        assert outcome.snippets.generated == 1 < len(outcome)
        assert len(system.cache) == 0

    def test_from_saved_round_trip(self, figure5_idx, tmp_path):
        from repro.index.storage import save_index
        from repro.system import ExtractSystem

        save_index(figure5_idx, tmp_path / "idx")
        system = ExtractSystem.from_saved(tmp_path / "idx")
        reference = ExtractSystem(figure5_idx)
        assert (
            system.run_query("store texas", size_bound=6).render_text()
            == reference.run_query("store texas", size_bound=6).render_text()
        )

    def test_search_construction_is_explicit_not_inherited(self, figure5_idx):
        from repro.search.xseek import ResultConstruction
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        baseline, _ = ExtractSystem(figure5_idx).run_search("store texas")
        # A prior query with a different construction must not leak into a
        # later run_search(): construction is an explicit parameter.
        system.run_query(
            "store texas", size_bound=6, construction=ResultConstruction.MATCH_PATHS
        )
        results, _ = system.run_search("store texas")
        assert [type(r) for r in results] == [type(r) for r in baseline]
        assert [str(r.root) for r in results] == [str(r.root) for r in baseline]


class TestServicePipeline:
    """The run_* pipeline the service executes touches no shared engine state."""

    def test_run_query_does_not_mutate_engine_state(self, figure5_idx):
        from repro.search.xseek import ResultConstruction
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        before = system.engine.construction
        system.run_query(
            "store texas", size_bound=6, construction=ResultConstruction.MATCH_PATHS
        )
        assert system.engine.construction is before
        assert system.engine.timings.phases == {}  # per-call breakdown, not shared

    def test_run_query_timings_are_per_call(self, figure5_idx):
        from repro.system import ExtractSystem

        system = ExtractSystem(figure5_idx)
        outcome = system.run_query("store texas", size_bound=6, use_cache=False)
        list(outcome.snippets)
        assert {"search", "snippets", "lookup", "lca", "ilist"} <= set(outcome.timings.phases)
        # a second cold call gets a fresh breakdown, not an accumulated one
        # (nor one the first call's generation wrote into)
        again = system.run_query("store texas", size_bound=6, use_cache=False)
        assert again.timings.counts["search"] == 1
        assert "snippets" not in again.timings.phases
