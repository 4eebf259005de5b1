"""Tests for the incremental document lifecycle (ISSUE 3 tentpole).

Covers ``Corpus.update_document`` / ``remove_document`` / ``apply_update``,
cache-invalidation precision, the update journal round trip and the
hardened ``load_dir``.
"""

from __future__ import annotations

import io
import json
import shutil

import pytest

from repro.api import SearchRequest, SnippetService, UpdateRequest
from repro.cli import main
from repro.corpus import Corpus
from repro.errors import DeweyError, ExtractError, StorageError
from repro.index.storage import (
    JOURNAL_FILE,
    JournalRecord,
    append_journal_record,
    directory_documents,
    read_corpus_journal,
)
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string


def retailer_tree(galleria_city="Houston", categories=("suit", "jeans")):
    return tree_from_dict(
        "retailer",
        {
            "name": "Brook Brothers",
            "store": [
                {
                    "name": "Galleria",
                    "city": galleria_city,
                    "clothes": [{"category": category} for category in categories],
                },
                {"name": "West Village", "city": "Austin", "clothes": [{"category": "outwear"}]},
            ],
        },
        name="doc",
    )


def wire(service, query, document="doc", **kwargs):
    response = service.run(SearchRequest(query=query, document=document, size_bound=6, **kwargs))
    return json.dumps(response.to_dict(), sort_keys=True)


class TestUpdateDocument:
    def test_noop_update_keeps_every_cache_entry(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        service = SnippetService(corpus)
        service.run(SearchRequest(query="store austin", document="doc", size_bound=6))
        report = corpus.update_document("doc", retailer_tree())
        assert report.changed_nodes == 0
        assert report.cache_entries_invalidated == 0
        assert service.run(
            SearchRequest(query="store austin", document="doc", size_bound=6)
        ).from_cache

    def test_text_edit_is_incremental_and_matches_rebuild(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental
        assert report.changed_nodes == 1
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree("Dallas"))
        ours, theirs = SnippetService(corpus), SnippetService(rebuilt)
        for query in ("store dallas", "store houston", "store austin", "brook brothers"):
            assert wire(ours, query) == wire(theirs, query), query

    def test_a_report_spells_its_labels_after_its_version_is_retired(self):
        # A node holds its ancestors weakly.  A shard spells a replication
        # delta from the report's edits after the update lock is released,
        # so a later update may already have retired the version the edits
        # were read from: their labels must still name the edited nodes.
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        corpus.update_document("doc", retailer_tree("Waco"))
        tree = corpus.system("doc").index.tree
        [edit] = report.text_edits
        assert edit.label == tree.nodes_by_pre[edit.pre].dewey
        assert tree.node(edit.label).tag == "city"
        assert tree.node(edit.label).text == "Waco"

    def test_structural_edit_falls_back_to_rebuild(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        report = corpus.update_document(
            "doc", retailer_tree(categories=("suit", "jeans", "shirts"))
        )
        assert not report.incremental
        assert report.structural_reason is not None
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree(categories=("suit", "jeans", "shirts")))
        assert wire(SnippetService(corpus), "clothes shirts") == wire(
            SnippetService(rebuilt), "clothes shirts"
        )

    def test_structural_edit_that_shifts_every_position_drops_the_old_shape(self):
        # Result roots, root-memo keys and posting lists are positions
        # in document order.  One <store> inserted first shifts every later
        # position: nothing computed on the old shape may answer afterwards.
        def with_a_store_in_front(tree):
            front = tree_from_dict("store", {"name": "Annex", "city": "Austin"}).root
            tree.root.children.insert(1, front)  # right after <name>
            tree.refresh()
            return tree

        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        service = SnippetService(corpus)
        queries = ("store austin", "clothes", "galleria suit", "stores")
        for query in queries:
            assert not service.run(
                SearchRequest(query=query, document="doc", size_bound=6, page_size=1)
            ).from_cache
        old = corpus.entry("doc")
        old_roots = old.system.generator.ilist_builder.roots
        assert len(old.system.cache) and len(old_roots)
        old_store = old.system.index.keyword_matches("store")

        report = corpus.update_document("doc", with_a_store_in_front(retailer_tree()))
        assert not report.incremental

        new = corpus.entry("doc")
        assert not len(new.system.cache) and not len(new.system.generator.ilist_builder.roots)
        new_store = new.system.index.keyword_matches("store")
        assert new_store.shape is new.system.index.tree.shape is not old_store.shape
        assert list(new_store) != list(old_store)
        rebuilt = Corpus()
        rebuilt.add_tree("doc", with_a_store_in_front(retailer_tree()))
        theirs = SnippetService(rebuilt)
        for query in queries:
            for page in (1, 2, 3):
                ours = service.run(SearchRequest(
                    query=query, document="doc", size_bound=6, page_size=1, page=page
                ))
                assert ours.from_cache == (page > 1), (query, page)
                assert json.dumps(ours.to_dict(), sort_keys=True) == wire(
                    theirs, query, page_size=1, page=page
                ), (query, page)

    def test_update_unknown_document_raises(self):
        with pytest.raises(ExtractError):
            Corpus().update_document("ghost", retailer_tree())

    def test_updates_chain(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        for city in ("Dallas", "El Paso", "Waco"):
            assert corpus.update_document("doc", retailer_tree(city)).incremental
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree("Waco"))
        assert wire(SnippetService(corpus), "store waco") == wire(
            SnippetService(rebuilt), "store waco"
        )

    def test_filling_empty_text_matches_rebuild(self):
        # Regression: "" -> value flips has_text_value (and hence schema
        # classification); it must take the full-rebuild path and end up
        # byte-identical to a from-scratch corpus.
        def with_blank_names(tree):
            for node in tree.iter_nodes():
                if node.tag == "name":
                    node.text = ""
            return tree

        corpus = Corpus()
        corpus.add_tree("doc", with_blank_names(retailer_tree()))
        report = corpus.update_document("doc", retailer_tree())
        assert not report.incremental

        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree())
        for query in ("store austin", "galleria suit", "brook brothers"):
            assert wire(SnippetService(corpus), query) == wire(
                SnippetService(rebuilt), query
            ), query

    def test_tree_adopts_registered_name(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        edited = retailer_tree("Dallas")
        edited.name = "something-else"
        corpus.update_document("doc", edited)
        assert corpus.system("doc").index.tree.name == "doc"


class TestCacheInvalidationPrecision:
    def build(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        corpus.add_tree("other", clone_tree(retailer_tree("Houston"), name="other"))
        service = SnippetService(corpus)
        return corpus, service

    def test_affected_query_misses_unaffected_hits(self):
        corpus, service = self.build()
        affected = SearchRequest(query="store houston", document="doc", size_bound=6)
        unaffected = SearchRequest(query="store austin", document="doc", size_bound=6)
        service.run(affected)
        service.run(unaffected)

        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental
        assert report.cache_entries_kept >= 1
        assert report.cache_entries_invalidated >= 1

        before = corpus.system("doc").cache.stats_snapshot()
        assert service.run(unaffected).from_cache
        assert not service.run(affected).from_cache
        after = corpus.system("doc").cache.stats_snapshot()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1

    def test_untouched_document_keeps_hitting(self):
        corpus, service = self.build()
        other_request = SearchRequest(query="store houston", document="other", size_bound=6)
        service.run(other_request)
        corpus.update_document("doc", retailer_tree("Dallas"))
        before = corpus.system("other").cache.stats_snapshot()
        assert service.run(other_request).from_cache
        after = corpus.system("other").cache.stats_snapshot()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_query_touching_edited_subtree_is_invalidated(self):
        # "store austin" results cover the West Village store only; its
        # subtree is untouched, so the entry survives.  "galleria suit"
        # resolves to the Galleria store subtree, which contains the edited
        # <city> node — its snippet could differ, so it must be recomputed
        # even though neither keyword's posting list changed.
        corpus, service = self.build()
        subtree_safe = SearchRequest(query="store austin", document="doc", size_bound=6)
        subtree_hit = SearchRequest(query="galleria suit", document="doc", size_bound=6)
        service.run(subtree_safe)
        service.run(subtree_hit)
        corpus.update_document("doc", retailer_tree("Dallas"))
        assert service.run(subtree_safe).from_cache
        assert not service.run(subtree_hit).from_cache

    def test_plural_keyword_form_is_invalidated(self):
        corpus, service = self.build()
        plural = SearchRequest(query="stores houston", document="doc", size_bound=6)
        service.run(plural)
        corpus.update_document("doc", retailer_tree("Dallas"))
        assert not service.run(plural).from_cache

    def test_queries_after_an_update_see_the_new_postings(self):
        corpus, service = self.build()
        austin_before = corpus.system("doc").index.keyword_matches("austin")
        request = SearchRequest(query="store houston", document="doc", size_bound=6, use_cache=False)
        assert service.run(request).total_results == 1
        corpus.update_document("doc", retailer_tree("Dallas"))
        # an untouched term's list is shared with the old index
        assert corpus.system("doc").index.keyword_matches("austin") is austin_before
        assert service.run(request).total_results == 0  # touched term dropped
        moved = SearchRequest(query="store dallas", document="doc", size_bound=6, use_cache=False)
        assert service.run(moved).total_results == 1


class TestHalfGeneratedOutcomes:
    """An outcome whose snippets are only partly generated lives and dies
    by the same contract as a fully generated one, and what it generates
    after an update is what a from-scratch rebuild would serve."""

    # three results, one per <clothes>: 1.2 suit, 1.3 jeans, 2.2 outwear
    QUERY = "clothes"

    def build(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        first = service.run(
            SearchRequest(query=self.QUERY, document="doc", size_bound=6, page_size=1)
        )
        assert first.total_results == 3 and first.results[0].root == "1.2"
        assert corpus.system("doc").run_query(self.QUERY, size_bound=6).snippets.generated == 1
        return corpus, service

    def pages(self, service, *numbers):
        return [
            service.run(SearchRequest(
                query=self.QUERY, document="doc", size_bound=6, page_size=1, page=page
            ))
            for page in numbers
        ]

    def rebuilt(self, tree):
        corpus = Corpus()
        corpus.add_tree("doc", tree)
        return SnippetService(corpus)

    def test_edit_outside_every_result_keeps_it_and_later_pages_match_rebuild(self):
        corpus, service = self.build()
        retired = corpus.system("doc")
        # the edited <city> is inside no <clothes>, and "clothes" keeps its postings
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental and report.cache_entries_invalidated == 0
        live = corpus.system("doc")
        outcome = live.run_query(self.QUERY, size_bound=6)
        assert outcome.from_cache and outcome.snippets.generated == 1

        later = self.pages(service, 2, 3, 1)
        assert all(response.from_cache for response in later)
        reference = self.pages(self.rebuilt(retailer_tree("Dallas")), 2, 3, 1)
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in later] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in reference
        ]
        # generated through the live root memo, which the update carried
        # page 1's root into, not the retired one
        assert outcome.snippets.generated == 3
        live_roots = live.generator.ilist_builder.roots
        assert len(live_roots) == 3 and live_roots.stats_snapshot().hits == 0
        assert len(retired.generator.ilist_builder.roots) == 0

    def test_remaining_snippets_come_from_the_live_analyzer(self, monkeypatch):
        from repro.xmltree.node import XMLNode

        corpus, service = self.build()
        corpus.update_document("doc", retailer_tree("Dallas"))
        live = corpus.system("doc")
        outcome = live.run_query(self.QUERY, size_bound=6)
        assert outcome.from_cache and outcome.snippets.generated == 1
        # the kept results were rebound to the live tree, whose analyzer
        # tables cover them
        for result in outcome.results:
            assert result.source is live.index.tree
            assert live.analyzer.covers(result.root_node)
        # A node the tables do not cover is classified by rebuilding its
        # tag path: generating the rest of the outcome must not do that.
        tag_path = XMLNode.tag_path.fget
        rebuilt_paths = []
        monkeypatch.setattr(
            XMLNode, "tag_path", property(lambda node: rebuilt_paths.append(node) or tag_path(node))
        )
        self.pages(service, 2, 3)
        assert rebuilt_paths == []

    @pytest.mark.parametrize("categories", [("coat", "jeans"), ("suit", "denim")])
    def test_edit_inside_any_result_kills_it_generated_or_not(self, categories):
        # 1.2 is the generated slot, 1.3 one nobody has read yet
        corpus, service = self.build()
        report = corpus.update_document("doc", retailer_tree("Houston", categories))
        assert report.incremental and report.cache_entries_invalidated >= 1
        (second,) = self.pages(service, 2)
        assert not second.from_cache
        reference = self.pages(self.rebuilt(retailer_tree("Houston", categories)), 1, 2, 3)
        assert [r.results for r in self.pages(service, 1, 2, 3)] == [r.results for r in reference]

    def test_changed_postings_kill_it(self):
        corpus, service = self.build()
        # a <city> value becomes "clothes": the keyword's postings change
        corpus.update_document("doc", retailer_tree("clothes"))
        assert not self.pages(service, 2)[0].from_cache


class TestResultsOnlyOutcomes:
    """A results-only request caches the same outcome as a request with
    snippets, with no slot generated; an update carries it over by the
    same rule."""

    QUERY = "clothes"

    def build(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        first = service.run(SearchRequest(
            query=self.QUERY, document="doc", size_bound=6, include_snippets=False
        ))
        assert first.total_results == 3
        return corpus, service

    def rebuilt(self, tree):
        corpus = Corpus()
        corpus.add_tree("doc", tree)
        return SnippetService(corpus)

    def test_edit_outside_every_result_keeps_it_on_the_live_tree(self):
        corpus, service = self.build()
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental and report.cache_entries_invalidated == 0
        live = corpus.system("doc")
        outcome = live.run_query(self.QUERY, size_bound=6)
        assert outcome.from_cache and outcome.snippets.generated == 0
        assert all(result.source is live.index.tree for result in outcome.results)
        assert wire(service, self.QUERY, include_snippets=False) == wire(
            self.rebuilt(retailer_tree("Dallas")), self.QUERY, include_snippets=False
        )

    def test_a_kept_outcome_serves_snippets_that_match_a_rebuild(self):
        corpus, service = self.build()
        corpus.update_document("doc", retailer_tree("Dallas"))
        response = service.run(SearchRequest(query=self.QUERY, document="doc", size_bound=6))
        assert response.from_cache
        assert wire(service, self.QUERY) == wire(
            self.rebuilt(retailer_tree("Dallas")), self.QUERY
        )

    def test_edit_inside_a_result_kills_it(self):
        corpus, service = self.build()
        report = corpus.update_document("doc", retailer_tree("Houston", ("coat", "jeans")))
        assert report.incremental and report.cache_entries_invalidated >= 1
        response = service.run(SearchRequest(
            query=self.QUERY, document="doc", size_bound=6, include_snippets=False
        ))
        assert not response.from_cache


class TestStoredPayloads:
    """A slot's rendered payload is stored on it and lives and dies with the
    outcome entry: what a kept outcome serves after an update, and what a
    dead one re-serves, is what a from-scratch rebuild serves."""

    def build(self, *queries):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        for query in queries:
            service.run(SearchRequest(query=query, document="doc", size_bound=6))
        return corpus, service

    def rebuilt(self, tree):
        corpus = Corpus()
        corpus.add_tree("doc", tree)
        return SnippetService(corpus)

    @pytest.fixture()
    def rendered(self, monkeypatch):
        """Result ids the service rendered a payload for."""
        from repro.api import service as service_module

        calls: list[int] = []
        render = service_module.render_snippet_text

        def counted(generated, *args, **kwargs):
            calls.append(generated.result.result_id)
            return render(generated, *args, **kwargs)

        monkeypatch.setattr(service_module, "render_snippet_text", counted)
        return calls

    def test_a_kept_outcome_serves_its_stored_payloads_after_a_text_update(self, rendered):
        # West Village's subtree is untouched by the Galleria <city> edit
        corpus, service = self.build("store austin")
        before = service.run(SearchRequest(query="store austin", document="doc", size_bound=6))
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental and report.cache_entries_invalidated == 0
        del rendered[:]

        after = service.run(SearchRequest(query="store austin", document="doc", size_bound=6))
        assert after.from_cache and rendered == []
        assert all(a is b for a, b in zip(after.results, before.results, strict=True))
        assert wire(service, "store austin") == wire(
            self.rebuilt(retailer_tree("Dallas")), "store austin"
        )

    def test_an_edit_under_a_rendered_root_kills_it_and_the_page_shows_the_new_text(
        self, rendered
    ):
        corpus, service = self.build("galleria suit")
        before = service.run(SearchRequest(query="galleria suit", document="doc", size_bound=6))
        assert "city: Houston" in before.results[0].text
        corpus.update_document("doc", retailer_tree("Dallas"))
        # neither the outcome nor the memoised Galleria store survives
        assert len(corpus.system("doc").cache) == 0
        assert len(corpus.system("doc").generator.ilist_builder.roots) == 0
        del rendered[:]

        after = service.run(SearchRequest(query="galleria suit", document="doc", size_bound=6))
        assert not after.from_cache and rendered == [0]
        assert "city: Dallas" in after.results[0].text
        assert wire(service, "galleria suit") == wire(
            self.rebuilt(retailer_tree("Dallas")), "galleria suit"
        )

    def test_a_carried_root_renders_for_its_new_result(self, rendered):
        # Galleria's city becomes Austin: "austin" changes its postings, so
        # the outcome dies and West Village ranks among two results — but
        # its memoised root is kept.  The snippet built on it is a new
        # object, rendered for its new result (id, score), not the payload
        # of the old one.
        corpus, service = self.build("store austin")
        assert len(corpus.system("doc").generator.ilist_builder.roots) == 1
        corpus.update_document("doc", retailer_tree("Austin"))
        live_roots = corpus.system("doc").generator.ilist_builder.roots
        assert len(live_roots) == 1
        hits = live_roots.stats_snapshot().hits
        del rendered[:]

        after = service.run(SearchRequest(query="store austin", document="doc", size_bound=6))
        assert not after.from_cache and after.total_results == 2
        assert live_roots.stats_snapshot().hits == hits + 1
        assert sorted(rendered) == [0, 1]
        assert wire(service, "store austin") == wire(
            self.rebuilt(retailer_tree("Austin")), "store austin"
        )

    def test_a_slot_replaced_by_distinct_generation_is_rendered_anew(self):
        from repro.index.builder import IndexBuilder
        from repro.search.engine import SearchEngine
        from repro.snippet.distinct import DistinctSnippetGenerator
        from repro.snippet.render import render_snippet_text

        # two key-less Texas stores whose base snippets come out identical
        # (tests/snippet/test_distinct.py::clashing_index)
        stores = [
            {
                "state": "Texas",
                "city": "Houston",
                "merchandises": {"clothes": [
                    *[{"category": "jeans", "fitting": "man"}] * 3,
                    {"category": extra, "fitting": "woman"},
                ]},
            }
            for extra in ("scarves", "socks")
        ]
        index = IndexBuilder().build(tree_from_dict("stores", {"store": stores}, name="clashing"))
        results = SearchEngine(index).search("store texas jeans")
        distinct = DistinctSnippetGenerator(index.analyzer)
        batch = distinct.base.generate_all(results, size_bound=6)
        old = [SnippetService._snippet_payload(generated) for generated in batch]
        assert old[0].text.split("\n", 1)[1] == old[1].text.split("\n", 1)[1]  # a clash

        assert distinct._resolve_clashes(batch, 6)
        replaced = batch[1]
        assert replaced.payload is None
        payload = SnippetService._snippet_payload(replaced)
        assert payload is not old[1] and payload.text == render_snippet_text(replaced)
        assert payload.text != old[1].text
        assert SnippetService._snippet_payload(batch[0]) is old[0]


class TestSharedRootStatistics:
    """Every query whose result has a root shares that root's statistics
    (the IList builder's root memo), so an update moves them with whichever
    entry it keeps — never through one query's result."""

    # both rooted at the West Village store; Galleria's <city> becoming
    # "Austin" changes the postings of "austin" only, under another root
    KILLED, KEPT = "store austin", "store outwear"

    def build(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        for query in (self.KILLED, self.KEPT):
            service.run(SearchRequest(query=query, document="doc", size_bound=6))
        return corpus, service

    def snippet(self, corpus, query):
        (generated,) = corpus.system("doc").run_query(query, size_bound=6).snippets
        return generated

    def test_two_queries_share_one_root_and_an_update_keeps_one(self):
        corpus, service = self.build()
        killed, kept = self.snippet(corpus, self.KILLED), self.snippet(corpus, self.KEPT)
        assert killed.result.root_node.pre == kept.result.root_node.pre
        statistics = kept.ilist.statistics
        assert killed.ilist.statistics is statistics and killed.ilist is not kept.ilist
        retired = corpus.system("doc")

        report = corpus.update_document("doc", retailer_tree("Austin"))
        assert report.incremental and report.cache_entries_invalidated >= 1

        live = corpus.system("doc")
        assert live is not retired and live.index.tree is not retired.index.tree
        assert live.run_query(self.KEPT, size_bound=6).from_cache
        assert not live.run_query(self.KILLED, size_bound=6).from_cache
        # the kept entry moved the shared statistics onto the live version
        assert statistics.source is live.index.tree
        assert len(retired.generator.ilist_builder.roots) == 0
        # what still reads the retired version here is this test alone
        assert corpus.live_versions() == {"doc": 2}
        del killed, retired
        assert corpus.live_versions() == {"doc": 1}
        assert service.stats()["live_versions"] == {"doc": 1}
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree("Austin"))
        for query in (self.KEPT, self.KILLED):
            assert wire(service, query) == wire(SnippetService(rebuilt), query), query

    def test_statistics_rebind_only_to_a_tree_of_the_same_shape(self):
        corpus, _service = self.build()
        generated = self.snippet(corpus, self.KEPT)
        statistics = generated.ilist.statistics
        source = statistics.source
        other = retailer_tree("Houston", categories=("suit", "jeans", "skirt"))
        other.refresh()
        assert other.shape is not source.shape
        with pytest.raises(ExtractError, match="another shape"):
            generated.result.rebind(other)
        with pytest.raises(ExtractError, match="another shape"):
            statistics.rebind(other)
        assert statistics.source is source
        statistics.rebind(source)  # the tree it already reads: nothing to do
        assert statistics.source is source


class TestRemoveAndUpsert:
    def test_remove_document_reports(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        report = corpus.remove_document("doc")
        assert report.action == "removed"
        assert "doc" not in corpus

    def test_remove_unknown_raises(self):
        with pytest.raises(ExtractError):
            Corpus().remove_document("ghost")

    def test_apply_update_adds_then_updates(self):
        corpus = Corpus()
        first = corpus.apply_update("doc", retailer_tree("Houston"))
        assert first.action == "added"
        second = corpus.apply_update("doc", retailer_tree("Dallas"))
        assert second.action == "updated" and second.incremental

    def test_service_update_request_round_trip(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        xml = (
            "<retailer><name>Brook Brothers</name>"
            "<store><name>Galleria</name><city>Dallas</city>"
            "<clothes><category>suit</category></clothes>"
            "<clothes><category>jeans</category></clothes></store>"
            "<store><name>West Village</name><city>Austin</city>"
            "<clothes><category>outwear</category></clothes></store></retailer>"
        )
        response = service.handle_dict(
            {"kind": "update", "schema_version": 1, "document": "doc", "xml": xml}
        )
        assert response["kind"] == "update_response"
        assert response["action"] == "updated"
        assert response["incremental"] is True
        removed = service.handle_dict(
            {"kind": "update", "schema_version": 1, "document": "doc", "action": "remove"}
        )
        assert removed["action"] == "removed"
        assert "doc" not in corpus

    def test_service_remove_unknown_is_error_response(self):
        service = SnippetService(Corpus())
        response = service.execute_update(UpdateRequest(document="ghost", action="remove"))
        assert response.kind == "error"


#: name → (operation on a corpus holding retailer_tree() as "doc", kind)
REPORTED_OPERATIONS = {
    "add": (lambda corpus: corpus.apply_update("new", retailer_tree()), "add"),
    "text": (lambda corpus: corpus.apply_update("doc", retailer_tree("Dallas")), "update"),
    "no-change": (lambda corpus: corpus.apply_update("doc", retailer_tree()), "update"),
    "structural": (
        lambda corpus: corpus.apply_update("doc", retailer_tree(categories=("suit",))),
        "replace",
    ),
    "remove": (lambda corpus: corpus.remove_document("doc"), "remove"),
}


class TestReportKind:
    @pytest.mark.parametrize("operation", list(REPORTED_OPERATIONS))
    def test_kind_and_label_edits_spell_the_replay(self, operation):
        apply, kind = REPORTED_OPERATIONS[operation]
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        report = apply(corpus)
        assert report.kind == kind
        assert report.label_edits == tuple(
            (str(edit.label), edit.new_text) for edit in report.text_edits
        )
        if operation == "text":
            assert [text for _, text in report.label_edits] == ["Dallas"]
        else:
            assert report.label_edits == ()


def refuse(missing):
    return StorageError(f"refused: {missing}")


class TestReplayLabelEdits:
    def test_replay_serves_what_the_original_update_served(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        replayed = Corpus()
        replayed.add_tree("doc", retailer_tree("Houston"))
        again = replayed.replay_label_edits("doc", report.label_edits, refuse)
        assert (again.kind, again.label_edits) == ("update", report.label_edits)
        for query in ("store dallas", "store houston"):
            assert wire(SnippetService(replayed), query) == wire(SnippetService(corpus), query)

    def test_a_missing_node_raises_the_callers_error_and_changes_nothing(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        before = wire(SnippetService(corpus), "store houston")
        with pytest.raises(StorageError) as raised:
            corpus.replay_label_edits("doc", (("9.9.9", "nowhere"),), refuse)
        assert str(raised.value) == "refused: missing node 9.9.9 in document 'doc'"
        assert wire(SnippetService(corpus), "store houston") == before

    def test_a_malformed_label_raises_as_it_is_spelled(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        with pytest.raises(DeweyError, match="malformed Dewey label text '1.x'"):
            corpus.replay_label_edits("doc", (("1.x", "y"),), refuse)


class TestJournalRoundTrip:
    def save(self, corpus, tmp_path):
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        return directory

    def test_text_update_journalled_and_replayed(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        directory = self.save(corpus, tmp_path)

        report = corpus.update_document("doc", retailer_tree("Dallas"))
        edits = tuple((str(edit.label), edit.new_text) for edit in report.text_edits)
        mapping = {name: subdir for subdir, name in directory_documents(directory).items()}
        append_journal_record(
            directory, JournalRecord(kind="update", subdir=mapping["doc"], edits=edits)
        )

        reloaded = Corpus.load_dir(directory)
        assert wire(SnippetService(reloaded), "store dallas") == wire(
            SnippetService(corpus), "store dallas"
        )

    def test_remove_and_add_records_replay(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = self.save(corpus, tmp_path)
        from repro.index.storage import save_index

        other = Corpus()
        entry = other.add_tree("second", clone_tree(retailer_tree(), name="second"))
        save_index(entry.system.index, directory / "second")
        append_journal_record(directory, JournalRecord(kind="add", subdir="second", name="second"))
        append_journal_record(directory, JournalRecord(kind="remove", subdir="doc"))

        reloaded = Corpus.load_dir(directory)
        assert reloaded.names() == ["second"]

    def test_save_dir_discards_journal(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = self.save(corpus, tmp_path)
        append_journal_record(directory, JournalRecord(kind="remove", subdir="doc"))
        assert (directory / JOURNAL_FILE).exists()
        corpus.save_dir(directory)
        assert not (directory / JOURNAL_FILE).exists()
        assert Corpus.load_dir(directory).names() == ["doc"]

    def test_journal_reader_round_trips_records(self, tmp_path):
        directory = tmp_path
        (directory / "x").mkdir()
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="x", edits=(("1.0", 'va"l\nue'),)),
        )
        append_journal_record(directory, JournalRecord(kind="replace", subdir="x", snapshot="y"))
        records = read_corpus_journal(directory)
        assert [record.kind for record in records] == ["update", "replace"]
        assert records[0].edits == (("1.0", 'va"l\nue'),)
        assert records[1].snapshot == "y"


class TestHardenedLoadDir:
    def test_truncated_snapshot_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        snapshot = directory / "doc" / "snapshot.bin"
        data = snapshot.read_bytes()
        snapshot.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            Corpus.load_dir(directory)

    def test_journal_referencing_missing_document_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="ghost", edits=(("1.0", "x"),)),
        )
        with pytest.raises(StorageError, match="ghost"):
            Corpus.load_dir(directory)

    def test_journal_referencing_missing_node_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="doc", edits=(("9.9.9", "x"),)),
        )
        with pytest.raises(StorageError) as raised:
            Corpus.load_dir(directory)
        assert str(raised.value) == (
            "update journal references missing node 9.9.9 in document 'doc'"
        )

    def test_journal_spelling_a_malformed_label_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="doc", edits=(("1.x", "x"),)),
        )
        with pytest.raises(StorageError) as raised:
            Corpus.load_dir(directory)
        assert str(raised.value) == (
            "replaying journal record 'update' for directory 'doc' failed: "
            "malformed Dewey label text '1.x'"
        )

    def test_truncated_journal_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        edits = tuple((str(edit.label), edit.new_text) for edit in report.text_edits)
        append_journal_record(
            directory, JournalRecord(kind="update", subdir="doc", edits=edits)
        )
        journal = directory / JOURNAL_FILE
        lines = journal.read_text(encoding="utf-8").splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match="truncated"):
            Corpus.load_dir(directory)

    def saved_pair(self, tmp_path):
        """A saved corpus of ``doc`` and ``other``, plus a spare copy of
        ``doc``'s snapshot in ``spare/`` that backs no document."""
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        corpus.add_tree("other", retailer_tree("Dallas"))
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        shutil.copytree(directory / "doc", directory / "spare")
        return directory

    @pytest.mark.parametrize(
        "record,message",
        [
            (
                JournalRecord(kind="replace", subdir="doc", snapshot="other"),
                "update journal replaces 'doc' with 'other', which already backs "
                "document 'other'",
            ),
            (
                JournalRecord(kind="add", subdir="other", name="third"),
                "update journal adds duplicate document directory 'other'",
            ),
            (
                JournalRecord(kind="add", subdir="spare", name="other"),
                "update journal adds duplicate document 'other'",
            ),
        ],
        ids=["replace-onto-a-live-subdir", "add-onto-a-live-subdir", "add-a-live-name"],
    )
    def test_journal_onto_a_live_document_fails_load_and_bookkeeping(
        self, tmp_path, record, message
    ):
        directory = self.saved_pair(tmp_path)
        append_journal_record(directory, record)
        with pytest.raises(StorageError) as loaded:
            Corpus.load_dir(directory)
        with pytest.raises(StorageError) as mapped:
            directory_documents(directory)
        assert str(loaded.value) == str(mapped.value) == message

    @pytest.mark.parametrize(
        "entries", ["entry doc doc\nentry doc other", "entry doc doc\nentry other doc"]
    )
    def test_a_manifest_naming_a_directory_or_a_name_twice_fails_load_and_bookkeeping(
        self, tmp_path, entries
    ):
        directory = self.saved_pair(tmp_path)
        (directory / "corpus.manifest").write_text(
            f"#extract-corpus v1\n#algorithm slca\n{entries}\n", encoding="utf-8"
        )
        for read in (Corpus.load_dir, directory_documents):
            with pytest.raises(StorageError, match="lists a directory or name twice"):
                read(directory)

    def test_corpus_update_over_a_replace_onto_a_live_subdir_is_an_error_line(self, tmp_path):
        directory = self.saved_pair(tmp_path)
        append_journal_record(
            directory, JournalRecord(kind="replace", subdir="doc", snapshot="other")
        )
        edited = tmp_path / "other.xml"
        edited.write_text(to_xml_string(retailer_tree("Plano")), encoding="utf-8")
        out = io.StringIO()
        code = main(
            ["corpus-update", "--corpus-dir", str(directory), "--file", str(edited)], out=out
        )
        assert code == 1
        assert out.getvalue() == (
            "error: update journal replaces 'doc' with 'other', which already backs "
            "document 'other'\n"
        )


class TestHostileUpdateXml:
    """An update whose XML cannot be parsed is a ``bad_request``: a response,
    never a traceback, and the registered document stays as it was."""

    def update(self, service, xml):
        request = {"kind": "update", "schema_version": 1, "document": "doc", "xml": xml}
        return json.loads(service.handle_json(json.dumps(request)))

    @pytest.mark.parametrize(
        "reference",
        ["&#1114112;", "&#x110000;", "&#99999999999999999999;", "&#xD800;", "&#1F;"],
    )
    def test_bad_character_reference_is_bad_request_and_leaves_the_document(
        self, tmp_path, reference
    ):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        entry = corpus.entry("doc")
        before = wire(service, "store houston")

        response = self.update(
            service, f"<retailer><store><city>Dallas {reference}</city></store></retailer>"
        )

        assert (response["kind"], response["code"]) == ("error", "bad_request")
        assert "line 1, column 31" in response["message"]
        assert corpus.entry("doc") is entry
        assert wire(service, "store houston") == before
        # the surrogate used to be accepted, and the save died encoding it
        corpus.save_dir(tmp_path / "corpus")
        reloaded = SnippetService(Corpus.load_dir(tmp_path / "corpus"))
        assert wire(reloaded, "store houston", use_cache=False) == wire(
            service, "store houston", use_cache=False
        )

    def test_deep_document_gets_a_response_not_a_recursion_error(self):
        from repro.xmltree.parser import parse_xml
        from repro.xmltree.serialize import to_xml_string

        depth = 5000
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)

        response = self.update(service, "<a>" * depth + "needle" + "</a>" * depth)
        assert (response["kind"], response["nodes"]) == ("update_response", depth)

        found = json.loads(
            service.handle_json(
                json.dumps(
                    {"kind": "search", "schema_version": 1, "document": "doc", "query": "needle"}
                )
            )
        )
        assert found["kind"] == "search_response" and len(found["results"]) == 1

        tree = corpus.system("doc").index.tree
        again = parse_xml(to_xml_string(tree, indent="")).tree
        assert [node.level for node in again.nodes_by_pre] == list(range(depth))
        assert again.nodes_by_pre[-1].text == "needle"
