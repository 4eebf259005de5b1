"""Tests for the SnippetService facade (and the deprecated shims over it)."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    BatchRequest,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    SnippetService,
)
from repro.corpus import Corpus
from repro.errors import ExtractError, ProtocolError
from repro.obs.trace import Trace, activate
from repro.xmltree.builder import tree_from_dict


@pytest.fixture()
def corpus(small_retailer_tree):
    corpus = Corpus()
    corpus.add_tree("retailer", small_retailer_tree)
    corpus.add_builtin("figure5-stores", name="stores")
    return corpus


@pytest.fixture()
def service(corpus):
    return SnippetService(corpus)


class TestRun:
    def test_basic_response_shape(self, service):
        response = service.run(SearchRequest(query="store texas", document="stores", size_bound=6))
        assert isinstance(response, SearchResponse)
        assert response.document == "stores"
        assert response.keywords == ("store", "texas")
        assert response.algorithm == "slca"
        assert response.total_results == len(response.results) >= 2
        assert response.next_page is None
        for payload in response.results:
            assert payload.snippet_edges <= 6
            assert payload.text
            assert payload.root_tag == "store"

    def test_unknown_document_raises(self, service):
        with pytest.raises(ExtractError):
            service.run(SearchRequest(query="store", document="nope"))

    def test_execute_wraps_errors(self, service):
        response = service.execute(SearchRequest(query="store", document="nope"))
        assert isinstance(response, ErrorResponse)
        assert response.error == "UnknownDocumentError"
        assert response.code == "unknown_document"
        assert response.request["document"] == "nope"

    def test_invalid_request_is_protocol_error(self, service):
        response = service.execute(SearchRequest(query="store", document="stores", page=0))
        assert isinstance(response, ErrorResponse)
        assert response.error == "ProtocolError"

    def test_limit_caps_results(self, service):
        response = service.run(
            SearchRequest(query="store texas", document="stores", size_bound=6, limit=1)
        )
        assert len(response.results) == 1
        assert response.total_results >= 2  # pre-limit count is preserved

    def test_results_only_request_skips_snippets(self, service):
        response = service.run(
            SearchRequest(query="store texas", document="stores", include_snippets=False)
        )
        assert len(response.results) >= 2
        for payload in response.results:
            assert payload.text is None
            assert payload.snippet_edges is None
            assert payload.result_edges > 0

    def test_meta_only_when_requested(self, service):
        bare = service.run(SearchRequest(query="store texas", document="stores", size_bound=6))
        assert bare.timings == {}
        cold = service.run(
            SearchRequest(
                query="store austin", document="stores", size_bound=6, include_meta=True
            )
        )
        assert {"search", "snippets"} <= set(cold.timings)

    def test_features_phase_only_in_meta_and_trace(self, service):
        trace = Trace()
        with activate(trace):
            cold = service.run(
                SearchRequest(
                    query="store houston", document="stores", size_bound=6, include_meta=True
                )
            )
        # measured inside ilist, the way lookup/lca/ranking sit inside search
        assert 0.0 <= cold.timings["features"] <= cold.timings["ilist"]
        assert "phase:features" in {span.name for span in trace.spans}
        # volatile data: the opt-in meta block only, never the default bytes
        assert "features" in cold.to_dict(include_meta=True)["meta"]["timings"]
        assert "features" not in json.dumps(cold.to_dict())

    def test_warm_meta_reports_no_phase_timings(self, service):
        """``meta.timings`` and the ``phase:*`` spans are the phases *this
        request* executed."""
        snippet_phases = {"snippets", "ilist", "features", "instance_selection"}

        def run_page(page):
            trace = Trace()
            with activate(trace):
                response = service.run(SearchRequest(
                    query="store texas", document="stores", size_bound=6,
                    page=page, page_size=1, include_meta=True,
                ))
            spans = {span.name: span for span in trace.spans}
            assert spans["service:search"].attributes["from_cache"] is response.from_cache
            assert {name[6:] for name in spans if name.startswith("phase:")} == set(response.timings)
            return response

        cold = run_page(1)
        assert cold.from_cache is False
        assert {"search", "lookup", "lca"} | snippet_phases <= set(cold.timings)
        # the ranked list came from the cache; this page's snippet did not
        second = run_page(2)
        assert second.from_cache is True and set(second.timings) == snippet_phases
        # a hit on a generated page did no phase work; stale timings
        # would contradict the hit's near-zero wall clock
        for page in (1, 2):
            warm = run_page(page)
            assert warm.from_cache is True and warm.timings == {}

    def test_seconds_cover_the_pages_generation(self, service):
        response = service.run(SearchRequest(
            query="store texas", document="stores", size_bound=6, page_size=1, include_meta=True
        ))
        assert response.seconds >= response.timings["search"] + response.timings["snippets"]

    def test_results_only_cache_provenance_in_meta(self, service):
        request = SearchRequest(
            query="store texas", document="stores", include_snippets=False, include_meta=True
        )
        assert service.run(request).from_cache is False
        warm = service.run(request)
        assert warm.from_cache is True
        assert warm.timings == {}  # a cache hit skips the engine

    def test_response_pages_the_run_query_outcome(self, service, corpus):
        from repro.snippet.render import render_snippet_text

        response = service.run(
            SearchRequest(query="store texas", document="stores", size_bound=6, use_cache=False)
        )
        outcome = corpus.system("stores").run_query("store texas", size_bound=6, use_cache=False)
        assert [payload.text for payload in response.results] == [
            render_snippet_text(generated) for generated in outcome.snippets
        ]
        assert [(payload.result_id, f"{payload.score:.6f}") for payload in response.results] == [
            (result.result_id, f"{result.score:.6f}") for result in outcome.results
        ]

    def test_results_only_meta_has_engine_timings(self, service):
        response = service.run(
            SearchRequest(
                query="store texas", document="stores",
                include_snippets=False, include_meta=True, use_cache=False,
            )
        )
        assert {"lookup", "lca", "ranking"} <= set(response.timings)

    def test_results_then_snippets_search_once(self, service, monkeypatch):
        # A results-only request caches the outcome it searched for; the
        # same query with snippets generates from it instead of searching
        # again.
        from repro.search.engine import SearchEngine

        searches = []
        search = SearchEngine.search

        def counting(engine, *args, **kwargs):
            searches.append(args)
            return search(engine, *args, **kwargs)

        monkeypatch.setattr(SearchEngine, "search", counting)
        results_only = service.run(SearchRequest(
            query="store texas", document="stores", size_bound=6, include_snippets=False
        ))
        with_snippets = service.run(
            SearchRequest(query="store texas", document="stores", size_bound=6)
        )
        assert len(searches) == 1
        assert with_snippets.from_cache is True
        assert [payload.result_id for payload in with_snippets.results] == [
            payload.result_id for payload in results_only.results
        ]
        assert all(payload.text for payload in with_snippets.results)

    def test_snippets_then_results_only_search_once(self, service, corpus):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)
        service.run(request)
        results_only = service.run(SearchRequest(
            query="store texas", document="stores", size_bound=6, include_snippets=False
        ))
        assert results_only.from_cache is True
        stats = corpus.system("stores").cache.stats_snapshot()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_results_only_cold_meta_has_a_search_phase(self, service):
        # A results-only request runs run_query, whose breakdown measures
        # the whole search as well as the engine's own phases.
        response = service.run(SearchRequest(
            query="store texas", document="stores",
            include_snippets=False, include_meta=True,
        ))
        assert response.from_cache is False
        assert {"search", "lookup", "lca", "ranking"} <= set(response.timings)
        assert "snippets" not in response.timings

    def test_results_only_without_the_cache_stores_and_generates_nothing(
        self, service, corpus
    ):
        service.run(SearchRequest(
            query="store texas", document="stores", include_snippets=False, use_cache=False
        ))
        system = corpus.system("stores")
        assert len(system.cache) == 0
        assert system.generator.ilist_builder.roots.stats.lookups == 0

    def test_results_only_pages_match_the_snippet_pages(self, service):
        def page(number, include_snippets):
            return service.run(SearchRequest(
                query="store", document="stores", size_bound=6, page_size=1,
                page=number, include_snippets=include_snippets,
            ))

        for number in (1, 2, 3):
            bare, full = page(number, False), page(number, True)
            assert (bare.total_results, bare.next_page) == (full.total_results, full.next_page)
            assert [(p.result_id, p.root, p.score) for p in bare.results] == [
                (p.result_id, p.root, p.score) for p in full.results
            ]

    def test_results_only_request_leaves_engine_state_untouched(self, service, corpus):
        service.run(
            SearchRequest(query="store texas", document="stores", include_snippets=False)
        )
        assert corpus.system("stores").engine.timings.phases == {}


class TestPagination:
    def test_page_walk_covers_everything_once(self, service):
        full = service.run(SearchRequest(query="store", document="stores", size_bound=6))
        request = SearchRequest(query="store", document="stores", size_bound=6, page_size=2)
        seen: list[int] = []
        pages = 0
        while True:
            response = service.run(request)
            assert len(response.results) <= 2
            seen.extend(payload.result_id for payload in response.results)
            pages += 1
            if response.next_page is None:
                break
            request = request.with_page(response.next_page)
        assert seen == [payload.result_id for payload in full.results]
        assert pages == (len(full.results) + 1) // 2

    def test_all_pages_share_one_cached_outcome(self, service, corpus):
        request = SearchRequest(query="store", document="stores", size_bound=6, page_size=1)
        first = service.run(request)
        assert first.from_cache is False
        second = service.run(request.with_page(first.next_page))
        # page 2 is served from the same cached outcome, not recomputed
        assert second.from_cache is True

    def test_page_past_the_end_is_empty(self, service, corpus):
        response = service.run(
            SearchRequest(query="store texas", document="stores", size_bound=6, page=99, page_size=5)
        )
        assert response.results == ()
        assert response.next_page is None
        # … and generated nothing
        assert corpus.system("stores").generator.ilist_builder.roots.stats.lookups == 0

    def test_use_cache_false_generates_only_the_requested_page(
        self, service, corpus, monkeypatch
    ):
        request = SearchRequest(
            query="store", document="stores", size_bound=6, page=2, page_size=1, use_cache=False
        )
        cached_walk = [
            service.run(SearchRequest(query="store", document="stores", size_bound=6, page_size=1, page=page))
            for page in (1, 2)
        ]
        generator = corpus.system("stores").generator
        generated = []
        generate = generator.generate
        monkeypatch.setattr(
            generator, "generate", lambda *args, **kwargs: generated.append(1) or generate(*args, **kwargs)
        )
        before = generator.ilist_builder.roots.stats_snapshot()
        response = service.run(request)
        assert response.from_cache is False
        assert response.results == cached_walk[1].results
        assert len(generated) == 1
        # ... from scratch: the root memo is not even looked at
        assert generator.ilist_builder.roots.stats_snapshot().lookups == before.lookups

    def test_page_size_none_is_one_page(self, service):
        response = service.run(SearchRequest(query="store texas", document="stores", size_bound=6))
        assert response.page == 1
        assert response.page_size is None
        assert response.next_page is None


class TestNextPageBoundaries:
    """ISSUE 3 satellite: no token may ever point at an empty trailing page."""

    def walk(self, service, request: SearchRequest) -> list[SearchResponse]:
        responses = []
        while True:
            response = service.run(request)
            responses.append(response)
            if response.next_page is None:
                break
            request = request.with_page(response.next_page)
        return responses

    def total(self, service, query: str) -> int:
        return service.run(
            SearchRequest(query=query, document="stores", size_bound=6)
        ).total_results

    def test_exact_multiple_emits_no_trailing_token(self, service):
        count = self.total(service, "store")
        assert count >= 2
        divisor = next(size for size in (2, 3, count) if count % size == 0)
        responses = self.walk(
            service,
            SearchRequest(query="store", document="stores", size_bound=6, page_size=divisor),
        )
        # every page non-empty, count/divisor pages, last token absent
        assert len(responses) == count // divisor
        assert all(response.results for response in responses)
        assert responses[-1].next_page is None

    def test_one_over_gets_a_final_short_page(self, service):
        count = self.total(service, "store")
        size = count - 1
        if size < 1:
            pytest.skip("needs at least two results")
        responses = self.walk(
            service,
            SearchRequest(query="store", document="stores", size_bound=6, page_size=size),
        )
        assert len(responses) == 2
        assert len(responses[-1].results) == 1
        assert responses[-1].next_page is None

    def test_empty_result_set_has_no_token(self, service):
        response = service.run(
            SearchRequest(
                query="zzz-no-such-keyword", document="stores", size_bound=6, page_size=3
            )
        )
        assert response.total_results == 0
        assert response.results == ()
        assert response.next_page is None

    def test_results_only_requests_agree(self, service):
        count = self.total(service, "store")
        divisor = next(size for size in (2, 3, count) if count % size == 0)
        responses = self.walk(
            service,
            SearchRequest(
                query="store",
                document="stores",
                size_bound=6,
                page_size=divisor,
                include_snippets=False,
            ),
        )
        assert len(responses) == count // divisor
        assert responses[-1].next_page is None


class TestPagingValidation:
    """Negative pages become ErrorResponses, never wrapped garbage pages."""

    @pytest.mark.parametrize("bad", [{"page": 0}, {"page": -1}, {"page_size": -2}, {"page_size": 0}])
    def test_bad_paging_is_error_response(self, service, bad):
        request = SearchRequest(query="store texas", document="stores", size_bound=6, **bad)
        response = service.execute(request)
        assert isinstance(response, ErrorResponse)
        assert response.error == "ProtocolError"

    def test_bad_paging_over_the_wire(self, service):
        payload = {
            "kind": "search",
            "schema_version": 1,
            "query": "store texas",
            "document": "stores",
            "page": -1,
            "page_size": 2,
        }
        wire = service.handle_dict(payload)
        assert wire["kind"] == "error"
        assert wire["error"] == "ProtocolError"

    def test_internal_page_slice_guard(self, service):
        # Even bypassing request validation, the paging utility refuses to
        # wrap around (PagingError is an ExtractError -> ErrorResponse).
        from repro.errors import PagingError
        from repro.utils.paging import page_slice

        outcome = service.run(
            SearchRequest(query="store texas", document="stores", size_bound=6)
        )
        with pytest.raises(PagingError):
            page_slice(list(outcome.results), page=-1, page_size=1)


class TestBatch:
    def test_batch_covers_queries_and_documents(self, service):
        response = service.run_batch(
            BatchRequest(queries=("store texas", "clothes casual"), size_bound=6)
        )
        assert response.documents == ("retailer", "stores")
        assert len(response.entries) == 2
        for entry in response.entries:
            assert [r.document for r in entry.responses] == ["retailer", "stores"]

    def test_batch_document_subset_in_order(self, service):
        response = service.run_batch(
            BatchRequest(queries=("store texas",), documents=("stores",))
        )
        assert response.documents == ("stores",)
        assert [r.document for r in response.entries[0].responses] == ["stores"]

    def test_batch_unknown_document_errors(self, service):
        result = service.execute_batch(
            BatchRequest(queries=("store",), documents=("ghost",))
        )
        assert isinstance(result, ErrorResponse)

    def test_warm_batch_is_served_from_cache(self, service):
        batch = BatchRequest(queries=("store texas",))
        service.run_batch(batch)
        warm = service.run_batch(batch)
        assert all(response.from_cache for response in warm.entries[0].responses)

    def test_batch_matches_single_requests(self, service):
        batch = service.run_batch(BatchRequest(queries=("store texas",), size_bound=6))
        single = service.run(
            SearchRequest(query="store texas", document="stores", size_bound=6)
        )
        batch_response = batch.entries[0].responses[1]  # stores
        assert batch_response.to_dict() == single.to_dict()


class TestJsonEndpoints:
    def test_handle_dict_search(self, service):
        payload = SearchRequest(query="store texas", document="stores", size_bound=6).to_dict()
        response = service.handle_dict(payload)
        assert response["kind"] == "search_response"
        assert response["total_results"] >= 2
        assert "meta" not in response

    def test_handle_dict_batch(self, service):
        payload = BatchRequest(queries=("store texas",), size_bound=6).to_dict()
        response = service.handle_dict(payload)
        assert response["kind"] == "batch_response"
        assert response["documents"] == ["retailer", "stores"]

    def test_handle_dict_error_never_raises(self, service):
        response = service.handle_dict({"kind": "search", "schema_version": 1, "query": "store"})
        assert response["kind"] == "error"
        assert response["error"] == "ProtocolError"

    def test_handle_dict_meta_opt_in(self, service):
        payload = SearchRequest(
            query="store texas", document="stores", size_bound=6, include_meta=True
        ).to_dict()
        response = service.handle_dict(payload)
        assert "timings" in response["meta"]

    def test_handle_json_round_trip(self, service):
        text = json.dumps(SearchRequest(query="store texas", document="stores").to_dict())
        response = json.loads(service.handle_json(text))
        assert response["kind"] == "search_response"

    def test_handle_json_malformed_input(self, service):
        response = json.loads(service.handle_json("{not json"))
        assert response["kind"] == "error"
        assert response["error"] == "ProtocolError"

    def test_wrong_schema_version_is_error_response(self, service):
        payload = SearchRequest(query="store", document="stores").to_dict()
        payload["schema_version"] = 99
        response = service.handle_dict(payload)
        assert response["kind"] == "error"


def _cluster_facade(corpus_factory):
    from repro.cluster import ClusterService

    return ClusterService.from_corpus(corpus_factory(), shards=2)


class TestHandleJsonNeverRaises:
    """Satellite regression: every malformed payload — bad JSON, scalars,
    arrays, unhashable ``kind`` values — must come back as a structured
    ``bad_request`` error response, never raise, on *both* facades."""

    MALFORMED = (
        "not json at all",
        "{truncated",
        "[1, 2, 3]",            # JSON, but not an object
        '"scalar"',
        "null",
        "42",
        '{"kind": ["search"]}',  # unhashable kind used to raise TypeError
        '{"kind": {"a": 1}}',
        '{"kind": null}',
        '{"kind": "nope"}',
        "{}",
    )

    @pytest.fixture(params=["service", "cluster"])
    def facade(self, request, small_retailer_tree):
        def fresh():
            corpus = Corpus()
            corpus.add_tree("retailer", small_retailer_tree)
            corpus.add_builtin("figure5-stores", name="stores")
            return corpus

        if request.param == "service":
            return SnippetService(fresh())
        return _cluster_facade(fresh)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_payload_is_bad_request(self, facade, text):
        response = json.loads(facade.handle_json(text))
        assert response["kind"] == "error"
        assert response["error"] == "ProtocolError"
        assert response["code"] == "bad_request"

    def test_handle_dict_non_object_payload(self, facade):
        for payload in ([1, 2], "scalar", None, 42):
            response = facade.handle_dict(payload)
            assert response["kind"] == "error"
            assert response["code"] == "bad_request"
            assert response["request"] is None  # nothing sane to echo

    def test_unknown_document_code_on_the_wire(self, facade):
        payload = SearchRequest(query="store", document="ghost").to_dict()
        response = facade.handle_dict(payload)
        assert response["kind"] == "error"
        assert response["error"] == "UnknownDocumentError"
        assert response["code"] == "unknown_document"

    def test_error_bytes_identical_across_facades(self, small_retailer_tree):
        def fresh():
            corpus = Corpus()
            corpus.add_tree("retailer", small_retailer_tree)
            return corpus

        single = SnippetService(fresh())
        cluster = _cluster_facade(fresh)
        for text in (*self.MALFORMED, json.dumps(SearchRequest(query="q", document="ghost").to_dict())):
            assert single.handle_json(text) == cluster.handle_json(text)


class TestProtocolStrictness:
    def test_protocol_surface_stays_strict(self, service):
        response = service.execute(
            SearchRequest(query="store texas", document="stores", size_bound=0)
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "ProtocolError"

    def test_protocol_rejects_stringly_typed_flags(self, service):
        payload = SearchRequest(query="store texas", document="stores").to_dict()
        payload["include_snippets"] = "false"  # truthy string would invert intent
        response = service.handle_dict(payload)
        assert response["kind"] == "error"
        assert "include_snippets" in response["message"]


class TestStaleCacheRegression:
    """Satellite: a removed-then-re-added document must never serve stale state."""

    def _documents(self):
        old = tree_from_dict(
            "shop", {"store": [{"name": "Alpha", "state": "Texas"}]}, name="doc"
        )
        new = tree_from_dict(
            "shop",
            {"store": [{"name": "Beta", "state": "Texas"}, {"name": "Gamma", "state": "Texas"}]},
            name="doc",
        )
        return old, new

    def test_remove_then_re_add_serves_fresh_results(self):
        old, new = self._documents()
        corpus = Corpus()
        service = SnippetService(corpus)
        corpus.add_tree("doc", old)
        request = SearchRequest(query="store texas", document="doc", size_bound=6)
        before = service.run(request)
        assert before.total_results == 1
        assert "Alpha" in before.results[0].text

        corpus.remove_document("doc")
        corpus.add_tree("doc", new)
        after = service.run(request)
        assert after.from_cache is False
        assert after.total_results == 2
        assert "Beta" in after.results[0].text

    def test_replace_true_batch_sees_the_new_postings(self):
        old, new = self._documents()
        corpus = Corpus()
        service = SnippetService(corpus)
        corpus.add_tree("doc", old)
        batch = BatchRequest(queries=("store texas",), size_bound=6)
        assert service.run_batch(batch).entries[0].total_results == 1

        corpus.add_tree("doc", new, replace=True)
        # a fresh batch must see the new document's two stores
        assert service.run_batch(batch).entries[0].total_results == 2

    def test_replace_true_lookups_read_the_new_index(self):
        old, new = self._documents()
        corpus = Corpus()
        corpus.add_tree("doc", old)
        stale_postings = corpus.system("doc").index.keyword_matches("store")
        corpus.add_tree("doc", new, replace=True)
        fresh_postings = corpus.system("doc").index.keyword_matches("store")
        assert len(fresh_postings) != len(stale_postings)


class TestObservability:
    def test_cache_stats_shape(self, service):
        service.run(SearchRequest(query="store texas", document="stores", size_bound=6))
        stats = service.cache_stats()
        assert set(stats) == {"retailer", "stores"}
        assert set(stats["stores"]) == {"query", "roots"}
        counters = {"hits", "misses", "evictions", "invalidations", "hit_rate"}
        for cache in ("query", "roots"):
            assert set(stats["stores"][cache]) == counters, cache
            # the one cold evaluation above
            assert stats["stores"][cache]["misses"] >= 1, cache

    def test_cache_stats_survives_concurrent_removal(self, service, corpus):
        import threading

        stop = threading.Event()
        errors: list[BaseException] = []

        def poll() -> None:
            while not stop.is_set():
                try:
                    service.cache_stats()
                except BaseException as error:  # noqa: BLE001 - recording any crash
                    errors.append(error)
                    return

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            for round_number in range(20):
                corpus.add_xml("transient", "<d><item><name>x</name></item></d>", replace=True)
                corpus.remove_document("transient")
        finally:
            stop.set()
            poller.join()
        assert errors == []

    def test_repr(self, service):
        assert repr(service) == "<SnippetService documents=2>"

    def test_capabilities_name_no_executor(self, service):
        # a batch runs in the calling thread: there is no executor to name
        caps = service.capabilities()
        assert set(caps) == {"backend", "kinds", "documents"}
        assert (caps["backend"], caps["documents"]) == ("snippet-service", 2)

    def test_run_batch_runs_in_the_calling_thread_in_query_order(
        self, service, monkeypatch
    ):
        import threading

        seen = []
        run_on_entry = SnippetService._run_on_entry

        def recording(self, request, entry, parsed):
            seen.append((threading.current_thread(), request.query, request.document))
            return run_on_entry(self, request, entry, parsed)

        monkeypatch.setattr(SnippetService, "_run_on_entry", recording)
        queries = ("store texas", "clothes casual", "store texas")
        response = service.run_batch(
            BatchRequest(queries=queries, documents=("stores", "retailer"))
        )
        assert [entry.query for entry in response.entries] == list(queries)
        assert {thread for thread, _query, _document in seen} == {threading.current_thread()}
        assert [(query, document) for _thread, query, document in seen] == [
            (query, document) for query in queries for document in ("stores", "retailer")
        ]
