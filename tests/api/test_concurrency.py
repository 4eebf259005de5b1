"""Concurrent serving tests (ISSUE 2 satellite).

Eight threads pushing identical/overlapping requests through the
``ConcurrentExecutor`` must produce responses **byte-identical** to the
serial path, and the locked caches must report coherent statistics.
"""

from __future__ import annotations

import json
import threading
import time

from repro.api import (
    BatchRequest,
    ConcurrentExecutor,
    SearchRequest,
    SerialExecutor,
    SnippetService,
)
from repro.corpus import Corpus
from repro.utils.cache import LRUCache

THREADS = 8

QUERIES = [
    "store texas",
    "clothes casual",
    "store austin",
    "suit formal",
]


def fresh_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return corpus


def wire_bytes(response) -> str:
    """The canonical wire form (no volatile meta), as sorted JSON bytes."""
    return json.dumps(response.to_dict(), sort_keys=True)


class TestIdenticalConcurrentRequests:
    def test_eight_threads_byte_identical_to_serial(self):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)

        # Reference: the serial path on a pristine corpus.
        serial_service = SnippetService(fresh_corpus(), executor=SerialExecutor())
        reference = wire_bytes(serial_service.run(request))

        # Eight threads, same request, pristine corpus: every thread races
        # through parsing, posting lookups, caching and snippet generation.
        with SnippetService(
            fresh_corpus(), executor=ConcurrentExecutor(max_workers=THREADS)
        ) as service:
            responses = service.executor.map(service.run, [request] * THREADS)

        assert len(responses) == THREADS
        for response in responses:
            assert wire_bytes(response) == reference

    def test_eight_threads_coherent_cache_stats(self):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)
        with SnippetService(
            fresh_corpus(), executor=ConcurrentExecutor(max_workers=THREADS)
        ) as service:
            service.executor.map(service.run, [request] * THREADS)
            stats = service.cache_stats()["stores"]["query"]

        # Every thread either hit or missed — no lookup may be lost to a
        # race — and at least the very first evaluation was a miss.
        assert stats["hits"] + stats["misses"] == THREADS
        assert 1 <= stats["misses"] <= THREADS
        assert stats["evictions"] == 0

    def test_eight_threads_raw_threading_on_one_service(self):
        """Belt and braces: plain ``threading.Thread`` callers (no executor)
        against one shared service must also match the serial path."""
        request = SearchRequest(query="clothes casual", document="retail", size_bound=6)
        serial_service = SnippetService(fresh_corpus())
        reference = wire_bytes(serial_service.run(request))

        service = SnippetService(fresh_corpus())
        results: list[str] = [""] * THREADS
        barrier = threading.Barrier(THREADS)

        def worker(slot: int) -> None:
            barrier.wait()  # maximise overlap
            results[slot] = wire_bytes(service.run(request))

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(result == reference for result in results)


class TestOverlappingConcurrentRequests:
    def test_mixed_workload_matches_serial(self):
        """Overlapping (not only identical) requests: many queries times
        many documents, shuffled across 8 workers."""
        requests = [
            SearchRequest(query=query, document=document, size_bound=6, page_size=2)
            for query in QUERIES
            for document in ("stores", "retail")
        ] * 2  # repeats exercise the warm path under contention

        serial_service = SnippetService(fresh_corpus())
        reference = [wire_bytes(serial_service.run(request)) for request in requests]

        with SnippetService(
            fresh_corpus(), executor=ConcurrentExecutor(max_workers=THREADS)
        ) as service:
            concurrent = [wire_bytes(r) for r in service.executor.map(service.run, requests)]

        assert concurrent == reference

    def test_concurrent_batch_matches_serial_batch(self):
        batch = BatchRequest(queries=tuple(QUERIES), size_bound=6)

        serial = SnippetService(fresh_corpus()).run_batch(batch)
        with SnippetService(
            fresh_corpus(), executor=ConcurrentExecutor(max_workers=THREADS)
        ) as service:
            concurrent = service.run_batch(batch)

        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            concurrent.to_dict(), sort_keys=True
        )

    def test_concurrent_snippet_cache_stats_are_coherent(self):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)
        with SnippetService(
            fresh_corpus(), executor=ConcurrentExecutor(max_workers=THREADS)
        ) as service:
            service.executor.map(service.run, [request] * THREADS)
            snippet_stats = service.cache_stats()["stores"]["snippet"]
        # Lookups happen only on cold evaluations; hits+misses must equal
        # the number of generate() calls that reached the cache, with no
        # counter lost to a race (every snippet lookup is accounted for).
        assert snippet_stats["hits"] + snippet_stats["misses"] >= snippet_stats["misses"] > 0


class TestConcurrentPagesOfOneColdQuery:
    """The page is the unit of snippet work, and a batch fills its slots
    under its own lock: threads asking for the pages of one cold query
    generate every snippet exactly once between them."""

    PAGE_SIZE = 4

    def page_request(self, page: int) -> SearchRequest:
        return SearchRequest(
            query="suit formal", document="retail", size_bound=6,
            page=page, page_size=self.PAGE_SIZE,
        )

    def test_every_result_is_generated_exactly_once(self):
        import sys

        # Reference: one thread, every snippet generated before any page is cut.
        eager_corpus = fresh_corpus()
        outcome = eager_corpus.system("retail").run_query("suit formal", size_bound=6)
        total = len(outcome.snippets.snippets)
        pages = -(-total // self.PAGE_SIZE)
        assert pages == THREADS // 2  # two threads a page
        eager = SnippetService(eager_corpus)
        reference = [wire_bytes(eager.run(self.page_request(page))) for page in range(1, pages + 1)]

        # Eight threads over pages 1…k of the same cold query: several per
        # page, and all of them racing the one search that fills the cache.
        corpus = fresh_corpus()
        service = SnippetService(corpus)
        wanted = [1 + slot % pages for slot in range(THREADS)]
        got: list[str] = [""] * len(wanted)
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(wanted))

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                got[slot] = wire_bytes(service.run(self.page_request(wanted[slot])))
            except BaseException as exc:  # noqa: BLE001 - surfaced in the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the fills
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(wanted))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert errors == [] and not any(thread.is_alive() for thread in threads)
        assert got == [reference[page - 1] for page in wanted]
        system = corpus.system("retail")
        stats = system.generator.cache.stats_snapshot()
        # one snippet-cache miss per generated snippet, none looked up twice
        assert (stats.misses, stats.hits) == (total, 0)
        cached = system.run_query("suit formal", size_bound=6)
        assert cached.from_cache and cached.snippets.generated == total


class TestConcurrentFirstSnippetsOfOneColdDocument:
    """A document's feature table is built by the first snippet anybody
    asks for: eight threads asking at once — different queries, so no batch
    lock serialises them — wait for one build and share it."""

    QUERIES = QUERIES + ["store houston", "clothes man", "outwear woman", "retailer apparel"]

    def test_eight_threads_build_one_table(self, monkeypatch):
        import sys

        from repro.classify.analyzer import DataAnalyzer

        assert len(self.QUERIES) == THREADS
        requests = [
            SearchRequest(query=query, document="retail", size_bound=6) for query in self.QUERIES
        ]
        serial = SnippetService(fresh_corpus())
        reference = [wire_bytes(serial.run(request)) for request in requests]

        builds: list[int] = []
        build = DataAnalyzer._build_feature_table

        def counted_build(analyzer):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # long enough for the other seven to arrive
            return build(analyzer)

        monkeypatch.setattr(DataAnalyzer, "_build_feature_table", counted_build)
        corpus = fresh_corpus()
        analyzer = corpus.system("retail").index.analyzer
        assert analyzer._features is None  # registering a document builds no table
        service = SnippetService(corpus)
        got: list[str] = [""] * THREADS
        errors: list[BaseException] = []
        barrier = threading.Barrier(THREADS)

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                got[slot] = wire_bytes(service.run(requests[slot]))
            except BaseException as exc:  # noqa: BLE001 - surfaced in the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the build
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert errors == [] and not any(thread.is_alive() for thread in threads)
        assert got == reference
        assert len(builds) == 1
        assert analyzer._features is not None


class TestRegistrationUnderServing:
    def test_replace_leaves_no_unregistered_window(self):
        """Requests racing a replace must always find the document — the
        swap is atomic, never a delete-then-insert window."""
        from repro.xmltree.builder import tree_from_dict

        corpus = Corpus()
        corpus.add_tree(
            "doc", tree_from_dict("shop", {"store": [{"name": "A", "state": "Texas"}]}, name="doc")
        )
        service = SnippetService(corpus)
        request = SearchRequest(query="store texas", document="doc", size_bound=6)
        errors: list[object] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                response = service.execute(request)
                if response.kind == "error":
                    errors.append(response)
                    return

        def replacer() -> None:
            for round_number in range(25):
                corpus.add_tree(
                    "doc",
                    tree_from_dict(
                        "shop",
                        {"store": [{"name": f"S{round_number}", "state": "Texas"}]},
                        name="doc",
                    ),
                    replace=True,
                )
            stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=replacer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestIncrementalUpdateUnderServing:
    def make_tree(self, city: str):
        from repro.xmltree.builder import tree_from_dict

        return tree_from_dict(
            "shop",
            {
                "store": [
                    {"name": "Galleria", "state": "Texas", "city": city},
                    {"name": "Downtown", "state": "Oregon", "city": "Portland"},
                ]
            },
            name="doc",
        )

    def test_readers_see_old_or_new_state_never_a_mix(self):
        """8 reader threads racing incremental updates must only ever see a
        response byte-identical to one of the versioned reference
        responses — the swap is atomic and copy-on-write."""
        corpus = Corpus()
        corpus.add_tree("doc", self.make_tree("Houston"))
        service = SnippetService(corpus)
        request = SearchRequest(query="store texas", document="doc", size_bound=6)

        cities = [f"City{round_number}" for round_number in range(20)]
        references = set()
        reference_corpus = Corpus()
        reference_corpus.add_tree("doc", self.make_tree("Houston"))
        references.add(wire_bytes(SnippetService(reference_corpus).run(request)))
        for city in cities:
            versioned = Corpus()
            versioned.add_tree("doc", self.make_tree(city))
            references.add(wire_bytes(SnippetService(versioned).run(request)))

        seen: list[str] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    seen.append(wire_bytes(service.run(request)))
            except BaseException as exc:  # noqa: BLE001 - surfaced in the assert
                errors.append(exc)

        def updater() -> None:
            try:
                for city in cities:
                    report = corpus.update_document("doc", self.make_tree(city))
                    assert report.incremental, report
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(THREADS - 1)]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert seen, "readers never completed a request"
        stray = [response for response in seen if response not in references]
        assert stray == [], f"{len(stray)} responses matched no document version"

    def test_concurrent_cache_precision_after_update(self):
        """Under 8-thread serving, an update must invalidate exactly the
        affected document's affected entries: the untouched document keeps
        hitting, the unaffected query on the updated document keeps
        hitting, and the affected query misses (ISSUE 3 satellite)."""
        corpus = Corpus()
        corpus.add_tree("doc", self.make_tree("Houston"))
        corpus.add_tree("other", self.make_tree("Houston"))
        affected = SearchRequest(query="city houston", document="doc", size_bound=6)
        unaffected = SearchRequest(query="store oregon", document="doc", size_bound=6)
        untouched = SearchRequest(query="city houston", document="other", size_bound=6)
        requests = [affected, unaffected, untouched] * 4

        with SnippetService(
            corpus, executor=ConcurrentExecutor(max_workers=THREADS)
        ) as service:
            service.executor.map(service.run, requests)  # warm every cache under contention
            report = corpus.update_document("doc", self.make_tree("Dallas"))
            assert report.incremental
            assert report.cache_entries_kept >= 1

            doc_before = corpus.system("doc").cache.stats_snapshot()
            other_before = corpus.system("other").cache.stats_snapshot()
            responses = service.executor.map(service.run, requests)
            doc_after = corpus.system("doc").cache.stats_snapshot()
            other_after = corpus.system("other").cache.stats_snapshot()

        assert all(response.kind == "search_response" for response in responses)
        # the untouched document served every repeat from cache
        assert other_after.hits - other_before.hits == requests.count(untouched)
        assert other_after.misses == other_before.misses
        # only the affected query's re-evaluations may miss (identical
        # requests racing before the first one repopulates the entry); the
        # unaffected query keeps hitting from the adopted cache
        doc_lookups = len(requests) - requests.count(untouched)
        miss_delta = doc_after.misses - doc_before.misses
        assert 1 <= miss_delta <= requests.count(affected)
        assert doc_after.hits - doc_before.hits == doc_lookups - miss_delta


class TestLRUCacheUnderContention:
    def test_hammered_cache_keeps_coherent_counters(self):
        cache = LRUCache(maxsize=32)
        operations_per_thread = 500
        barrier = threading.Barrier(THREADS)

        def worker(seed: int) -> None:
            barrier.wait()
            for step in range(operations_per_thread):
                key = (seed * step) % 48  # force hits, misses and evictions
                if cache.get(key) is None:
                    cache.put(key, key)

        threads = [threading.Thread(target=worker, args=(seed + 1,)) for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats_snapshot()
        assert stats.hits + stats.misses == THREADS * operations_per_thread
        assert len(cache) <= 32
