"""Concurrent serving tests (ISSUE 2 satellite).

Eight threads pushing identical/overlapping requests into one shared
``SnippetService`` (from a standalone ``ConcurrentExecutor`` or raw
threads) must produce responses **byte-identical** to the serial path,
and the locked caches must report coherent statistics.
"""

from __future__ import annotations

import json
import threading
import time

from repro.api import (
    BatchRequest,
    ConcurrentExecutor,
    SearchRequest,
    SnippetService,
)
from repro.corpus import Corpus
from repro.snippet.ilist import ItemKind
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


def pooled(fn, items) -> list:
    """``fn`` over ``items`` from a fresh pool of :data:`THREADS` workers."""
    with ConcurrentExecutor(max_workers=THREADS) as pool:
        return pool.map(fn, list(items))


def wire_bytes(response) -> str:
    """The canonical wire form (no volatile meta), as sorted JSON bytes."""
    return json.dumps(response.to_dict(), sort_keys=True)


class TestIdenticalConcurrentRequests:
    def test_eight_threads_byte_identical_to_serial(self):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)

        # Reference: the serial path on a pristine corpus.
        serial_service = SnippetService(fresh_corpus())
        reference = wire_bytes(serial_service.run(request))

        # Eight threads, same request, pristine corpus: every thread races
        # through parsing, posting lookups, caching and snippet generation.
        service = SnippetService(fresh_corpus())
        responses = pooled(service.run, [request] * THREADS)

        assert len(responses) == THREADS
        for response in responses:
            assert wire_bytes(response) == reference

    def test_eight_threads_coherent_cache_stats(self):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)
        service = SnippetService(fresh_corpus())
        pooled(service.run, [request] * THREADS)
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

        service = SnippetService(fresh_corpus())
        concurrent = [wire_bytes(r) for r in pooled(service.run, requests)]

        assert concurrent == reference

    def test_concurrent_batch_matches_serial_batch(self):
        batch = BatchRequest(queries=tuple(QUERIES), size_bound=6)

        serial = SnippetService(fresh_corpus()).run_batch(batch)
        service = SnippetService(fresh_corpus())
        concurrent = pooled(service.run_batch, [batch] * THREADS)

        reference = json.dumps(serial.to_dict(), sort_keys=True)
        for response in concurrent:
            assert json.dumps(response.to_dict(), sort_keys=True) == reference

    def test_concurrent_root_memo_stats_are_coherent(self):
        request = SearchRequest(query="store texas", document="stores", size_bound=6)
        service = SnippetService(fresh_corpus())
        responses = pooled(service.run, [request] * THREADS)
        root_stats = service.cache_stats()["stores"]["roots"]
        # The batch of the one cached outcome generates each snippet once,
        # and each generation looks its root up once: with no counter lost
        # to a race, the memo saw one miss per result and no hit.
        assert (root_stats["misses"], root_stats["hits"]) == (len(responses[0].results), 0)


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
        stats = system.generator.ilist_builder.roots.stats_snapshot()
        # one root-memo miss per generated snippet, none looked up twice
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


class TestConcurrentQueriesSharingRoots:
    """A root's statistics are computed once per document version and kept
    in the IList builder's root memo: eight threads running different
    queries whose results are the same stores, on a cold document, converge
    on one memo entry per store."""

    QUERIES = [
        "store texas", "store houston", "store austin", "store casual",
        "store formal", "store suit", "store jeans", "store woman",
    ]

    def test_eight_threads_count_each_root_about_once(self, monkeypatch):
        import sys
        from collections import Counter

        from repro.snippet import ilist as ilist_module

        assert len(self.QUERIES) == THREADS
        requests = [
            SearchRequest(query=query, document="retail", size_bound=6) for query in self.QUERIES
        ]
        serial_corpus = fresh_corpus()
        serial = SnippetService(serial_corpus)
        reference = [wire_bytes(serial.run(request)) for request in requests]
        # which queries' results have each root
        askers = Counter(
            result.root_node.pre
            for query in self.QUERIES
            for result in serial_corpus.system("retail").run_query(query, size_bound=6).results
        )
        assert min(askers.values()) >= THREADS // 2  # every store is in half the results or more

        counted: list[int] = []
        extract = ilist_module.extract_features

        def counted_extract(analyzer, result):
            counted.append(result.root_node.pre)
            return extract(analyzer, result)

        monkeypatch.setattr(ilist_module, "extract_features", counted_extract)
        corpus = fresh_corpus()
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
        sys.setswitchinterval(1e-5)  # switch threads inside the builds
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
        # once per root, plus at most one run by each other thread racing it
        runs = Counter(counted)
        assert set(runs) == set(askers)
        assert all(1 <= runs[pre] <= askers[pre] for pre in runs)
        # ... and every snippet reads the one entry the memo kept
        system = corpus.system("retail")
        memo = system.generator.ilist_builder.roots
        assert len(memo) == len(askers)
        for query in self.QUERIES:
            for generated in system.run_query(query, size_bound=6).snippets:
                pre = generated.result.root_node.pre
                part = memo.get(pre)
                assert generated.ilist.statistics is part.statistics
                # ... and the key items the memo kept for its return entity
                kept = part.key_items[tuple(generated.ilist.return_entity_decision.return_entities)]
                shown = generated.ilist.items_of_kind(ItemKind.RESULT_KEY)
                assert shown and all(any(item is key for key in kept) for item in shown)


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

    def test_paging_a_kept_outcome_while_updates_land(self):
        """Threads page through an outcome whose snippets are only partly
        generated while another applies text-only updates that all keep
        it: the kept outcome is rebound to each new version in turn, and
        every page is byte-identical to that page of a from-scratch rebuild
        of the version it was served from."""
        import random
        import re
        import sys

        from repro.api import UpdateRequest
        from repro.datasets import RetailConfig, generate_retail_document
        from repro.datasets.base import US_CITIES
        from repro.xmltree.serialize import to_xml_string

        # one result per <clothes>; a <city> edit lies outside all of them
        # and never touches the postings of "clothes"
        query = "clothes"
        base = to_xml_string(generate_retail_document(
            RetailConfig(retailers=2, stores_per_retailer=3, clothes_per_store=4), name="doc"
        ))
        rng = random.Random(5)
        versions = [base]
        for _ in range(12):
            match = rng.choice(list(re.finditer(r"<city>([^<]*)</city>", versions[-1])))
            city = rng.choice([city for city in US_CITIES if city != match.group(1)])
            versions.append(f"{versions[-1][:match.start(1)]}{city}{versions[-1][match.end(1):]}")

        def page(service, number):
            return service.run(SearchRequest(
                query=query, document="doc", size_bound=6, page=number, page_size=1
            ))

        corpus = Corpus()
        corpus.add_xml("doc", base)
        service = SnippetService(corpus)
        total = page(service, 1).total_results
        assert total >= 12
        live = [0]  # index of the version being served
        served: list[tuple[int, int, int, object]] = []
        errors: list[BaseException] = []

        # forwards, backwards and odd pages first: more threads than cores,
        # racing each other for the slots of one batch
        orders = [
            list(range(2, total + 1)),
            list(range(total, 1, -1)),
            [*range(3, total + 1, 2), *range(2, total + 1, 2)],
        ]
        start = threading.Barrier(len(orders) + 1)

        def pager(numbers: list[int]) -> None:
            try:
                start.wait(timeout=30)
                for number in numbers:
                    before = live[0]
                    response = page(service, number)
                    served.append((number, before, live[0], response))
                    time.sleep(0.001)  # spread the pages over the updates
            except BaseException as exc:  # noqa: BLE001 - surfaced in the assert
                errors.append(exc)

        def updater() -> None:
            try:
                start.wait(timeout=30)
                for index, xml in enumerate(versions[1:], 1):
                    response = service.run_update(UpdateRequest(document="doc", xml=xml))
                    assert response.incremental and response.cache_entries_invalidated == 0
                    live[0] = index
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside fills and carries
        try:
            threads = [threading.Thread(target=pager, args=(numbers,)) for numbers in orders]
            threads.append(threading.Thread(target=updater))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert errors == [] and not any(thread.is_alive() for thread in threads)
        assert len(served) == len(orders) * (total - 1)
        assert len({first for _, first, _, _ in served}) > 1  # pages met updates
        references: dict[int, list[str]] = {}

        def reference(version: int) -> list[str]:
            if version not in references:
                rebuilt = Corpus()
                rebuilt.add_xml("doc", versions[version])
                fresh = SnippetService(rebuilt)
                references[version] = [
                    wire_bytes(page(fresh, number)) for number in range(1, total + 1)
                ]
            return references[version]

        for number, first, last, response in served:
            assert wire_bytes(response) in {
                reference(version)[number - 1] for version in range(first, last + 1)
            }, number
        # the outcome was kept through every update, on the live tree
        system = corpus.system("doc")
        outcome = system.run_query(query, size_bound=6)
        assert outcome.from_cache
        assert all(result.source is system.index.tree for result in outcome.results)
        assert all(system.analyzer.covers(result.root_node) for result in outcome.results)

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

        service = SnippetService(corpus)
        pooled(service.run, requests)  # warm every cache under contention
        report = corpus.update_document("doc", self.make_tree("Dallas"))
        assert report.incremental
        assert report.cache_entries_kept >= 1

        doc_before = corpus.system("doc").cache.stats_snapshot()
        other_before = corpus.system("other").cache.stats_snapshot()
        responses = pooled(service.run, requests)
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
