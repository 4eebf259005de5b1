"""The page is the unit of snippet work.

A request for one page of a query with many results generates that page's
snippets and no others; the next page generates its own; a page already
generated is read as a slice, without the batch's lock.  And result
construction cuts every result's matches out of the posting lists the
search already holds: it asks the index for nothing.
"""

from __future__ import annotations

import pytest

from repro.api import SearchRequest, SnippetService
from repro.corpus import Corpus
from repro.index.builder import DocumentIndex
from repro.index.inverted import InvertedIndex
from repro.search import xseek
from repro.search.engine import SearchEngine
from repro.snippet.generator import SnippetGenerator

QUERY = "suit formal"
PAGE_SIZE = 5


@pytest.fixture()
def service():
    corpus = Corpus()
    corpus.add_builtin("retail")
    return SnippetService(corpus)


@pytest.fixture()
def generated(monkeypatch):
    """Result ids ``SnippetGenerator.generate`` was called for, in order."""
    calls: list[int] = []
    generate = SnippetGenerator.generate

    def counted_generate(self, result, *args, **kwargs):
        calls.append(result.result_id)
        return generate(self, result, *args, **kwargs)

    monkeypatch.setattr(SnippetGenerator, "generate", counted_generate)
    return calls


class CountingLock:
    """Stands in for a batch's lock and counts how often it is taken."""

    def __init__(self, lock):
        self.lock = lock
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def page_request(page, **overrides):
    fields = dict(query=QUERY, document="retail", size_bound=6, page=page, page_size=PAGE_SIZE)
    fields.update(overrides)
    return SearchRequest(**fields)


def test_a_page_generates_its_own_snippets_and_no_others(service, generated):
    first = service.run(page_request(1))
    assert first.total_results > 3 * PAGE_SIZE
    assert generated == list(range(PAGE_SIZE))
    assert [payload.result_id for payload in first.results] == generated

    del generated[:]
    second = service.run(page_request(2))
    assert second.from_cache is True  # the ranked list was not searched for again
    assert generated == list(range(PAGE_SIZE, 2 * PAGE_SIZE))

    # a repeated page generates nothing, and does not touch the lock
    batch = service.corpus.system("retail").run_query(QUERY, size_bound=6).snippets
    batch._lock = CountingLock(batch._lock)
    del generated[:]
    for page in (1, 2, 1):
        repeat = service.run(page_request(page))
        assert repeat.from_cache is True
    assert [payload.to_dict() for payload in repeat.results] == [
        payload.to_dict() for payload in first.results
    ]
    assert generated == [] and batch._lock.taken == 0
    # … while a page nobody has read yet does
    service.run(page_request(3))
    assert len(generated) == PAGE_SIZE and batch._lock.taken == 1


def test_the_last_page_generates_what_is_left(service, generated):
    total = service.run(page_request(1)).total_results
    last = -(-total // PAGE_SIZE)
    del generated[:]
    response = service.run(page_request(last))
    assert response.next_page is None
    assert generated == list(range((last - 1) * PAGE_SIZE, total))


def test_reading_the_whole_batch_fills_what_the_pages_left(service, generated):
    total = service.run(page_request(2)).total_results
    assert generated == list(range(PAGE_SIZE, 2 * PAGE_SIZE))
    outcome = service.corpus.system("retail").run_query(QUERY, size_bound=6)
    assert outcome.snippets.generated == PAGE_SIZE
    assert [snippet.result.result_id for snippet in outcome.snippets] == list(range(total))
    # everything, once: the page generated before was not generated again
    assert sorted(generated) == list(range(total))


@pytest.fixture()
def lookups(monkeypatch):
    """Calls of the two index lookup routes, by name."""
    counts = {"keyword_matches": 0, "lookup": 0}
    keyword_matches = DocumentIndex.keyword_matches
    lookup = InvertedIndex.lookup

    def counted_keyword_matches(self, keyword):
        counts["keyword_matches"] += 1
        return keyword_matches(self, keyword)

    def counted_lookup(self, keyword):
        counts["lookup"] += 1
        return lookup(self, keyword)

    monkeypatch.setattr(DocumentIndex, "keyword_matches", counted_keyword_matches)
    monkeypatch.setattr(InvertedIndex, "lookup", counted_lookup)
    return counts


@pytest.mark.parametrize("query", ["suit formal", "stores texas", "clothes merchandises"])
def test_result_construction_asks_the_index_for_nothing(monkeypatch, lookups, query):
    corpus = Corpus()
    corpus.add_builtin("retail")
    engine = SearchEngine(corpus.system("retail").index)
    build_all_results = xseek.build_all_results
    during_construction = {}

    def observed_build_all_results(*args, **kwargs):
        before = dict(lookups)
        results = build_all_results(*args, **kwargs)
        during_construction.update(
            {name: lookups[name] - before[name] for name in lookups}
        )
        return results

    monkeypatch.setattr("repro.search.engine.build_all_results", observed_build_all_results)
    results = engine.search(query)

    assert len(results) > 1
    assert during_construction == {"keyword_matches": 0, "lookup": 0}
    # the search itself looked every keyword up once — not once per result
    assert lookups["keyword_matches"] == len(results.query.keywords)
