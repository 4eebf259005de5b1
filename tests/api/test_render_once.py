"""A snippet is rendered once: a warm hit is a lookup and a write.

The payload a slot is served with is a pure function of its result, so
``SnippetService`` renders it the first time the slot is served, stores it
on the slot, and returns the stored payload to every later request.  A
repeated page renders nothing and copies no snippet tree; a follow-up page
renders exactly its own slots; a cold page renders each of its slots once;
and none of this moves a wire byte.  The same holds for the payload's
JSON text: the first page that serves a slot encodes its payload, and a
warm hit assembles the page from the stored texts — a warm batch too.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import pytest

from repro.api import BatchRequest, SearchRequest, SnippetService
from repro.api import service as service_module
from repro.api.protocol import SnippetPayload
from repro.corpus import Corpus
from repro.snippet.snippet_tree import Snippet

PAGE_SIZE = 5

#: (document, query, size bound, page) in firing order: cold pages, a
#: follow-up page, repeats, a whole-list page and a second bound
SEQUENCE = (
    ("retail", "suit formal", 6, 1),
    ("retail", "suit formal", 6, 2),
    ("retail", "suit formal", 6, 1),
    ("movies", "drama", 6, 1),
    ("retail", "suit formal", 6, 2),
    ("retail", "suit formal", 6, 4),
    ("movies", "drama", 14, 2),
    ("retail", "store texas", 6, None),
    ("movies", "drama", 6, 1),
    ("retail", "store texas", 6, None),
    ("movies", "drama", 14, 2),
    ("movies", "drama", 14, 1),
)

#: SHA-256 over the JSON bodies of SEQUENCE, one per line, as served by
#: the renderer that copied every snippet into a tree on every request
PINNED_SHA256 = "1c21fb8a61362d71b2e5fa753b0f1fecf5b7df04398d748013954eb9c0f37f40"


@pytest.fixture()
def service():
    corpus = Corpus()
    corpus.add_builtin("retail")
    corpus.add_builtin("movies")
    return SnippetService(corpus)


class Renders:
    """Result ids ``render_snippet_text`` was called for, and the number
    of ``Snippet.to_tree`` copies made."""

    def __init__(self):
        self.rendered: list[int] = []
        self.trees = 0


@pytest.fixture()
def renders(monkeypatch):
    counts = Renders()
    render = service_module.render_snippet_text
    to_tree = Snippet.to_tree

    def counted_render(generated, *args, **kwargs):
        counts.rendered.append(generated.result.result_id)
        return render(generated, *args, **kwargs)

    def counted_to_tree(self):
        counts.trees += 1
        return to_tree(self)

    monkeypatch.setattr(service_module, "render_snippet_text", counted_render)
    monkeypatch.setattr(Snippet, "to_tree", counted_to_tree)
    return counts


def request(document="retail", query="suit formal", size_bound=6, page=1, **overrides):
    page_size = overrides.pop("page_size", PAGE_SIZE if page is not None else None)
    return SearchRequest(
        query=query, document=document, size_bound=size_bound,
        page=page or 1, page_size=page_size, **overrides,
    )


def body(service, *args, **kwargs) -> str:
    return service.handle_json(json.dumps(request(*args, **kwargs).to_dict()))


def test_a_cold_page_renders_each_slot_once(service, renders):
    response = service.run(request(page=1))
    assert response.from_cache is False
    assert renders.rendered == list(range(PAGE_SIZE))
    assert renders.trees == 0


def test_a_follow_up_page_renders_exactly_its_own_slots(service, renders):
    service.run(request(page=1))
    del renders.rendered[:]
    response = service.run(request(page=2))
    assert response.from_cache is True
    assert renders.rendered == list(range(PAGE_SIZE, 2 * PAGE_SIZE))
    # a page overlapping both renders only the slots nobody served yet
    del renders.rendered[:]
    service.run(request(page=1, page_size=3 * PAGE_SIZE))
    assert renders.rendered == list(range(2 * PAGE_SIZE, 3 * PAGE_SIZE))
    assert renders.trees == 0


def test_a_repeated_page_renders_nothing(service, renders):
    first = service.run(request(page=1))
    second = service.run(request(page=2))
    del renders.rendered[:]
    for page, served in ((1, first), (2, second), (1, first), (2, second)):
        repeat = service.run(request(page=page))
        assert repeat.from_cache is True
        # the stored payloads themselves, not equal copies
        assert all(a is b for a, b in zip(repeat.results, served.results, strict=True))
    assert renders.rendered == [] and renders.trees == 0

    # the payload lives on the slot it was rendered for
    batch = service.corpus.system("retail").run_query("suit formal", size_bound=6).snippets
    slots = batch.page(1, PAGE_SIZE)
    assert [generated.payload for generated in slots] == list(first.results)


def test_results_only_pages_render_nothing(service, renders):
    service.run(request(page=1, include_snippets=False))
    service.run(request(page=1, include_snippets=False))
    assert renders.rendered == [] and renders.trees == 0


@pytest.fixture()
def payload_dicts(monkeypatch):
    """Result ids ``SnippetPayload.to_dict`` was called for."""
    called: list[int] = []
    to_dict = SnippetPayload.to_dict

    def counted_to_dict(self):
        called.append(self.result_id)
        return to_dict(self)

    monkeypatch.setattr(SnippetPayload, "to_dict", counted_to_dict)
    return called


def test_a_payload_is_encoded_once(service, payload_dicts):
    # a first read encodes each slot it serves, once
    body(service, page=1)
    assert payload_dicts == list(range(PAGE_SIZE))
    del payload_dicts[:]
    body(service, page=2)
    assert payload_dicts == list(range(PAGE_SIZE, 2 * PAGE_SIZE))
    # a page overlapping both encodes only the slots nobody served yet
    del payload_dicts[:]
    body(service, page=1, page_size=3 * PAGE_SIZE)
    assert payload_dicts == list(range(2 * PAGE_SIZE, 3 * PAGE_SIZE))
    # a warm hit encodes no payload dict
    del payload_dicts[:]
    for page in (1, 2, 1, 2):
        body(service, page=page)
    body(service, page=1, page_size=3 * PAGE_SIZE)
    assert payload_dicts == []


def test_a_warm_batch_renders_and_encodes_no_payload(service, renders, payload_dicts):
    batch = BatchRequest(
        queries=("suit formal", "drama", "store texas"), documents=("retail", "movies")
    )
    text = json.dumps(batch.to_dict())
    first = service.handle_json(text)
    assert renders.rendered and payload_dicts
    del renders.rendered[:], payload_dicts[:]
    assert service.handle_json(text) == first
    assert renders.rendered == [] and renders.trees == 0
    assert payload_dicts == []
    # the spliced body is the dumped one
    assert first == json.dumps(service.run_batch(batch).to_dict(), sort_keys=True)


def test_a_results_only_page_encodes_its_fresh_payloads(service, payload_dicts):
    # results-only payloads are built per request and stored nowhere
    body(service, page=1, include_snippets=False)
    body(service, page=1, include_snippets=False)
    assert payload_dicts == 2 * list(range(PAGE_SIZE))


def served_bodies(service) -> list[str]:
    return [body(service, document, query, bound, page) for document, query, bound, page in SEQUENCE]


def test_every_response_is_byte_identical_to_a_fresh_render(service, renders):
    served = served_bodies(service)
    # every slot was rendered once, however often its page was served
    slots = {
        (document, query, bound, result["result_id"])
        for (document, query, bound, _page), text in zip(SEQUENCE, served)
        for result in json.loads(text)["results"]
    }
    assert len(renders.rendered) == len(slots)
    # a cold evaluation renders every payload from scratch
    fresh = [
        body(service, document, query, bound, page, use_cache=False)
        for document, query, bound, page in SEQUENCE
    ]
    assert served == fresh
    digest = hashlib.sha256("\n".join(served).encode("utf-8")).hexdigest()
    assert digest == PINNED_SHA256


def test_racing_first_reads_serve_one_rendering(service):
    """Threads serving the pages of one cold query at once: every response
    equals the serial one, and afterwards every slot of those pages holds
    its payload."""
    expected = {}
    serial = SnippetService(Corpus())
    serial.corpus.add_builtin("retail")
    for page in (1, 2, 3, 4):
        expected[page] = body(serial, page=page)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results: list[tuple[int, str]] = []

        def read(page):
            for _ in range(5):
                results.append((page, body(service, page=page)))

        workers = [threading.Thread(target=read, args=(1 + n % 4,)) for n in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)

    assert len(results) == 40
    assert all(text == expected[page] for page, text in results)
    batch = service.corpus.system("retail").run_query("suit formal", size_bound=6).snippets
    assert all(generated.payload is not None for generated in batch.page(1, 4 * PAGE_SIZE))
