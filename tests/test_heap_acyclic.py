"""Serving leaves no cyclic garbage.

A document version holds no reference cycle — a node's ``parent`` link is
weak, its ``children`` links strong — so reference counting frees a
retired version the moment its last holder lets go, and everything else a
request makes (responses, outcomes, snippets, traces, the connection's
buffers) is freed the same way.  That is what lets a serving process
raise its young-generation threshold (``repro.cli.YOUNG_GC_THRESHOLD``)
without retired versions piling up between full collections.

Each test runs a mix of requests with the cycle collector off and
``gc.DEBUG_SAVEALL`` set, then asks one collection what it found: every
object it finds is garbage that only the collector could have freed.
When ``XMLNode.parent`` was a strong link, each update left one
``XMLNode`` and one ``children`` list per node of the retired version.
"""

from __future__ import annotations

import contextlib
import gc
import json
import socket
from collections import Counter

import pytest

from repro.api import (
    BatchRequest,
    SearchRequest,
    ServiceClient,
    SnippetService,
    UpdateRequest,
    build_gateway,
)
from repro.api.http import HttpServer
from repro.corpus import Corpus
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string


def _corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return corpus


def _texas_to_nevada(corpus: Corpus) -> str:
    """The stores document with one ``<state>`` value changed (text only)."""
    edited = clone_tree(corpus.system("stores").index.tree)
    state = next(node for node in edited.iter_nodes() if node.text == "Texas")
    state.text = "Nevada"
    return to_xml_string(edited)


def _one_more_store(xml: str) -> str:
    """``xml`` with a store added after the first one (structural)."""
    head, tail = xml.split("</store>", 1)
    added = "<store><name>Annex</name><city>Austin</city><state>Texas</state></store>"
    return f"{head}</store>{added}{tail}"


def _requests(corpus: Corpus) -> list[dict]:
    """Cold searches, follow-up pages, a batch, a text-only update, the
    same searches over the carried caches, a structural update, a remove
    and a request for a document that is not there — as wire payloads."""
    text_only = _texas_to_nevada(corpus)
    searches = [
        SearchRequest(query="store texas", document="stores", size_bound=6, page_size=1),
        SearchRequest(query="store texas", document="stores", size_bound=6, page_size=1, page=2),
        SearchRequest(query="clothes casual", document="retail", size_bound=6, page_size=2),
        SearchRequest(query="clothes casual", document="retail", size_bound=6, page_size=2, page=2),
        SearchRequest(query="store", document="stores", include_snippets=False),
    ]
    return [
        *searches,
        BatchRequest(queries=("store texas", "clothes jeans"), size_bound=6, limit=3),
        UpdateRequest(document="stores", xml=text_only),
        *searches,
        UpdateRequest(document="stores", xml=_one_more_store(text_only)),
        *searches,
        UpdateRequest(document="retail", action="remove"),
        *searches,
        SearchRequest(query="store", document="ghost"),
    ]


#: the searches of the removed document, and the one of the ghost
ERRORS = 3


@contextlib.contextmanager
def _collector_off():
    """Yield a callable that collects once and returns what it found;
    the collector is off in between, and saves all it finds."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]

        def collect() -> Counter:
            gc.collect()
            found = Counter(type(obj).__qualname__ for obj in gc.garbage)
            del gc.garbage[:]
            return found

        yield collect
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def _raw(port: int, data: bytes, read: bool = True) -> bytes:
    """Send ``data`` on a fresh connection; the answer, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        if not read:
            return b""
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        return b"".join(chunks)


def test_an_in_process_service_leaves_no_cyclic_garbage():
    corpus = _corpus()
    payloads = [request.to_dict() for request in _requests(corpus)]
    with _collector_off() as collect:
        service = SnippetService(corpus)
        del corpus
        kinds = [
            json.loads(service.handle_json(json.dumps(payload)))["kind"] for payload in payloads
        ]
        assert kinds.count("error") == ERRORS
        assert json.loads(service.handle_json("{not json"))["kind"] == "error"
        assert service.stats()["live_versions"] == {"stores": 1}
        del service
        assert collect() == Counter()


@pytest.mark.parametrize("keep_alive", [True, False], ids=["keep-alive", "close"])
def test_an_http_server_leaves_no_cyclic_garbage(keep_alive):
    corpus = _corpus()
    payloads = [request.to_dict() for request in _requests(corpus)]
    with _collector_off() as collect:
        # what ``serve`` runs: the gateway (tracing, metrics) over the service
        with HttpServer(build_gateway(SnippetService(corpus)), port=0) as server:
            del corpus
            with ServiceClient(port=server.port, keep_alive=keep_alive) as client:
                kinds = [client.post(dict(payload))["kind"] for payload in payloads]
                assert kinds.count("error") == ERRORS
                status_line = _raw(
                    server.port, b"POST /v1/search HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json"
                ).split(b"\r\n", 1)[0]
                assert b" 400 " in status_line
                _raw(  # dropped mid-body: 100 bytes promised, 10 sent
                    server.port,
                    b"POST /v1/search HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"kind\": \"",
                    read=False,
                )
                # answered after the dropped connection was accepted
                assert client.stats()["live_versions"] == {"stores": 1}
        assert collect() == Counter()
