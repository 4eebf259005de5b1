"""Tests for the HTTP frontend (:mod:`repro.api.http`) and typed client.

The headline contract (the PR's acceptance criterion): for every request
shape, the default (meta-free) JSON body served over a real listening
socket is **byte-identical** to the in-process ``handle_json`` result —
for a single-corpus :class:`SnippetService` backend and for a 3-shard
:class:`ClusterService` backend alike.  On top of that: error codes map to
the documented HTTP statuses, health/stats work, keep-alive works, and
the typed client round-trips protocol objects.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.api import (
    BatchRequest,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    ServiceClient,
    SnippetService,
    UpdateRequest,
    UpdateResponse,
    build_gateway,
)
from repro.api.http import HttpServer
from repro.corpus import Corpus
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string


def _fresh_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return corpus


def _edited_stores_xml(corpus: Corpus) -> str:
    edited = clone_tree(corpus.system("stores").index.tree)
    for node in edited.iter_nodes():
        if node.tag == "state" and node.text == "Texas":
            node.text = "Nevada"
            break
    return to_xml_string(edited)


def _backend(kind: str):
    if kind == "service":
        return SnippetService(_fresh_corpus())
    from repro.cluster import ClusterService

    return ClusterService.from_corpus(_fresh_corpus(), shards=3)


def _raw_post(port: int, path: str, body: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body.encode("utf-8"))
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def _raw_get(port: int, path: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


#: every request shape of the protocol, with its endpoint.  Updates run
#: last in the byte-identity walk, so earlier searches see the same
#: corpus state on both sides.
def _request_shapes(reference_corpus: Corpus) -> list[tuple[str, dict]]:
    update_xml = _edited_stores_xml(reference_corpus)
    return [
        ("/v1/search", SearchRequest(query="store texas", document="stores", size_bound=6).to_dict()),
        ("/v1/search", SearchRequest(query="store", document="stores", page_size=1, page=2).to_dict()),
        ("/v1/search", SearchRequest(query="clothes casual", document="retail", include_snippets=False).to_dict()),
        ("/v1/search", SearchRequest(query="store", document="ghost").to_dict()),
        ("/v1/batch", BatchRequest(queries=("store texas", "clothes casual"), size_bound=6).to_dict()),
        ("/v1/batch", BatchRequest(queries=("store",), documents=("stores", "retail")).to_dict()),
        ("/v1/update", UpdateRequest(document="stores", xml=update_xml).to_dict()),
        ("/v1/update", UpdateRequest(document="ghost", action="remove").to_dict()),
    ]


class TestByteIdentity:
    @pytest.mark.parametrize("backend_kind", ["service", "cluster"])
    def test_http_body_identical_to_handle_json(self, backend_kind):
        served = _backend(backend_kind)
        reference = _backend(backend_kind)
        reference_corpus = _fresh_corpus()
        with HttpServer(served, port=0) as server:
            for path, payload in _request_shapes(reference_corpus):
                text = json.dumps(payload, sort_keys=True)
                expected = reference.handle_json(text)
                status, body = _raw_post(server.port, path, text)
                assert body == expected, (path, payload)
                expected_dict = json.loads(expected)
                if expected_dict.get("kind") == "error":
                    assert status != 200
                else:
                    assert status == 200

    def test_malformed_bodies_identical_too(self):
        served = SnippetService(_fresh_corpus())
        reference = SnippetService(_fresh_corpus())
        with HttpServer(served, port=0) as server:
            for text in ("{not json", "[1,2]", "null", '"x"', '{"kind": ["search"]}'):
                status, body = _raw_post(server.port, "/v1/search", text)
                assert body == reference.handle_json(text)
                assert status == 400


class TestStatusMapping:
    @pytest.fixture(scope="class")
    def server(self):
        backend = SnippetService(_fresh_corpus())
        with HttpServer(backend, port=0) as server:
            yield server

    def test_ok_is_200(self, server):
        status, _ = _raw_post(
            server.port,
            "/v1/search",
            json.dumps(SearchRequest(query="store texas", document="stores").to_dict()),
        )
        assert status == 200

    def test_unknown_document_is_404(self, server):
        status, body = _raw_post(
            server.port,
            "/v1/search",
            json.dumps(SearchRequest(query="store", document="ghost").to_dict()),
        )
        assert status == 404
        assert json.loads(body)["code"] == "unknown_document"

    def test_bad_request_is_400(self, server):
        status, body = _raw_post(server.port, "/v1/search", "{broken")
        assert status == 400
        assert json.loads(body)["code"] == "bad_request"

    def test_oversized_batch_fanout_is_400(self, server):
        from repro.api.protocol import MAX_BATCH_FANOUT

        batch = BatchRequest(queries=("store",) * (MAX_BATCH_FANOUT // 2 + 1))  # × 2 documents
        status, body = _raw_post(server.port, "/v1/batch", json.dumps(batch.to_dict()))
        assert status == 400
        payload = json.loads(body)
        assert payload["code"] == "bad_request"
        assert str(MAX_BATCH_FANOUT) in payload["message"]
        in_process = SnippetService(_fresh_corpus()).handle_json(json.dumps(batch.to_dict()))
        assert body == in_process

    def test_kind_endpoint_mismatch_is_400(self, server):
        status, body = _raw_post(
            server.port,
            "/v1/batch",
            json.dumps(SearchRequest(query="store", document="stores").to_dict()),
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["code"] == "bad_request"
        assert "/v1/batch" in payload["message"]

    def test_unknown_endpoint_is_404(self, server):
        status, body = _raw_post(server.port, "/v2/search", "{}")
        assert status == 404
        assert json.loads(body)["code"] == "not_found"

    def test_oversized_request_line_is_400_not_dropped(self, server):
        # A request line beyond the stream buffer must produce a 400
        # response, not a silently dropped connection.
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n")
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 400 "), raw[:80]

    def test_backend_crash_answers_500(self):
        class Exploding(SnippetService):
            def handle_dict(self, payload, request=None):
                raise RuntimeError("backend blew up")

        with HttpServer(Exploding(_fresh_corpus()), port=0) as server:
            status, body = _raw_post(
                server.port,
                "/v1/search",
                json.dumps(SearchRequest(query="store", document="stores").to_dict()),
            )
            assert status == 500
            payload = json.loads(body)
            assert payload["code"] == "internal"
            assert "backend blew up" in payload["message"]

    def test_unsupported_method_is_405(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("DELETE", "/v1/search")
            response = conn.getresponse()
            assert response.status == 405
            assert json.loads(response.read())["code"] == "method_not_allowed"
        finally:
            conn.close()

    def test_wrong_verb_on_existing_endpoint_is_405(self, server):
        # The endpoint exists, the verb is wrong: 405, not 404 — the
        # documented distinction between the two codes.
        status, body = _raw_get(server.port, "/v1/search")
        assert status == 405
        payload = json.loads(body)
        assert payload["code"] == "method_not_allowed"
        assert "use POST" in payload["message"]
        status, body = _raw_post(server.port, "/v1/health", "{}")
        assert status == 405
        assert "use GET" in json.loads(body)["message"]

    def test_chunked_transfer_encoding_rejected(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/search", skip_accept_encoding=True)
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b"5\r\nhello\r\n0\r\n\r\n")
            response = conn.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert payload["code"] == "bad_request"
            assert "Transfer-Encoding" in payload["message"]
        finally:
            conn.close()

    def test_health_and_stats(self, server):
        status, body = _raw_get(server.port, "/v1/health")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["backend"]["backend"] == "snippet-service"
        assert health["backend"]["documents"] == 2
        status, body = _raw_get(server.port, "/v1/stats")
        assert status == 200
        assert "documents" in json.loads(body)

    def test_keep_alive_serves_sequential_requests(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(3):
                conn.request(
                    "POST",
                    "/v1/search",
                    body=json.dumps(
                        SearchRequest(query="store texas", document="stores").to_dict()
                    ).encode(),
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()  # drain so the connection can be reused
        finally:
            conn.close()

    def test_concurrent_keep_alive_clients_each_get_their_own_answers(self):
        # Fan-in: four keep-alive clients on their own threads, each walking
        # the same eight distinct requests against one server; every client
        # must read the answer to *its* request, byte for byte.
        service = SnippetService(_fresh_corpus())
        texts = [
            json.dumps(
                SearchRequest(query=query, document=document, size_bound=6).to_dict(),
                sort_keys=True,
            )
            for query in ("store texas", "store austin", "clothes casual", "retailer apparel")
            for document in ("stores", "retail")
        ]
        expected = [service.handle_json(text) for text in texts]
        results: dict[int, list[str]] = {}

        def drive(index: int, port: int) -> None:
            client = ServiceClient(port=port, keep_alive=True)
            try:
                results[index] = [
                    json.dumps(client.handle_dict(json.loads(text)), sort_keys=True)
                    for text in texts
                ]
            finally:
                client.close()

        with HttpServer(service, port=0) as server:
            threads = [
                threading.Thread(target=drive, args=(index, server.port)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert [results[index] for index in range(4)] == [expected] * 4


class TestGatewayOverHttp:
    def test_overloaded_maps_to_503(self):
        # A 1-slot gateway with a gated backend: the second concurrent
        # request must be shed with HTTP 503 while the first completes.
        from repro.api.gateway import AdmissionControlMiddleware, Middleware

        release = threading.Event()

        class Gate(Middleware):
            name = "gate"

            def __init__(self, inner):
                super().__init__(inner)
                self.entered = threading.Semaphore(0)

            def process(self, request, call_next):
                self.entered.release()
                assert release.wait(timeout=30)
                return call_next(request)

        gate = Gate(SnippetService(_fresh_corpus()))
        stack = AdmissionControlMiddleware(gate, max_in_flight=1)
        with HttpServer(stack, port=0) as server:
            payload = json.dumps(
                SearchRequest(query="store texas", document="stores").to_dict()
            )
            first: dict = {}

            def blocked():
                first["status"], first["body"] = _raw_post(
                    server.port, "/v1/search", payload
                )

            thread = threading.Thread(target=blocked)
            thread.start()
            assert gate.entered.acquire(timeout=10)
            status, body = _raw_post(server.port, "/v1/search", payload)
            release.set()
            thread.join(timeout=30)
            assert status == 503
            assert json.loads(body)["code"] == "overloaded"
            assert first["status"] == 200  # the admitted request completed

    def test_deadline_maps_to_504(self):
        import time

        from repro.api.gateway import DeadlineMiddleware, Middleware

        class Slow(Middleware):
            name = "slow"

            def process(self, request, call_next):
                time.sleep(0.5)
                return call_next(request)

        stack = DeadlineMiddleware(Slow(SnippetService(_fresh_corpus())), timeout=0.05)
        with HttpServer(stack, port=0) as server:
            status, body = _raw_post(
                server.port,
                "/v1/search",
                json.dumps(SearchRequest(query="store", document="stores").to_dict()),
            )
            assert status == 504
            assert json.loads(body)["code"] == "deadline_exceeded"


class TestServiceClient:
    @pytest.fixture(scope="class")
    def server(self):
        backend = build_gateway(SnippetService(_fresh_corpus()), max_in_flight=8)
        with HttpServer(backend, port=0) as server:
            yield server

    def test_execute_returns_typed_response(self, server):
        client = ServiceClient(port=server.port)
        response = client.execute(
            SearchRequest(query="store texas", document="stores", size_bound=6)
        )
        assert isinstance(response, SearchResponse)
        assert response.total_results >= 2
        assert response.results[0].text

    def test_execute_batch_and_update(self, server):
        client = ServiceClient(port=server.port)
        batch = client.execute_batch(BatchRequest(queries=("store texas",)))
        assert batch.kind == "batch_response"
        assert batch.documents == ("retail", "stores")
        update = client.execute_update(
            UpdateRequest(
                document="stores", xml=_edited_stores_xml(_fresh_corpus())
            )
        )
        assert isinstance(update, UpdateResponse)
        assert update.action == "updated"

    def test_error_comes_back_typed(self, server):
        client = ServiceClient(port=server.port)
        response = client.execute(SearchRequest(query="store", document="ghost"))
        assert isinstance(response, ErrorResponse)
        assert response.code == "unknown_document"

    def test_keep_alive_client(self, server):
        client = ServiceClient(port=server.port, keep_alive=True)
        try:
            for _ in range(3):
                response = client.execute(
                    SearchRequest(query="store texas", document="stores")
                )
                assert isinstance(response, SearchResponse)
        finally:
            client.close()

    def test_handle_dict_total_on_garbage(self, server):
        # The client's JSON endpoints are total functions too: unhashable
        # kinds, non-objects and unserialisable payloads all come back as
        # structured errors through the server (or locally), never raise.
        client = ServiceClient(port=server.port)
        for payload in ({"kind": ["search"]}, {"kind": {"a": 1}}, [1, 2], None, 42):
            response = client.handle_dict(payload)
            assert response["kind"] == "error"
            assert response["code"] == "bad_request"
        unserialisable = client.handle_dict({"kind": "search", "query": object()})
        assert unserialisable["kind"] == "error"

    def test_transport_failure_is_structured(self):
        # Nothing listens on port 1 — the client must answer with a
        # structured internal error, not raise through execute().
        client = ServiceClient(port=1, timeout=0.5)
        response = client.execute(SearchRequest(query="q", document="d"))
        assert isinstance(response, ErrorResponse)
        assert response.code == "internal"
        with pytest.raises(OSError):
            client.health()  # health checks do raise: "down" != "unhealthy"

    def test_health_and_capabilities(self, server):
        client = ServiceClient(port=server.port)
        assert client.health()["status"] == "ok"
        caps = client.capabilities()
        assert caps["backend"] == "snippet-service"
        assert "metrics" in caps["middleware"]
        assert client.stats()["requests"]["total"] >= 1


class TestServerLifecycle:
    def test_max_requests_stops_the_server(self):
        backend = SnippetService(_fresh_corpus())
        server = HttpServer(backend, port=0, max_requests=2)
        server.start()
        try:
            _raw_get(server.port, "/v1/health")
            _raw_get(server.port, "/v1/health")
            server.join(timeout=10)
            assert server.requests_served == 2
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = HttpServer(SnippetService(_fresh_corpus()), port=0)
        server.start()
        server.stop()
        server.stop()

    def test_restart_after_stop(self):
        server = HttpServer(SnippetService(_fresh_corpus()), port=0)
        server.start()
        first_port = server.port
        server.stop()
        # stop() closed the owned executor; start() must reopen it so the
        # restarted server actually serves (not 500 off a closed pool).
        server.start()
        try:
            status, _ = _raw_get(server.port, "/v1/health")
            assert status == 200
            status, body = _raw_post(
                server.port,
                "/v1/search",
                json.dumps(
                    SearchRequest(query="store texas", document="stores").to_dict()
                ),
            )
            assert status == 200
            assert json.loads(body)["total_results"] >= 2
            assert server.port != 0 and first_port != 0
        finally:
            server.stop()
