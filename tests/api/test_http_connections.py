"""Connection handling of the HTTP frontend (:mod:`repro.api.http`).

Each connection is served on its own thread: a blocking read of the
request, the backend call in place, one ``sendall`` of the response.
These tests pin what that design has to keep — pipelined requests
answered in order, a cut-short request never served, strict RFC 9112
framing, ``stop()`` waking every blocked read, the executor's bound on
concurrent backend calls, the connection bound, and persistence for
HTTP/1.0 and 1.1.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

import repro.api.http as http_module
from repro.api import SearchRequest, SnippetService, UpdateRequest
from repro.api.executors import ConcurrentExecutor
from repro.api.http import HttpServer
from repro.corpus import Corpus
from tests.api.hooked import Hooked


def _service() -> SnippetService:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    return SnippetService(corpus)


def _search_text(query: str) -> str:
    return json.dumps(SearchRequest(query=query, document="stores").to_dict(), sort_keys=True)


def _post(path: str, body: str) -> bytes:
    data = body.encode("utf-8")
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(data)}\r\n\r\n"
    ).encode("ascii") + data


def _read_response(reader) -> tuple[int, dict[str, str], bytes] | None:
    """One response off a socket file; None at EOF."""
    status_line = reader.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return status, headers, body


def _exchange(port: int, request: bytes, repeat: int = 1):
    """Send ``request`` up to ``repeat`` times on one connection; the
    responses, and whether the server then closed the connection."""
    answers = []
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        with sock.makefile("rb") as reader:
            for _ in range(repeat):
                sock.sendall(request)
                answers.append(_read_response(reader))
                if answers[-1][1]["connection"] == "close":
                    break
            sock.settimeout(0.5)
            try:
                closed = reader.read(1) == b""
            except TimeoutError:
                closed = False
    return answers, closed


class Counting:
    """A hook counting backend calls and the most that ever ran at once
    (each call holds its count for ``delay`` seconds)."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls = 0
        self.running = 0
        self.most = 0
        self._lock = threading.Lock()

    def __call__(self, _request) -> None:
        with self._lock:
            self.calls += 1
            self.running += 1
            self.most = max(self.most, self.running)
        time.sleep(self.delay)
        with self._lock:
            self.running -= 1


def _http_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-http")]


def _wait_for(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestFraming:
    def test_pipelined_requests_are_answered_in_order(self):
        service = _service()
        reference = _service()
        texts = [_search_text("store texas"), _search_text("store"), _search_text("ghost")]
        with HttpServer(service, port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                # one sendall: every request is in the server's buffer at once
                sock.sendall(
                    b"GET /v1/health HTTP/1.1\r\n\r\n"
                    + b"".join(_post("/v1/search", text) for text in texts)
                )
                with sock.makefile("rb") as reader:
                    answers = [_read_response(reader) for _ in range(1 + len(texts))]
        health = answers[0]
        assert health[0] == 200 and json.loads(health[2])["status"] == "ok"
        assert [body.decode("utf-8") for _, _, body in answers[1:]] == [
            reference.handle_json(text) for text in texts
        ]

    def test_short_body_then_eof_is_never_served(self):
        counting = Counting()
        backend = Hooked(_service(), counting)
        with HttpServer(backend, port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(
                    b"POST /v1/search HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b'{"kind": '
                )
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(65536) == b""  # closed, no answer
        assert counting.calls == 0

    @pytest.mark.parametrize("line", ["request", "header"])
    def test_oversized_line_is_400(self, line):
        long = b"a" * (http_module.MAX_HEADER_BYTES + 10)
        if line == "request":
            data = b"GET /v1/health?" + long + b" HTTP/1.1\r\n\r\n"
        else:
            data = b"GET /v1/health HTTP/1.1\r\nX-Long: " + long + b"\r\n\r\n"
        with HttpServer(_service(), port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(data)
                with sock.makefile("rb") as reader:
                    status, headers, body = _read_response(reader)
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["code"] == "bad_request"

    @pytest.mark.parametrize(
        "head",
        [
            pytest.param("Content-Length: -1", id="negative"),
            pytest.param("Content-Length: ten", id="not-a-number"),
            pytest.param("Content-Length: 6_4", id="underscore"),
            pytest.param("Content-Length: +64", id="plus-sign"),
            pytest.param("Content-Length: 5\r\nContent-Length: 64", id="disagreeing-lengths"),
            pytest.param("Content-Length: 64\r\nX-No-Colon", id="header-without-colon"),
            pytest.param("Content-Length : 64", id="space-before-colon"),
            pytest.param("Transfer-Encoding: chunked", id="chunked"),
        ],
    )
    def test_ambiguous_framing_is_400_and_closes(self, head):
        counting = Counting()
        backend = Hooked(_service(), counting)
        with HttpServer(backend, port=0) as server:
            answers, closed = _exchange(
                server.port, f"POST /v1/search HTTP/1.1\r\n{head}\r\n\r\n".encode("ascii")
            )
        status, headers, body = answers[0]
        assert status == 400
        assert json.loads(body)["code"] == "bad_request"
        assert headers["connection"] == "close"
        assert closed
        assert counting.calls == 0

    @staticmethod
    def _latin1_post(path: str, payload: dict) -> bytes:
        data = json.dumps(payload, ensure_ascii=False).encode("latin-1")
        head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n\r\n"
        return head.encode("ascii") + data

    def test_latin1_update_is_400_and_registers_nothing(self):
        service = _service()
        update = UpdateRequest(document="caf\xe9", xml="<menu>caf\xe9</menu>")
        with HttpServer(service, port=0) as server:
            answers, closed = _exchange(
                server.port, self._latin1_post("/v1/update", update.to_dict())
            )
        status, headers, body = answers[0]
        assert status == 400
        assert json.loads(body)["code"] == "bad_request"
        assert "UTF-8" in json.loads(body)["message"]
        assert headers["connection"] == "close" and closed
        assert service.corpus.names() == ["stores"]

    def test_latin1_replication_op_is_400_and_applies_nothing(self):
        from repro.cluster import ShardBackend, ShardServer

        backend = ShardBackend(ShardServer(0, corpus=_service().corpus))
        update = UpdateRequest(document="caf\xe9", xml="<menu>caf\xe9</menu>")
        op = {"op": "apply-update", "request": update.to_dict()}
        with HttpServer(backend, port=0, replicate_backend=backend) as server:
            answers, _ = _exchange(server.port, self._latin1_post("/v1/replicate", op))
        status, _, body = answers[0]
        assert status == 400
        assert json.loads(body)["code"] == "bad_request"
        assert backend.sequence == 0
        assert backend.shard.names() == ["stores"]

    def test_search_with_a_non_utf8_byte_is_400(self):
        counting = Counting()
        backend = Hooked(_service(), counting)
        search = SearchRequest(query="store \xff", document="stores")
        with HttpServer(backend, port=0) as server:
            answers, _ = _exchange(
                server.port, self._latin1_post("/v1/search", search.to_dict())
            )
        status, _, body = answers[0]
        assert status == 400
        assert json.loads(body)["code"] == "bad_request"
        assert counting.calls == 0

    def test_repeated_agreeing_length_is_accepted(self):
        text = _search_text("store texas").encode("utf-8")
        with HttpServer(_service(), port=0) as server:
            [(status, _, body)], _ = _exchange(
                server.port,
                (
                    f"POST /v1/search HTTP/1.1\r\nContent-Length: {len(text)}\r\n"
                    f"Content-Length: {len(text)}\r\nConnection: close\r\n\r\n"
                ).encode("ascii")
                + text,
            )
        assert status == 200
        assert json.loads(body)["kind"] == "search_response"


class TestPersistence:
    def test_http10_closes_unless_keep_alive_asked(self):
        with HttpServer(_service(), port=0) as server:
            answers, closed = _exchange(server.port, b"GET /v1/health HTTP/1.0\r\n\r\n")
            assert answers[0][0] == 200
            assert answers[0][1]["connection"] == "close"
            assert closed
            answers, closed = _exchange(
                server.port, b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 2
            )
            assert [status for status, _, _ in answers] == [200, 200]
            assert answers[1][1]["connection"] == "keep-alive"
            assert not closed

    def test_http11_persists_unless_close_asked(self):
        with HttpServer(_service(), port=0) as server:
            answers, closed = _exchange(server.port, b"GET /v1/health HTTP/1.1\r\n\r\n", 2)
            assert [status for status, _, _ in answers] == [200, 200]
            assert answers[1][1]["connection"] == "keep-alive"
            assert not closed
            answers, closed = _exchange(
                server.port, b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n", 2
            )
            assert len(answers) == 1
            assert answers[0][1]["connection"] == "close"
            assert closed


class TestLifecycle:
    def test_stop_wakes_idle_and_half_sent_connections(self):
        server = HttpServer(_service(), port=0).start()
        idle = []
        for _ in range(2):
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            conn.request("GET", "/v1/health")
            conn.getresponse().read()
            idle.append(conn)
        half = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        half.sendall(b"POST /v1/search HTTP/1.1\r\nContent-Length: 50\r\n\r\n{")
        try:
            assert _wait_for(lambda: len(server._connections) == 3)
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 2.0
            assert _http_threads() == []
        finally:
            half.close()
            for conn in idle:
                conn.close()

    def test_connections_beyond_the_bound_get_503(self, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 4)
        with HttpServer(_service(), port=0) as server:
            baseline = threading.active_count()
            clients = []
            for _ in range(4):
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
                conn.request("GET", "/v1/health")
                assert conn.getresponse().read()
                clients.append(conn)
            for _ in range(2):
                with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                    with sock.makefile("rb") as reader:
                        status, headers, body = _read_response(reader)
                        assert reader.read() == b""  # closed after the answer
                assert status == 503
                assert headers["connection"] == "close"
                assert json.loads(body)["code"] == "overloaded"
            # one thread per admitted connection, none for the refused
            assert threading.active_count() == baseline + 4
            for conn in clients:
                conn.close()
            assert _wait_for(lambda: threading.active_count() == baseline)


class TestBackendConcurrency:
    def _drive(self, port: int, clients: int) -> None:
        def one() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                for _ in range(2):
                    conn.request("POST", "/v1/search", body=_search_text("store texas"))
                    assert conn.getresponse().read()
            finally:
                conn.close()

        threads = [threading.Thread(target=one) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_one_worker_serialises_backend_calls(self):
        counting = Counting(delay=0.1)
        backend = Hooked(_service(), counting)
        with ConcurrentExecutor(max_workers=1) as executor:
            with HttpServer(backend, port=0, executor=executor) as server:
                self._drive(server.port, clients=2)
        assert counting.calls == 4
        assert counting.most == 1

    def test_concurrent_executor_bounds_backend_calls(self):
        counting = Counting(delay=0.1)
        backend = Hooked(_service(), counting)
        with ConcurrentExecutor(max_workers=2) as executor:
            with HttpServer(backend, port=0, executor=executor) as server:
                self._drive(server.port, clients=4)
        assert counting.calls == 8
        assert counting.most == 2
