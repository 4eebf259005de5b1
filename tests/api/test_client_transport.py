"""ServiceClient's HTTP/1.1 framing, against servers that answer raw bytes.

The client writes each request with one ``sendall`` and reads each answer
with the framing helpers :class:`~repro.api.http.HttpServer` parses
requests with, so it is exactly as strict: a malformed status line, a
missing / non-digit / conflicting ``Content-Length``, a header line
without a colon or over 64 KiB and a short body each fail the request,
and the connection they arrived on is never pooled.  A scripted server
makes every one of those answers on demand; *connections and requests
observed by the server* are the ground truth for "pooled" and "re-sent".
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api import ErrorResponse, SearchRequest, ServiceClient, SnippetService
from repro.api.gateway import build_gateway
from repro.api.http import MAX_BODY_BYTES, HttpServer
from repro.api.protocol import encode_response
from repro.cluster.remote import RemoteShard
from repro.cluster.replication import ReplicaSet, ShardEndpoint
from repro.corpus import Corpus
from repro.errors import ProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace, activate

from test_client_resend import MiniServer


def answer(
    body: bytes = b'{"status": "ok"}', head: bytes = b"HTTP/1.1 200 OK\r\n", headers: bytes = b""
) -> bytes:
    """A well-formed answer unless ``head`` / ``headers`` say otherwise."""
    return (
        head
        + b"Content-Type: application/json\r\n"
        + b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
        + headers
        + b"\r\n"
        + body
    )


class ScriptedServer:
    """Answers the n-th request it reads (over all connections, in arrival
    order) with ``script[n]`` — ``(raw bytes, hang_up)`` — written as is;
    with ``hang_up`` the connection is closed right after.  A request past
    the end of the script is read and recorded but never answered: the
    server stalls.  ``requests`` holds the path of every request read,
    ``connections`` counts accepted connections."""

    def __init__(self, script: list[tuple[bytes, bool]]):
        self.script = list(script)
        self.connections = 0
        self.requests: list[str] = []
        self._lock = threading.Lock()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        try:
            while True:
                path = MiniServer._read_request(conn)
                if path is None:
                    return
                with self._lock:
                    index = len(self.requests)
                    self.requests.append(path)
                if index >= len(self.script):
                    continue  # stall: read on, never answer
                raw, hang_up = self.script[index]
                conn.sendall(raw)
                if hang_up:
                    return
        except OSError:
            pass
        finally:
            conn.close()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()


class RecordingSocket:
    """A socket that records every write the client makes on it."""

    def __init__(self, sock: socket.socket, writes: list[bytes]):
        self._sock = sock
        self._writes = writes

    def sendall(self, data: bytes) -> None:
        self._writes.append(bytes(data))
        self._sock.sendall(data)

    def send(self, data: bytes) -> int:
        self._writes.append(bytes(data))
        return self._sock.send(data)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


@pytest.fixture()
def writes(monkeypatch) -> list[bytes]:
    """Every write any ServiceClient makes from here on, one entry per call."""
    recorded: list[bytes] = []
    real_connect = ServiceClient._connect

    def recording_connect(self):
        conn = real_connect(self)
        conn.sock = RecordingSocket(conn.sock, recorded)
        return conn

    monkeypatch.setattr(ServiceClient, "_connect", recording_connect)
    return recorded


class TestOneWritePerRequest:
    def test_head_and_body_go_out_in_one_sendall(self, writes):
        with MiniServer(serve_per_connection=100) as server:
            with ServiceClient(port=server.port) as client:
                payload = SearchRequest(query="store texas", document="stores").to_dict()
                assert client.post(payload)["path"] == "/v1/search"
                assert client.health()["path"] == "/v1/health"
            assert server.connections == 1
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert len(writes) == 2  # one per request
        post, get = writes
        assert post.startswith(b"POST /v1/search HTTP/1.1\r\n")
        assert b"\r\nContent-Length: %d\r\n" % len(body) in post
        assert post.endswith(b"\r\n\r\n" + body)
        assert get.startswith(b"GET /v1/health HTTP/1.1\r\n")
        assert get.endswith(b"\r\n\r\n")
        assert b"Content-Length" not in get


class TestRequestLine:
    @pytest.mark.parametrize("request_id", ["a b", "x\r\nEvil: 1", "café"])
    def test_a_trace_id_that_would_break_the_request_line_is_refused(self, request_id):
        # Nothing listens on port 1: a ProtocolError, not a refused
        # connection, shows the id was rejected before any connect.
        with pytest.raises(ProtocolError, match="invalid trace id"):
            ServiceClient(port=1).trace(request_id)


MALFORMED = {
    "status line without a code": (answer(head=b"HTTP/1.1 OK\r\n"), ProtocolError),
    "status line not HTTP": (answer(head=b"SSH-2.0-OpenSSH_9.6\r\n"), ProtocolError),
    "missing Content-Length": (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
        ProtocolError,
    ),
    "signed Content-Length": (b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}", ProtocolError),
    "non-digit Content-Length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}",
        ProtocolError,
    ),
    "conflicting Content-Length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        ProtocolError,
    ),
    "header line without a colon": (
        b"HTTP/1.1 200 OK\r\nContent-Length 2\r\n\r\n{}",
        ProtocolError,
    ),
    "header line over 64 KiB": (
        answer(headers=b"X-Padding: " + b"a" * (64 * 1024) + b"\r\n"),
        ProtocolError,
    ),
    "chunked body": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        ProtocolError,
    ),
}


class TestMalformedAnswers:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_answer_fails_and_is_never_pooled(self, case):
        # A good answer warms the connection; the malformed one arrives on
        # it (reused, yet not re-sent — bytes came back); the next request
        # must open a fresh connection.
        raw, error = MALFORMED[case]
        with ScriptedServer([(answer(), False), (raw, False), (answer(), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.health() == {"status": "ok"}
                with pytest.raises(error):
                    client.health()
                assert client.health() == {"status": "ok"}
            assert server.requests == ["/v1/health"] * 3
            assert server.connections == 2

    @pytest.mark.parametrize("hang_up_after", ["status line", "headers", "part of the body"])
    def test_answer_cut_short_fails_and_is_never_pooled(self, hang_up_after):
        full = answer(body=b'{"status": "ok", "padding": "xxxxxxxx"}')
        cut = {
            "status line": full.index(b"\r\n") + 2,
            "headers": full.index(b"\r\n\r\n") + 2,
            "part of the body": len(full) - 5,
        }[hang_up_after]
        with ScriptedServer([(answer(), False), (full[:cut], True), (answer(), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.health() == {"status": "ok"}
                with pytest.raises(OSError):
                    client.health()
                assert client.health() == {"status": "ok"}
            assert server.requests == ["/v1/health"] * 3
            assert server.connections == 2


class TestAnswerBody:
    def test_a_non_utf8_body_is_an_internal_error_not_an_exception(self):
        body = b'\xff\xfe{"kind": "search_response"}'
        request = SearchRequest(query="store texas", document="stores")
        with ScriptedServer([(answer(body=body), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                with pytest.raises(ProtocolError, match="not UTF-8"):
                    client.post(request.to_dict())
        with ScriptedServer([(answer(body=body), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                response = client.execute(request)
        assert isinstance(response, ErrorResponse)
        assert response.code == "internal"

    def test_a_declared_length_over_the_bound_fails_before_the_body(self):
        # The head promises one byte more than the bound and no body
        # follows: reading it would stall until the timeout.
        oversized = (
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        )
        with ScriptedServer([(answer(), False), (oversized, False), (answer(), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.health() == {"status": "ok"}
                started = time.monotonic()
                with pytest.raises(ProtocolError, match="exceeds"):
                    client.health()
                assert time.monotonic() - started < 2.5
                assert client.health() == {"status": "ok"}
            assert server.connections == 2  # the oversized answer's was not pooled


class RecordingBackend:
    """Forwards to ``inner``, keeping every body the server was handed."""

    def __init__(self, inner):
        self.inner = inner
        self.bodies: list[bytes] = []

    def handle_encoded(self, payload, request=None):
        code, body = self.inner.handle_encoded(payload, request)
        self.bodies.append(body)
        return code, body

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestServerBodies:
    """``ServiceClient``'s wire entry points answer with the server's bytes."""

    @pytest.fixture()
    def served(self):
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        recording = RecordingBackend(build_gateway(SnippetService(corpus)))
        with HttpServer(recording, port=0) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                yield client, recording
        recording.close()

    def test_handle_json_is_the_servers_body_meta_trace_included(self, served):
        client, recording = served
        request = SearchRequest(query="store texas", document="stores", include_meta=True)
        text = client.handle_json(json.dumps(request.to_dict()))
        assert [text.encode("utf-8")] == recording.bodies
        assert "trace" in json.loads(text)["meta"]
        assert json.loads(text) == client.handle_text(json.dumps(request.to_dict())) | {
            "meta": json.loads(text)["meta"]  # timings and trace differ per request
        }

    def test_a_payload_that_does_not_parse_is_rejected_by_the_server(self, served):
        client, recording = served
        code, body = client.handle_encoded({"kind": "search", "query": 3})
        assert code == "bad_request"
        assert [body] == recording.bodies

    def test_a_transport_failure_is_an_internal_error(self):
        # Nothing listens on port 1.
        code, body = ServiceClient(port=1, timeout=1.0).handle_encoded(
            SearchRequest(query="store texas", document="stores").to_dict()
        )
        assert code == "internal"
        assert json.loads(body)["code"] == "internal"


class TestConnectionReuse:
    def test_keep_alive_answer_is_pooled_whatever_the_header_case(self):
        odd_case = answer().replace(b"Content-Length", b"CONTENT-length")
        with ScriptedServer([(odd_case, False), (odd_case, False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.health() == {"status": "ok"}
                assert client.health() == {"status": "ok"}
            assert server.connections == 1

    @pytest.mark.parametrize(
        "closing",
        [
            answer(headers=b"Connection: close\r\n"),
            answer(headers=b"connection: Keep-Alive, CLOSE\r\n"),
            answer(head=b"HTTP/1.0 200 OK\r\n"),
        ],
        ids=["connection-close", "close-token-any-case", "http-1.0"],
    )
    def test_closing_answer_opens_a_fresh_connection_next(self, closing):
        # The server keeps the socket open: only the client's reading of
        # the answer decides that the next request goes elsewhere.
        with ScriptedServer([(closing, False), (answer(), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                assert client.health() == {"status": "ok"}
                assert client.health() == {"status": "ok"}
            assert server.connections == 2

    def test_trace_spans_header_is_read_case_insensitively(self):
        spans = [
            {"name": "remote-work", "id": "s:1", "parent": None,
             "seconds": 0.001, "start": 0.0, "process": "s"}
        ]
        header = b"x-REPRO-trace-SPANS: " + json.dumps(spans).encode("ascii") + b"\r\n"
        with ScriptedServer([(answer(headers=header), False)]) as server:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                trace = Trace()
                with activate(trace):
                    assert client.post({"kind": "search"}) == {"status": "ok"}
        assert "remote-work" in [span.name for span in trace.spans]


class TestTimeouts:
    def test_a_timed_out_read_is_not_resent(self):
        # The server answers once, then reads the next request and stalls.
        # The read must fail after one timeout and reach the server once:
        # a timeout is not a stale keep-alive socket.
        timeout = 0.5
        with ScriptedServer([(answer(), False)]) as server:
            with ServiceClient(port=server.port, timeout=timeout) as client:
                assert client.health() == {"status": "ok"}
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.health()
                elapsed = time.monotonic() - started
            assert server.requests == ["/v1/health", "/v1/health"]
            assert server.connections == 1
        assert elapsed < 1.8 * timeout


class TestShardFailover:
    @pytest.mark.parametrize(
        "garbage",
        [answer(head=b"HTTP/1.1 2xx Fine\r\n"), answer(body=b'\xff\xfe{"kind": "error"}')],
        ids=["malformed-status-line", "non-utf8-body"],
    )
    def test_malformed_answer_marks_the_endpoint_down_and_fails_over(self, garbage):
        request = SearchRequest(query="store texas", document="stores")
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        service = SnippetService(corpus)
        with ScriptedServer([(garbage, False)]) as bad, HttpServer(service) as good:
            replica_set = ReplicaSet(
                0,
                [
                    ShardEndpoint(ServiceClient(port=bad.port, timeout=5.0)),
                    ShardEndpoint(ServiceClient(port=good.port, timeout=5.0)),
                ],
            )
            shard = RemoteShard(replica_set, ["stores"], MetricsRegistry())
            try:
                response = shard.search(request, "stores")
            finally:
                replica_set.close()
            primary, replica = replica_set.endpoints()
            assert bad.requests == ["/v1/search"]  # tried first, once
            assert not primary.healthy
            assert replica.healthy
        assert response.to_dict() == service.execute(request).to_dict()
        assert encode_response(response) == service.handle_json(json.dumps(request.to_dict()))
        service.close()
