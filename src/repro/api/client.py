"""A typed in-repo client for the HTTP frontend (:mod:`repro.api.http`).

:class:`ServiceClient` speaks the versioned endpoints over plain sockets
and is **itself a** :class:`~repro.api.backend.ServingBackend` — a remote
service plugs in behind the exact seam the local facades
implement, so code written against the protocol cannot tell a
:class:`~repro.api.SnippetService` in-process from one across the network::

    from repro.api import SearchRequest, ServiceClient

    client = ServiceClient("127.0.0.1", 8080)
    response = client.execute(SearchRequest(query="store texas", document="stores"))

``execute*`` return typed protocol responses; transport failures
(connection refused, read timeout) become a structured
:class:`~repro.api.protocol.ErrorResponse` with code ``internal`` instead
of an exception, preserving the backend contract that ``execute*`` never
raise.  The raw endpoints (:meth:`handle_dict`, :meth:`handle_encoded`
and the inherited ``handle_text`` / ``handle_json``) route on the
payload's ``kind`` and return the server's answer as it came.

Every request goes through one exchange over a small pool of idle HTTP
keep-alive connections: it takes the most recently returned idle
connection (or opens one), runs the round trip without holding any lock,
and puts the connection back on a LIFO stack of at most
:data:`MAX_IDLE_CONNECTIONS` (unless the server answered ``Connection:
close``).  One client is therefore thread-safe and shared: N threads
cost at most N connections, and a stream of requests from one thread
rides one connection.  ``keep_alive=False`` keeps no idle connection (a
connection per request) on the same path; :meth:`close` closes the idle
stack and the client stays usable.

A connection is one ``TCP_NODELAY`` socket plus a buffered reader that
lives as long as it.  A request is one ``sendall`` of head and body; the
answer is read by the framing helpers of :mod:`repro.api.http` that
:class:`~repro.api.http.HttpServer` parses requests with, so both ends
apply the same rules (64 KiB line bound, ``name: value`` header lines,
one digits-only ``Content-Length``, no short body).  A transport failure
raises :class:`OSError` (the connection failed or ended early) or
:class:`~repro.errors.ProtocolError` (the bytes broke the framing) and
closes its connection; it is never pooled.

The write rule: a request to :data:`NON_IDEMPOTENT_PATHS` (updates and
replication ops) **never** rides a connection an earlier request used —
it always opens a fresh one, and is never re-sent.  A pooled socket may
have been closed by the server since its last answer, and a write that
fails on it cannot tell "never arrived" from "applied, answer lost".  An
idempotent request that fails on a *reused* connection closes every idle
connection of the client (the server dropped one; the rest are suspect)
and is re-sent once on a fresh one — but only when the server hung up
before a byte of the answer arrived (end of stream, ``ECONNRESET`` or
``EPIPE``).  A timeout is not a stale socket: a read against a wedged
server raises after one ``timeout`` and reaches it once.  Any other
transport failure raises to the caller; a cluster read fails over to the
next replica (:class:`repro.cluster.remote.RemoteShard`), not back to the
same server.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from typing import Any

from repro.api.backend import ServingBackendBase
from repro.obs.trace import (
    TRACE_HEADER,
    TRACE_SPANS_HEADER,
    current_trace,
    trace_header_value,
)
from repro.api.protocol import (
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
    decode_batch_response,
    encode_response,
    parse_response,
)
from repro.api.http import POST_ENDPOINTS, _keeps_alive, _read_response
from repro.errors import ProtocolError

#: request kind → versioned endpoint (the inverse of the server's table)
ENDPOINT_BY_KIND = {kind: path for path, kind in POST_ENDPOINTS.items()}

#: endpoints whose requests may already have been applied when the
#: response is lost — never re-sent, and always sent on a fresh connection
NON_IDEMPOTENT_PATHS = ("/v1/update", "/v1/replicate")

#: the endpoint whose answers :func:`decode_batch_response` tries first
_BATCH_PATH = ENDPOINT_BY_KIND[BatchRequest.kind]

#: the most idle keep-alive connections one client keeps; a connection
#: returned to a full stack is closed
MAX_IDLE_CONNECTIONS = 8


#: bytes a request target may not carry (they would end or split the
#: request line)
_UNSAFE_PATH_CHAR = re.compile("[^\x21-\x7e]")

#: response header names arrive lower-cased from the shared parser
_TRACE_SPANS_KEY = TRACE_SPANS_HEADER.lower()


def _idempotent(method: str, path: str) -> bool:
    return method == "GET" or path not in NON_IDEMPOTENT_PATHS


class Answer(dict):
    """A JSON object answer, plus the ``text`` it was decoded from — what
    lets a coordinator forward a shard answer it has validated without
    encoding it again.  ``wires`` is, for a batch answer in the form
    :func:`~repro.api.protocol.encode_response` writes, the text of each
    of its responses per entry (:func:`~repro.api.protocol.decode_batch_response`);
    ``None`` for any other answer."""

    __slots__ = ("text", "wires")

    def __init__(
        self,
        payload: dict[str, Any],
        text: str,
        wires: tuple[tuple[str, ...], ...] | None = None,
    ):
        super().__init__(payload)
        self.text = text
        self.wires = wires


class _Connection:
    """One keep-alive connection: the socket and a buffered reader that
    lives as long as it, so bytes read ahead stay with their connection."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServiceClient(ServingBackendBase):
    """Drive a served backend over HTTP; a backend itself."""

    backend_name = "http-client"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        keep_alive: bool = True,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle_cap = MAX_IDLE_CONNECTIONS if keep_alive else 0
        self._host_line = f"Host: {host}:{port}\r\n"
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> _Connection:
        """Open a new connection to the server."""
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Connection(sock)

    def _pop_idle(self) -> _Connection | None:
        with self._idle_lock:
            return self._idle.pop() if self._idle else None

    def _push_idle(self, conn: _Connection) -> None:
        with self._idle_lock:
            if len(self._idle) < self._idle_cap:
                self._idle.append(conn)
                return
        conn.close()

    def _frame(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> bytes:
        """Head and body of one request, ready for a single ``sendall``."""
        head = f"{method} {path} HTTP/1.1\r\n{self._host_line}"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        if body is None:
            return (head + "\r\n").encode("latin-1")
        return (head + f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body

    @staticmethod
    def _ask(
        conn: _Connection, request: bytes
    ) -> tuple[str, int, dict[str, str], bytes] | None:
        """Send one request and read its answer; None when the server hung
        up before the first byte of the answer (end of stream,
        ``ECONNRESET``, ``EPIPE``) — a stale keep-alive socket."""
        try:
            conn.sock.sendall(request)
            # Look at the first byte without consuming it.
            if not conn.reader.peek(1):
                return None
        except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError):
            return None
        return _read_response(conn.reader)

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[str, dict[str, str]]:
        """One request and its answer over a pooled connection: the body
        text and the response headers (names lower-cased).  Raises
        :class:`OSError` or :class:`ProtocolError` on transport failure
        (a body that is not UTF-8 included)."""
        request = self._frame(method, path, body, headers)
        conn = self._pop_idle() if _idempotent(method, path) else None
        for _attempt in (1, 2):
            reused = conn is not None
            if conn is None:
                conn = self._connect()
            try:
                answer = self._ask(conn, request)
            except (OSError, ProtocolError):
                conn.close()  # a timeout included: never re-sent
                raise
            if answer is None:
                conn.close()
                if not reused:
                    raise ConnectionResetError(
                        "the server closed the connection without answering"
                    )
                # No backoff by design: this re-sends once, on a fresh
                # connection, a read whose pooled socket the server had
                # already closed — not a retry against a failing server.
                # Writes only ever use fresh connections.
                self.close()
                conn = None
                continue
            version, _status, response_headers, data = answer
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                conn.close()
                raise ProtocolError(f"server returned a body that is not UTF-8: {exc}") from exc
            if _keeps_alive(version, response_headers.get("connection", "")):
                self._push_idle(conn)
            else:
                conn.close()
            return text, response_headers
        raise AssertionError("unreachable: the second attempt uses a fresh connection")

    def _round_trip(self, method: str, path: str, body: bytes | None) -> Answer:
        trace = current_trace()
        if trace is None:
            return self._transport(method, path, body, None)
        # One span covering the whole remote round trip; the server's
        # spans — shipped back in the response header — stitch in
        # underneath it.
        with trace.span(
            f"http:{method} {path}", endpoint=f"{self.host}:{self.port}"
        ):
            return self._transport(method, path, body, trace)

    def _transport(
        self,
        method: str,
        path: str,
        body: bytes | None,
        trace: Any,
    ) -> Answer:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if trace is not None:
            # Propagate the request_id so the server joins this trace
            # instead of starting its own.
            headers[TRACE_HEADER] = trace_header_value(trace)
        text, response_headers = self._exchange(method, path, body, headers)
        remote_spans = response_headers.get(_TRACE_SPANS_KEY)
        if trace is not None and remote_spans:
            # Kept raw: the spans are parsed and stitched in only if
            # someone reads the trace.
            trace.absorb_header(remote_spans)
        if path == _BATCH_PATH:
            decoded = decode_batch_response(text)
            if decoded is not None:
                return Answer(decoded[0], text, decoded[1])
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"server returned a non-JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"server returned a non-object JSON body ({type(payload).__name__})"
            )
        return Answer(payload, text)

    def _post_dict(self, payload: dict[str, Any]) -> Answer:
        kind = payload.get("kind") if isinstance(payload, dict) else None
        # Unroutable payloads (unknown, missing, or unhashable kinds) still
        # go to /v1/search so the *server* produces its canonical
        # structured error for them.
        path = ENDPOINT_BY_KIND.get(kind, "/v1/search") if isinstance(kind, str) else "/v1/search"
        try:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"request payload is not JSON-serialisable: {exc}") from exc
        return self._round_trip("POST", path, body)

    def post(self, payload: dict[str, Any]) -> Answer:
        """POST a raw protocol payload, routed by its ``kind``.

        Unlike :meth:`handle_dict` this **raises** on transport failure
        (``OSError`` / :class:`~repro.errors.ProtocolError`) — the seam a failover
        coordinator needs, because "this endpoint is unreachable" must be
        distinguishable from "the service answered with an error".  The
        answer is a dict that also carries its text (:class:`Answer`).
        """
        return self._post_dict(payload)

    def replicate(self, payload: dict[str, Any]) -> dict[str, Any]:
        """POST a replication op to ``/v1/replicate`` (raises on transport
        failure).  Replication is non-idempotent: never re-sent, and always
        sent on a fresh connection."""
        try:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"replication payload is not JSON-serialisable: {exc}") from exc
        return self._round_trip("POST", "/v1/replicate", body)

    @staticmethod
    def _transport_error(
        exc: Exception, request: dict[str, Any] | None
    ) -> ErrorResponse:
        return ErrorResponse(
            error=type(exc).__name__,
            message=f"transport failure talking to the service: {exc}",
            request=request,
            code="internal",
        )

    # ------------------------------------------------------------------ #
    # the backend surface
    # ------------------------------------------------------------------ #
    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        try:
            return parse_response(self._post_dict(request.to_dict()))
        except (OSError, ProtocolError) as exc:
            return self._transport_error(exc, request.to_dict())

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        try:
            return parse_response(self._post_dict(batch.to_dict()))
        except (OSError, ProtocolError) as exc:
            return self._transport_error(exc, batch.to_dict())

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        try:
            return parse_response(self._post_dict(request.to_dict()))
        except (OSError, ProtocolError) as exc:
            return self._transport_error(exc, request.to_dict())

    def handle_dict(
        self,
        payload: dict[str, Any],
        request: SearchRequest | BatchRequest | UpdateRequest | None = None,
    ) -> dict[str, Any]:
        """Ship the raw payload to the server and return its raw answer —
        parsing, validation and error shaping all happen server-side, so
        the dict that comes back is exactly what any other backend's
        ``handle_dict`` would have produced."""
        del request  # the server re-parses; a pre-parsed form saves nothing
        try:
            return self._post_dict(payload)
        except (OSError, ProtocolError) as exc:
            echoed = payload if isinstance(payload, dict) else None
            return self._transport_error(exc, echoed).to_dict()

    def handle_encoded(
        self,
        payload: Any,
        request: SearchRequest | BatchRequest | UpdateRequest | None = None,
    ) -> tuple[str | None, bytes]:
        """Ship the raw payload to the server and return the bytes it
        answered with, and the answer's error code — the server's own
        body, ``meta.trace`` included, neither re-parsed nor re-encoded."""
        del request  # the server re-parses; a pre-parsed form saves nothing
        try:
            answer = self._post_dict(payload)
        except (OSError, ProtocolError) as exc:
            echoed = payload if isinstance(payload, dict) else None
            return "internal", encode_response(self._transport_error(exc, echoed)).encode("utf-8")
        code = (answer.get("code") or "internal") if answer.get("kind") == "error" else None
        return code, answer.text.encode("utf-8")

    # ------------------------------------------------------------------ #
    # monitoring endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        """``GET /v1/health`` (raises on transport failure — health checks
        must distinguish "down" from "unhealthy answer")."""
        return self._round_trip("GET", "/v1/health", None)

    def capabilities(self) -> dict[str, Any]:
        """The *served* backend's capabilities (from the health endpoint)."""
        return self.health().get("backend", {})

    def stats(self) -> dict[str, Any]:
        """``GET /v1/stats`` — the served backend's counters."""
        return self._round_trip("GET", "/v1/stats", None)

    def metrics(self) -> dict[str, Any]:
        """``GET /v1/metrics`` — the versioned JSON metrics snapshot."""
        return self._round_trip("GET", "/v1/metrics", None)

    def metrics_text(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — the text exposition body.

        Rides the connection pool like every request, but with no JSON
        decode and no trace span: this is the scrape path, and a scraper's
        failure handling belongs to the scraper.
        """
        text, _headers = self._exchange("GET", "/v1/metrics?format=prometheus", None, {})
        return text

    def trace(self, request_id: str | None = None) -> dict[str, Any]:
        """``GET /v1/trace`` (newest traces) or ``/v1/trace/<id>`` (one)."""
        if request_id is not None and _UNSAFE_PATH_CHAR.search(request_id):
            raise ProtocolError(f"invalid trace id {request_id!r}")
        path = "/v1/trace" if request_id is None else f"/v1/trace/{request_id}"
        return self._round_trip("GET", path, None)

    def close(self) -> None:
        """Close every idle connection; the client stays usable (the next
        request opens a fresh one)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __repr__(self) -> str:
        with self._idle_lock:
            idle = len(self._idle)
        return f"<ServiceClient http://{self.host}:{self.port} idle={idle}>"
