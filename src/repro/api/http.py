"""The HTTP/1.1 JSON frontend over any :class:`ServingBackend`.

The original eXtract demo was a web service (§4); this module is the
reproduction's network face — stdlib sockets and threads only, no
third-party dependencies.  Versioned endpoints:

===========================  =====================================================
``POST /v1/search``          one :class:`~repro.api.SearchRequest` payload
``POST /v1/batch``           one :class:`~repro.api.BatchRequest` payload
``POST /v1/update``          one :class:`~repro.api.UpdateRequest` payload
``GET /v1/health``           liveness + backend capabilities
``GET /v1/stats``            the backend's serving counters
===========================  =====================================================

A server built with ``replicate_backend=`` additionally answers
``POST /v1/replicate`` (cluster replication ops — see
:mod:`repro.cluster.remote`); the endpoint bypasses ``backend`` and its
gateway by design and stays out of the public endpoint tables.

Contract: for a well-routed request the response **body is byte-identical
to the in-process** ``backend.handle_json(body)`` — both are the bytes of
one backend call, :meth:`~repro.api.backend.ServingBackendBase.handle_encoded`,
which encodes through :func:`~repro.api.protocol.encode_response`; the HTTP
layer adds transport, never semantics.  Protocol failures stay structured
:class:`~repro.api.protocol.ErrorResponse` bodies, with the HTTP status
derived from their machine-readable ``code`` via the documented
:data:`~repro.api.protocol.HTTP_STATUS_BY_CODE` mapping (``bad_request`` →
400, ``unknown_document`` → 404, ``overloaded`` → 503,
``deadline_exceeded`` → 504, ...).

One thread per connection: an acceptor thread hands each accepted socket
to its own daemon thread, which reads a request with blocking reads,
runs the backend call in place and writes head and body with one
``sendall`` — no event loop and no hand-off between threads.  At most
``executor.max_workers`` backend calls run at once (8 without an
executor; ``ConcurrentExecutor(max_workers=1)`` serialises the whole
server, useful for deterministic tests); the rest wait on their
connection's own thread.  At most :data:`MAX_CONNECTIONS` connections
are served at once; one more is answered ``503 overloaded`` and closed,
and one that sends nothing for :data:`IDLE_TIMEOUT` seconds is closed
without an answer.  An HTTP/1.1 connection persists unless the client
sends ``Connection: close``; an HTTP/1.0 one only when it sends
``Connection: keep-alive`` (RFC 9112 §9.3).

HTTP/1.1 framing is decided in this module only: :func:`_read_request`
here and :func:`_read_response`, which
:class:`~repro.api.client.ServiceClient` reads its answers with, share
the line bound, the header-block parser and the ``Content-Length`` rule.
A request that breaks the framing, or whose body is not UTF-8, is
answered ``400 bad_request`` and its connection closed.

Run it from synchronous code (tests, the CLI ``serve`` command)::

    with HttpServer(backend, port=0) as server:
        print(server.port)   # the bound port
        ...                  # server answers until the with-block exits
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, BinaryIO

from repro.api.backend import ServingBackend
from repro.api.executors import Executor
from repro.api.protocol import (
    BatchRequest,
    ErrorResponse,
    SearchRequest,
    UpdateRequest,
    code_for_exception,
    encode_response,
    http_status_for_code,
)
from repro.errors import ExtractError, ProtocolError
from repro.obs.clock import monotonic
from repro.obs.trace import TRACE_SPANS_HEADER, Trace, activate, parse_trace_header

#: request kind expected by each POST endpoint
POST_ENDPOINTS = {
    "/v1/search": SearchRequest.kind,
    "/v1/batch": BatchRequest.kind,
    "/v1/update": UpdateRequest.kind,
}

GET_ENDPOINTS = ("/v1/health", "/v1/stats", "/v1/metrics", "/v1/trace")

#: traces are addressed by id under this prefix (``GET /v1/trace/<id>``)
TRACE_PREFIX = "/v1/trace/"

#: most recent traces listed by a bare ``GET /v1/trace``
TRACE_LIST_COUNT = 10

#: the replication endpoint, served only when the server was built with a
#: ``replicate_backend``.  Deliberately NOT in :data:`POST_ENDPOINTS`:
#: replication is cluster plumbing, not part of the public protocol
#: surface (it does not appear in 404 listings, kind routing or the
#: client's endpoint table for requests).
REPLICATE_ENDPOINT = "/v1/replicate"

#: largest accepted request body — and response body, on the client's
#: side; a bound, not a tuning knob — one XML document per update request
#: easily fits.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: largest accepted request line, header line and header block; a longer
#: one is a 400, not a dropped connection
MAX_HEADER_BYTES = 64 * 1024

#: most connections served at once; a bound, not a tuning knob — one more
#: is answered ``503 overloaded`` and closed without a thread
MAX_CONNECTIONS = 256

#: seconds a connection may stay silent; a bound, not a tuning knob — a
#: peer that sends no byte for this long is closed without an answer, so
#: idle peers cannot hold every :data:`MAX_CONNECTIONS` slot
IDLE_TIMEOUT = 60.0

#: backend calls served at once by a server built without an executor
_DEFAULT_WORKERS = 8

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _error_body(message: str, code: str, request: dict[str, Any] | None = None) -> dict[str, Any]:
    """A transport-level failure in the same ErrorResponse wire shape the
    protocol uses everywhere else, so clients parse exactly one format."""
    return ErrorResponse(
        error="ProtocolError", message=message, request=request, code=code
    ).to_dict()


class HttpServer:
    """Serve a :class:`ServingBackend` over HTTP/1.1 (keep-alive, JSON).

    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    once the server is up.  ``executor`` states how many backend calls
    run at once (its ``max_workers``); the server runs each call on the
    connection's own thread and submits nothing to it.  ``max_requests``
    stops the server after N served requests — the hook scripted smoke
    runs and the CLI use for bounded serving.
    """

    def __init__(
        self,
        backend: ServingBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Executor | None = None,
        max_requests: int | None = None,
        replicate_backend: Any | None = None,
    ):
        self.backend = backend
        #: a :class:`~repro.cluster.remote.ShardBackend` (anything with a
        #: ``handle_replicate(payload) -> dict``) serving POST
        #: /v1/replicate.  Replication deliberately bypasses ``backend`` —
        #: usually a gateway — so admission control shedding
        #: reads can never stall the primary→replica delta stream.
        self.replicate_backend = replicate_backend
        self.host = host
        self.port = port
        workers = executor.max_workers if executor is not None else _DEFAULT_WORKERS
        self._slots = threading.BoundedSemaphore(workers)
        self.max_requests = max_requests
        self.requests_served = 0
        # Guards requests_served, the listener and the connection table.
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        #: open connection → the thread serving it
        self._connections: dict[socket.socket, threading.Thread] = {}
        #: set once the server stops or spends its request budget
        self._done = threading.Event()
        # The observability surface (GET /v1/metrics, GET /v1/trace) is
        # the backend's own: a gateway exposes both.
        self.registry = getattr(backend, "registry", None)
        self.trace_buffer = getattr(backend, "trace_buffer", None)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _serve_payload(
        self,
        method: str,
        path: str,
        body: str,
        query: str = "",
        trace_request_id: str | None = None,
    ) -> tuple[int, "dict[str, Any] | str | bytes", dict[str, str]]:
        """One request → (status, response dict, raw text or encoded JSON
        body, extra headers).  Runs on the connection's thread — everything
        here may block."""
        if path == REPLICATE_ENDPOINT and self.replicate_backend is not None:
            status, payload = self._serve_replicate(method, body)
            return status, payload, {}
        if path.startswith(TRACE_PREFIX):
            return self._serve_trace(method, path[len(TRACE_PREFIX) :])
        if path not in POST_ENDPOINTS and path not in GET_ENDPOINTS:
            status, payload = self._route_miss(method, path)
            return status, payload, {}
        if method == "GET":
            if path == "/v1/health":
                return 200, {"status": "ok", "backend": self.backend.capabilities()}, {}
            if path == "/v1/stats":
                return 200, self.backend.stats(), {}
            if path == "/v1/metrics":
                return self._serve_metrics(query)
            if path == "/v1/trace":
                return self._serve_trace(method, None)
        if method != "POST" or path not in POST_ENDPOINTS:
            # The endpoint exists but not under this verb — 405, distinct
            # from the 404 a missing path gets (the documented semantics
            # of the two codes).
            allowed = "POST" if path in POST_ENDPOINTS else "GET"
            return (
                405,
                _error_body(
                    f"method {method} is not allowed on {path}; use {allowed}",
                    code="method_not_allowed",
                ),
                {},
            )
        if trace_request_id is None:
            status, payload = self._serve_post(path, body)
            return status, payload, {}
        # An X-Repro-Trace header joins this server into the caller's
        # trace: the backend records spans under the propagated
        # request_id, and the recorded spans ship back in a response
        # header — the response *body* stays byte-identical.
        trace = Trace(request_id=trace_request_id, process=f"server:{self.port}")
        with activate(trace):
            with trace.span(f"http:{path}"):
                status, payload = self._serve_post(path, body)
        if self.trace_buffer is not None:
            self.trace_buffer.put(trace)
        spans = json.dumps(trace.to_wire()["spans"], separators=(",", ":"))
        return status, payload, {TRACE_SPANS_HEADER: spans}

    def _serve_post(self, path: str, body: str) -> tuple[int, "dict[str, Any] | bytes"]:
        """Serve one protocol POST (search/batch/update) via the backend:
        the status and the backend's encoded body."""
        expected_kind = POST_ENDPOINTS[path]
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, ValueError):
            # handle_text reproduces the canonical invalid-JSON error.
            response = self.backend.handle_text(body)
            return http_status_for_code(response.get("code")), response
        if isinstance(payload, dict):
            kind = payload.get("kind")
            # Only a *valid but different* kind is a misroute; unknown
            # or ill-typed kinds fall through to the backend, whose
            # canonical structured error keeps HTTP bytes identical to
            # handle_json.
            if kind != expected_kind and kind in POST_ENDPOINTS.values():
                return 400, _error_body(
                    f"endpoint {path} serves kind {expected_kind!r}, "
                    f"got {kind!r} (POST /v1/<kind> must match the payload kind)",
                    code="bad_request",
                    request=payload,
                )
        # Already parsed — hand the object over directly; re-parsing the
        # text would deserialise every request body twice.
        code, encoded = self.backend.handle_encoded(payload)
        return (200 if code is None else http_status_for_code(code)), encoded

    def _serve_metrics(
        self, query: str
    ) -> tuple[int, "dict[str, Any] | str", dict[str, str]]:
        """``GET /v1/metrics`` — versioned JSON, or Prometheus text with
        ``?format=prometheus``."""
        if self.registry is None:
            return (
                404,
                _error_body(
                    "this server exports no metrics registry "
                    "(serve the backend through build_gateway)",
                    code="not_found",
                ),
                {},
            )
        wants_prometheus = any(
            part == "format=prometheus" for part in query.split("&")
        )
        if wants_prometheus:
            return 200, self.registry.render_prometheus(), {}
        return 200, self.registry.snapshot(), {}

    def _serve_trace(
        self, method: str, request_id: str | None
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """``GET /v1/trace`` (newest list) and ``GET /v1/trace/<id>``."""
        if method != "GET":
            return (
                405,
                _error_body(
                    f"method {method} is not allowed on /v1/trace; use GET",
                    code="method_not_allowed",
                ),
                {},
            )
        if self.trace_buffer is None:
            return (
                404,
                _error_body(
                    "this server keeps no trace buffer "
                    "(serve the backend through build_gateway)",
                    code="not_found",
                ),
                {},
            )
        if request_id is None:
            return 200, {"traces": self.trace_buffer.newest(TRACE_LIST_COUNT)}, {}
        trace = self.trace_buffer.get(request_id)
        if trace is None:
            return (
                404,
                _error_body(
                    f"no buffered trace {request_id!r} (the ring keeps the "
                    f"newest {self.trace_buffer.capacity})",
                    code="not_found",
                ),
                {},
            )
        return 200, trace, {}

    def _serve_replicate(self, method: str, body: str) -> tuple[int, dict[str, Any]]:
        """Serve one replication op; failures stay structured ErrorResponses."""
        if method != "POST":
            return 405, _error_body(
                f"method {method} is not allowed on {REPLICATE_ENDPOINT}; use POST",
                code="method_not_allowed",
            )
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, ValueError) as exc:
            return 400, _error_body(
                f"replication body is not valid JSON: {exc}", code="bad_request"
            )
        try:
            return 200, self.replicate_backend.handle_replicate(payload)
        except ExtractError as error:
            code = code_for_exception(error)
            echoed = payload if isinstance(payload, dict) else None
            return http_status_for_code(code), ErrorResponse.from_exception(
                error, request=echoed
            ).to_dict()

    def _route_miss(self, method: str, path: str) -> tuple[int, dict[str, Any]]:
        known = sorted([*POST_ENDPOINTS, *GET_ENDPOINTS])
        return 404, _error_body(
            f"no endpoint {method} {path}; available: {', '.join(known)}",
            code="not_found",
        )

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    def _accept(self, listener: socket.socket) -> None:
        """The acceptor: one daemon thread per connection, up to the bound."""
        while True:
            try:
                sock, _ = listener.accept()
            # Not a retry of one peer: a failed accept (stop() shut the
            # listener, or the process ran out of descriptors) backs off
            # until stop() and then ends the loop.
            # repro: ignore[no-unbounded-retry]
            except OSError:
                if self._done.wait(0.1):
                    return
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                stopped = self._listener is not listener
                admitted = not stopped and len(self._connections) < MAX_CONNECTIONS
                if admitted:
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(sock,),
                        name="repro-http-connection",
                        daemon=True,
                    )
                    self._connections[sock] = thread
            if admitted:
                thread.start()
                continue
            with sock:
                if not stopped:
                    _refuse(sock)

    def _serve_connection(self, sock: socket.socket) -> None:
        """Serve one connection's requests in order until it closes, or
        until it stays silent for :data:`IDLE_TIMEOUT` seconds."""
        try:
            with sock, sock.makefile("rb") as reader:
                sock.settimeout(IDLE_TIMEOUT)
                keep_alive = True
                while keep_alive:
                    try:
                        parsed = _read_request(reader)
                    except ProtocolError as error:
                        sock.sendall(
                            _response(400, _error_body(str(error), code="bad_request"), False)
                        )
                        return
                    if parsed is None:
                        return
                    method, raw_path, version, headers, body = parsed
                    path, _, query = raw_path.partition("?")
                    keep_alive = _keeps_alive(version, headers.get("connection", ""))
                    trace_request_id = parse_trace_header(headers.get("x-repro-trace"))
                    extra_headers: dict[str, str] = {}
                    with self._slots:
                        try:
                            status, payload, extra_headers = self._serve_payload(
                                method,
                                path,
                                body,
                                query,
                                trace_request_id,
                            )
                        # The HTTP edge: any crash becomes a 500 'internal'
                        # body instead of a dropped connection.
                        # repro: ignore[no-silent-swallow]
                        except Exception as exc:  # noqa: BLE001 - a crash must answer 500
                            status = 500
                            payload = _error_body(
                                f"internal server error: {exc}", code="internal"
                            )
                            keep_alive = False
                    sock.sendall(_response(status, payload, keep_alive, extra_headers))
                    if self._count_request():
                        return
        except OSError:
            pass  # the peer went away or went silent, or stop() shut the socket
        finally:
            with self._lock:
                self._connections.pop(sock, None)

    def _count_request(self) -> bool:
        """Bump the served counter; True when the request budget is spent."""
        with self._lock:
            self.requests_served += 1
            spent = (
                self.max_requests is not None
                and self.requests_served >= self.max_requests
            )
        if spent:
            self._shut_down()
        return spent

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "HttpServer":
        """Bind, publish :attr:`port` and start accepting connections.

        A bind failure (port taken, address unavailable) raises its
        :class:`OSError` here."""
        if self._acceptor is not None:
            raise RuntimeError("the server is already running")
        listener = socket.create_server((self.host, self.port))
        self.port = listener.getsockname()[1]
        self._done.clear()
        with self._lock:
            self._listener = listener
        self._acceptor = threading.Thread(
            target=self._accept, args=(listener,), name="repro-http", daemon=True
        )
        self._acceptor.start()
        return self

    def _shut_down(self) -> None:
        """Stop accepting and wake every connection's blocked read."""
        with self._lock:
            listener, self._listener = self._listener, None
            connections = list(self._connections)
        self._done.set()
        if listener is not None:
            _shutdown_socket(listener)  # wakes the acceptor's accept()
            listener.close()
        for sock in connections:
            _shutdown_socket(sock)

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and wait for its threads (idempotent)."""
        self._shut_down()
        acceptor, self._acceptor = self._acceptor, None
        if acceptor is None:
            return
        deadline = monotonic() + timeout
        acceptor.join(timeout)
        with self._lock:
            threads = list(self._connections.values())
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(max(0.0, deadline - monotonic()))

    def join(self, timeout: float | None = None) -> None:
        """Block until the server stops or spends its request budget
        (Ctrl-C still interrupts — the CLI's foreground wait)."""
        if self._acceptor is not None:
            self._done.wait(timeout)

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self._listener is not None else "stopped"
        return f"<HttpServer {self.host}:{self.port} backend={self.backend!r} ({state})>"


def _read_line(reader: BinaryIO, what: str) -> bytes:
    """One line, at most :data:`MAX_HEADER_BYTES` long; a longer one is a
    :class:`ProtocolError` (a 400, not a dropped connection)."""
    line = reader.readline(MAX_HEADER_BYTES + 1)
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"HTTP {what} exceeds the limit of {MAX_HEADER_BYTES} bytes"
        )
    return line


def _read_headers(reader: BinaryIO) -> dict[str, str] | None:
    """The header block after a start line, names lower-cased; None when
    the connection ends inside it.

    Shared by both ends (:func:`_read_request` here, :func:`_read_response`
    for :class:`~repro.api.client.ServiceClient`), so one parser decides
    where every message on the wire ends."""
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = _read_line(reader, "header line")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError("HTTP header block exceeds the limit")
        if not line.endswith(b"\n"):
            return None
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            # RFC 9112 §5: a field line is "name: value" with nothing
            # around the name; guessing at anything else is how two
            # parsers come to disagree on where a message ends.
            raise ProtocolError(f"malformed HTTP header line: {line!r}")
        name = name.lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 §6.3: disagreeing lengths leave the framing
            # ambiguous — never pick one.
            raise ProtocolError(
                f"conflicting Content-Length headers {headers[name]!r} and {value!r}"
            )
        headers[name] = value


def _content_length(headers: dict[str, str], default: str | None = "0") -> int:
    """The body length the headers declare.  A message with no
    ``Content-Length`` has ``default`` bytes; ``default=None`` makes the
    header required."""
    encoding = headers.get("transfer-encoding", "identity").lower()
    if encoding not in ("", "identity"):
        # Silently reading length 0 would take an empty body and then
        # misparse the first chunk-size line as the next message.
        raise ProtocolError(
            f"Transfer-Encoding {encoding!r} is not supported; "
            "send a Content-Length body"
        )
    length_text = headers.get("content-length", default)
    if length_text is None:
        raise ProtocolError("HTTP message has no Content-Length")
    # RFC 9112 §6.3: Content-Length is 1*DIGIT; int() would also take a
    # sign, underscores and non-ASCII digits.
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolError(f"invalid Content-Length {length_text!r}")
    return int(length_text)


def _read_request(reader: BinaryIO) -> tuple[str, str, str, dict[str, str], str] | None:
    """Parse one request, its body decoded as UTF-8; None when the
    connection ends before a whole request arrived (a client closing its
    keep-alive connection, a request cut short — never served).  A body
    that is not UTF-8 is a :class:`ProtocolError`, never a guess."""
    request_line = _read_line(reader, "request line")
    if not request_line.endswith(b"\n") or not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed HTTP request line: {request_line!r}")
    method, path, version = parts
    headers = _read_headers(reader)
    if headers is None:
        return None
    length = _content_length(headers)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"request body of {length} bytes exceeds the server limit")
    body = reader.read(length) if length else b""
    if len(body) < length:
        return None
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"request body is not UTF-8: {exc}") from exc
    return method, path, version, headers, text


def _read_response(reader: BinaryIO) -> tuple[str, int, dict[str, str], bytes]:
    """Parse one response: (version, status, headers, body).

    The client's half of the framing, through the same helpers as
    :func:`_read_request`, and as strict: a response must declare its
    ``Content-Length``, and no more than :data:`MAX_BODY_BYTES` of it.
    Bytes that break the framing raise :class:`ProtocolError` (an
    oversized length before any body byte is read); a connection that
    ends inside the response raises :class:`ConnectionResetError` (the
    server went away mid-answer)."""
    status_line = _read_line(reader, "status line")
    if not status_line.endswith(b"\n"):
        raise ConnectionResetError("the server closed the connection inside the status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if (
        len(parts) < 2
        or not parts[0].startswith("HTTP/")
        or len(parts[1]) != 3
        or not (parts[1].isascii() and parts[1].isdigit())
    ):
        raise ProtocolError(f"malformed HTTP status line: {status_line!r}")
    headers = _read_headers(reader)
    if headers is None:
        raise ConnectionResetError("the server closed the connection inside the header block")
    length = _content_length(headers, default=None)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"response body of {length} bytes exceeds the client limit")
    body = reader.read(length) if length else b""
    if len(body) < length:
        raise ConnectionResetError(
            f"the server closed the connection after {len(body)} of {length} body bytes"
        )
    return parts[0], int(parts[1]), headers, body


def _keeps_alive(version: str, connection: str) -> bool:
    """RFC 9112 §9.3: ``close`` ends the connection; otherwise HTTP/1.1
    persists by default and HTTP/1.0 only when the peer asked."""
    tokens = {token.strip() for token in connection.lower().split(",")}
    if "close" in tokens:
        return False
    return version != "HTTP/1.0" or "keep-alive" in tokens


def _response(
    status: int,
    payload: "dict[str, Any] | str | bytes",
    keep_alive: bool,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Head and body of one response, ready for a single ``sendall``.
    ``payload`` is a JSON body already encoded (bytes), one to encode (a
    dict), or raw text."""
    if isinstance(payload, str):
        # Raw text export (the Prometheus exposition format).
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = payload if isinstance(payload, bytes) else encode_response(payload).encode("utf-8")
        content_type = "application/json"
    extra = ""
    for name, value in (extra_headers or {}).items():
        extra += f"{name}: {value}\r\n"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("ascii")
    return head + body


def _refuse(sock: socket.socket) -> None:
    """Answer a connection over :data:`MAX_CONNECTIONS` with one 503."""
    body = _error_body(
        f"the server is serving its limit of {MAX_CONNECTIONS} connections; "
        "retry later",
        code="overloaded",
    )
    try:
        sock.sendall(_response(http_status_for_code("overloaded"), body, False))
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the client already left


def _shutdown_socket(sock: socket.socket) -> None:
    """``shutdown(SHUT_RDWR)``: wakes a thread blocked reading the socket."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already closed
