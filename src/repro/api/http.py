"""The asyncio HTTP/1.1 JSON frontend over any :class:`ServingBackend`.

The original eXtract demo was a web service (§4); this module is the
reproduction's network face — stdlib ``asyncio`` only, no third-party
dependencies.  Versioned endpoints:

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
middleware by design and stays out of the public endpoint tables.

Contract: for a well-routed request the response **body is byte-identical
to the in-process** ``backend.handle_json(body)`` — the HTTP layer adds
transport, never semantics.  Protocol failures stay structured
:class:`~repro.api.protocol.ErrorResponse` bodies, with the HTTP status
derived from their machine-readable ``code`` via the documented
:data:`~repro.api.protocol.HTTP_STATUS_BY_CODE` mapping (``bad_request`` →
400, ``unknown_document`` → 404, ``overloaded`` → 503,
``deadline_exceeded`` → 504, ...).

The event loop never runs backend work: blocking calls go through the
executor seam (:meth:`repro.api.executors.Executor.submit` +
``asyncio.wrap_future``), by default a
:class:`~repro.api.executors.ConcurrentExecutor` thread pool — pass a
:class:`~repro.api.executors.SerialExecutor` to serialise the whole server
(useful for deterministic tests).

Two ways to run it::

    # embedded in an asyncio program
    server = HttpServer(backend, port=8080)
    await server.serve_async()

    # threaded, from synchronous code (tests, the CLI `serve` command)
    with HttpServer(backend, port=0) as server:
        print(server.port)   # the bound port
        ...                  # server answers until the with-block exits
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any

from repro.api.backend import ServingBackend
from repro.api.executors import ConcurrentExecutor, Executor
from repro.api.protocol import (
    BatchRequest,
    ErrorResponse,
    SearchRequest,
    UpdateRequest,
    code_for_exception,
    http_status_for_code,
)
from repro.errors import ExtractError, ProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TRACE_SPANS_HEADER,
    Trace,
    TraceBuffer,
    activate,
    parse_trace_header,
)

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

#: largest accepted request body; a bound, not a tuning knob — one XML
#: document per update request easily fits.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: largest accepted request line + header block
MAX_HEADER_BYTES = 64 * 1024

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


def _discover_obs(
    backend: ServingBackend,
) -> tuple[MetricsRegistry | None, TraceBuffer | None]:
    """Walk the middleware chain for the stack's registry + trace buffer."""
    stage: Any = backend
    seen = 0
    while stage is not None and seen < 32:
        registry = getattr(stage, "registry", None)
        buffer = getattr(stage, "trace_buffer", None)
        if isinstance(registry, MetricsRegistry) or isinstance(buffer, TraceBuffer):
            return (
                registry if isinstance(registry, MetricsRegistry) else None,
                buffer if isinstance(buffer, TraceBuffer) else None,
            )
        stage = getattr(stage, "inner", None)
        seen += 1
    return None, None


class HttpServer:
    """Serve a :class:`ServingBackend` over HTTP/1.1 (keep-alive, JSON).

    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    once the server is up.  ``executor`` is the blocking-call seam
    (defaults to a :class:`ConcurrentExecutor`; owned executors are closed
    with the server).  ``max_requests`` stops the server after N served
    requests — the hook scripted smoke runs and the CLI use for bounded
    serving.
    """

    def __init__(
        self,
        backend: ServingBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Executor | None = None,
        max_requests: int | None = None,
        replicate_backend: Any | None = None,
        registry: MetricsRegistry | None = None,
        trace_buffer: TraceBuffer | None = None,
    ):
        self.backend = backend
        #: a :class:`~repro.cluster.remote.ShardBackend` (anything with a
        #: ``handle_replicate(payload) -> dict``) serving POST
        #: /v1/replicate.  Replication deliberately bypasses ``backend`` —
        #: usually a gateway-wrapped stack — so admission control shedding
        #: reads can never stall the primary→replica delta stream.
        self.replicate_backend = replicate_backend
        self.host = host
        self.port = port
        self.executor = executor if executor is not None else ConcurrentExecutor(max_workers=8)
        self._owns_executor = executor is None
        self.max_requests = max_requests
        self.requests_served = 0
        self._count_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        # The observability surface (GET /v1/metrics, GET /v1/trace) is
        # discovered from the backend stack when not passed explicitly —
        # a gateway-built stack exposes both on its tracing stage.
        if registry is None or trace_buffer is None:
            found_registry, found_buffer = _discover_obs(backend)
            registry = registry if registry is not None else found_registry
            trace_buffer = trace_buffer if trace_buffer is not None else found_buffer
        self.registry = registry
        self.trace_buffer = trace_buffer

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
    ) -> tuple[int, "dict[str, Any] | str", dict[str, str]]:
        """One request → (status, response dict or raw text, extra headers).
        Runs on an executor worker — everything here may block."""
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

    def _serve_post(self, path: str, body: str) -> tuple[int, dict[str, Any]]:
        """Serve one protocol POST (search/batch/update) via the backend."""
        expected_kind = POST_ENDPOINTS[path]
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, ValueError):
            # handle_text reproduces the canonical invalid-JSON error.
            response = self.backend.handle_text(body)
        else:
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
            # Already parsed — hand the object over directly; re-parsing
            # the text would deserialise every request body twice.
            response = self.backend.handle_dict(payload)
        status = 200
        if response.get("kind") == ErrorResponse.kind:
            status = http_status_for_code(response.get("code"))
        return status, response

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

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, Any] | str",
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        if isinstance(payload, str):
            # Raw text export (the Prometheus exposition format).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            # sort_keys=True matches handle_json exactly — the byte-identity
            # contract the round-trip tests pin down.
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
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
        writer.write(head + body)
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one request; None on clean EOF (client closed keep-alive)."""
        try:
            request_line = await reader.readline()
        except ConnectionError:
            return None
        except ValueError as exc:
            # The StreamReader raises ValueError when a line exceeds its
            # buffer limit — an oversized request line is a 400, not a
            # dropped connection.
            raise ProtocolError(f"HTTP request line exceeds the server limit: {exc}") from exc
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ProtocolError(f"malformed HTTP request line: {request_line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError as exc:
                raise ProtocolError(f"HTTP header exceeds the server limit: {exc}") from exc
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise ProtocolError("HTTP header block exceeds the server limit")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        encoding = headers.get("transfer-encoding", "identity").lower()
        if encoding not in ("", "identity"):
            # Silently reading length 0 would serve an empty body and then
            # misparse the first chunk-size line as the next request.
            raise ProtocolError(
                f"Transfer-Encoding {encoding!r} is not supported; "
                "send a Content-Length body"
            )
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise ProtocolError(f"invalid Content-Length {length_text!r}") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"request body of {length} bytes exceeds the server limit")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except ProtocolError as error:
                    await self._respond(
                        writer, 400, _error_body(str(error), code="bad_request"), False
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if parsed is None:
                    break
                method, raw_path, headers, body = parsed
                path, _, query = raw_path.partition("?")
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                trace_request_id = parse_trace_header(headers.get("x-repro-trace"))
                extra_headers: dict[str, str] = {}
                try:
                    # The blocking backend call runs through the executor
                    # seam; the event loop stays free for other connections.
                    future = self.executor.submit(
                        self._serve_payload,
                        method,
                        path,
                        body.decode("utf-8", "replace"),
                        query,
                        trace_request_id,
                    )
                    status, payload, extra_headers = await asyncio.wrap_future(future)
                except asyncio.CancelledError:
                    raise
                # The HTTP edge: any crash becomes a 500 'internal'
                # body instead of a dropped connection.
                # repro: ignore[no-silent-swallow]
                except Exception as exc:  # noqa: BLE001 - a crash must answer 500
                    status = 500
                    payload = _error_body(
                        f"internal server error: {exc}", code="internal"
                    )
                    keep_alive = False
                await self._respond(writer, status, payload, keep_alive, extra_headers)
                if self._count_request():
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # CancelledError included: at shutdown asyncio.run cancels the
            # still-draining keep-alive handlers mid-wait_closed; ending
            # the task cancelled here would make the streams machinery
            # re-raise it into the loop's exception handler as noise.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _count_request(self) -> bool:
        """Bump the served counter; True when the request budget is spent."""
        with self._count_lock:
            self.requests_served += 1
            spent = (
                self.max_requests is not None
                and self.requests_served >= self.max_requests
            )
        if spent and self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        return spent

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def serve_async(self) -> None:
        """Bind, publish :attr:`port`, and serve until :meth:`stop` (or the
        ``max_requests`` budget) shuts the server down."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(self._on_client, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            self._started.clear()

    def _run(self) -> None:
        try:
            asyncio.run(self.serve_async())
        # Stored, not swallowed: start() re-raises this as the
        # server's startup failure.
        # repro: ignore[no-silent-swallow]
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()

    def start(self, timeout: float = 10.0) -> "HttpServer":
        """Run the server on a daemon thread; returns once it is accepting
        connections (with :attr:`port` resolved)."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("the server is already running")
        if self._owns_executor and self.executor.closed:
            # stop() closed the owned executor; a restart must reopen it
            # (the documented context-manager re-entry contract) or every
            # request would answer 500 off a closed pool.
            self.executor.__enter__()
        self._startup_error = None
        self._started.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("the HTTP server did not start in time")
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            if isinstance(error, OSError):
                # a bind failure (port taken, address unavailable) is the
                # caller's environment, reported as the OSError it is
                raise error
            raise RuntimeError(f"the HTTP server failed to start: {error}") from error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down (idempotent); closes an owned executor."""
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self._owns_executor:
            self.executor.close()

    def join(self, timeout: float | None = None) -> None:
        """Block until the serving thread exits (Ctrl-C still interrupts —
        the CLI's foreground wait)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self._started.is_set() else "stopped"
        return f"<HttpServer {self.host}:{self.port} backend={self.backend!r} ({state})>"
