"""The gateway: one serving stage in front of any :class:`ServingBackend`.

:func:`build_gateway` wraps a backend in a :class:`Gateway`, itself a
backend, which runs every request through four steps in a fixed order::

    tracing → metrics → deadline → admission → backend

* **tracing** — per-request :class:`~repro.obs.Trace` context: assigns
  the ``request_id``, opens the root span ``request:<kind>``, keeps
  finished traces in a bounded buffer and injects the span tree into the
  opt-in ``meta`` block;
* **metrics** — request/response/error counters (exposed through
  :meth:`Gateway.stats`) plus an optional per-request log callback;
* **deadline** — bound per-request wall-clock: a request that misses
  its deadline comes back as a ``deadline_exceeded`` error (HTTP 504)
  instead of hanging its caller;
* **admission** — bound concurrent in-flight requests: a saturating burst
  is shed with ``overloaded`` errors (HTTP 503) instead of queueing
  without bound, while already-admitted requests complete normally.

Tracing is outermost so the whole request (shed load included) lands in
one trace, metrics next so every outcome is counted, and admission
**inside** the deadline: a timed-out request's abandoned worker keeps its
admission slot until the backend call actually finishes, so
``max_in_flight`` bounds *real* backend concurrency — a wedged backend
makes later arrivals shed with ``overloaded`` instead of piling ever more
abandoned workers onto it.

There is no validation step: a wire payload is validated where it is
parsed (``parse_request``), and every backend's ``run*`` validates the
typed request it is handed.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.api.backend import ServingBackend, ServingBackendBase
from repro.api.protocol import (
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.errors import DeadlineError, ExtractError, OverloadedError
from repro.obs.clock import perf_counter
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Trace,
    TraceBuffer,
    activate,
    call_in_trace,
    current_span_id,
    current_trace,
)
from repro.obs.trace import _current_trace as _current_trace_var

AnyRequest = SearchRequest | BatchRequest | UpdateRequest
AnyResponse = SearchResponse | BatchResponse | UpdateResponse | ErrorResponse

#: finished traces a gateway keeps for ``GET /v1/trace``; a bound, not a
#: tuning knob
TRACE_BUFFER_CAPACITY = 128

#: the root span name per request kind, formatted once
_ROOT_SPAN_NAMES = {
    kind: f"request:{kind}"
    for kind in (SearchRequest.kind, BatchRequest.kind, UpdateRequest.kind)
}

#: the backend method that serves each request kind
_EXECUTE = {
    SearchRequest.kind: "execute",
    BatchRequest.kind: "execute_batch",
    UpdateRequest.kind: "execute_update",
}


class Gateway(ServingBackendBase):
    """Tracing, metrics, deadline and admission around one backend.

    Built by :func:`build_gateway`; a step whose knob is off is skipped.
    Introspection and lifecycle delegate inward: :meth:`capabilities`
    reports the backend's surface plus the enabled steps (innermost
    first), :meth:`stats` adds the ``requests`` and ``admission``
    sections to the backend's envelope, :meth:`close` closes the backend.

    Metrics (counted in :attr:`registry`, which a backend exposing its own
    ``registry`` shares):

    * ``repro_requests_total{kind}`` — requests served, by request kind;
      payloads that fail to parse count under ``kind="invalid"``, so a
      flood of garbage is visible even though it never became a request;
    * ``repro_errors_total{code}`` — error responses, by machine code;
    * ``repro_request_seconds{kind}`` — latency histogram (p50/p95/p99).

    ``log`` (when given) is called after every request as ``log(request,
    response, seconds)`` — the request-logging hook (see
    :class:`~repro.obs.reqlog.RequestLogger`); a failing logger never
    fails the request.

    When a trace is *already* active (the HTTP frontend activated one
    from an ``X-Repro-Trace`` header on a remote shard server), the
    gateway joins it instead of starting a second one: its root span
    ships back to the coordinator in the response header and stitches
    into the caller's trace.

    The deadline runs the rest of the request on a **dedicated** worker
    thread; if it has not completed within ``deadline`` seconds the
    caller gets ``deadline_exceeded``.  Python threads cannot be killed,
    so the abandoned worker runs its request to completion in the
    background — the deadline bounds the *caller's* latency, not the
    backend's work.  One thread per request (not a bounded pool) is
    deliberate: an abandoned worker must never make a new request queue
    behind dead work and burn its own deadline waiting for a free slot.

    Admission is a non-blocking semaphore probe: a request arriving with
    no free slot is rejected at once with ``overloaded``, so the overload
    path cannot deadlock or queue; an admitted request always releases
    its slot, even when the backend fails.
    """

    def __init__(
        self,
        backend: ServingBackend,
        max_in_flight: int | None,
        deadline: float | None,
        metrics: bool,
        log: Callable[[AnyRequest, AnyResponse, float], None] | None,
        tracing: bool,
        process_name: str,
    ):
        if max_in_flight is not None and (
            not isinstance(max_in_flight, int)
            or isinstance(max_in_flight, bool)
            or max_in_flight < 1
        ):
            raise ValueError(
                f"max_in_flight must be a positive integer, got {max_in_flight!r}"
            )
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or isinstance(deadline, bool) or deadline <= 0
        ):
            raise ValueError(f"deadline must be a positive number of seconds, got {deadline!r}")
        self.inner = backend
        backend_registry = getattr(backend, "registry", None)
        self.registry = (
            backend_registry if isinstance(backend_registry, MetricsRegistry) else MetricsRegistry()
        )
        self.trace_buffer = TraceBuffer(capacity=TRACE_BUFFER_CAPACITY) if tracing else None
        self.process_name = process_name
        self.metrics = metrics
        self.deadline = None if deadline is None else float(deadline)
        self.max_in_flight = max_in_flight
        self._log = log
        #: the enabled steps, innermost first (the capabilities list)
        self._steps = [
            step
            for step, enabled in (
                ("admission", max_in_flight is not None),
                ("deadline", deadline is not None),
                ("metrics", metrics),
                ("tracing", tracing),
            )
            if enabled
        ]
        self._slots = (
            None if max_in_flight is None else threading.BoundedSemaphore(max_in_flight)
        )
        self._counter_lock = threading.Lock()
        self._admitted = 0
        self._rejected = 0
        self._requests = self.registry.counter(
            "repro_requests_total", "Requests served, by request kind.", ("kind",)
        )
        self._errors = self.registry.counter(
            "repro_errors_total", "Error responses, by machine-readable code.", ("code",)
        )
        self._seconds = self.registry.histogram(
            "repro_request_seconds", "Request latency in seconds, by kind.", ("kind",)
        )
        # Bound label rows, resolved once per kind — per-request label
        # resolution is measurable on the warm search path.
        self._rows_by_kind: dict[str, tuple[Any, Any]] = {}
        #: the finished trace of an opted-in (include_meta) request, handed
        #: per thread to _body one frame up
        self._finished = threading.local()

    # ------------------------------------------------------------------ #
    # the backend surface: tracing → metrics → deadline → admission
    # ------------------------------------------------------------------ #
    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        return self._serve(request)

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        return self._serve(batch)

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        return self._serve(request)

    def _serve(self, request: AnyRequest) -> AnyResponse:
        """The tracing step."""
        if self.trace_buffer is None:
            return self._measured(request)
        root_name = _ROOT_SPAN_NAMES[request.kind]
        joined = _current_trace_var.get()
        if joined is not None:
            # Already inside a propagated trace (remote shard server);
            # record this gateway's root span against it and move on —
            # the HTTP frontend that activated the trace buffers it.
            if request.include_meta:
                self._finished.trace = None  # the caller's trace, not ours to report
            with joined.span(root_name):
                return self._measured(request)
        trace = Trace(process=self.process_name)
        response = call_in_trace(trace, root_name, self._measured, request)
        self.trace_buffer.put(trace)
        if request.include_meta:
            self._finished.trace = trace
        return response

    def _measured(self, request: AnyRequest) -> AnyResponse:
        """The metrics step."""
        if not self.metrics:
            return self._bounded(request)
        started = perf_counter()
        response = self._bounded(request)
        seconds = perf_counter() - started
        self._record(request.kind, response, seconds)
        if self._log is not None:
            try:
                self._log(request, response, seconds)
            # A broken log callback must not fail the request it
            # observes; the response is already built.
            # repro: ignore[no-silent-swallow]
            except Exception:  # noqa: BLE001 - observability must not fail serving
                pass
        return response

    def _bounded(self, request: AnyRequest) -> AnyResponse:
        """The deadline step."""
        if self.deadline is None:
            return self._admit(request)
        outcome: dict[str, Any] = {}
        done = threading.Event()
        # Contextvars don't cross thread boundaries by themselves; the
        # worker re-activates the caller's trace so the backend keeps
        # recording spans under the root span.
        trace = current_trace()
        parent_span = current_span_id()

        def run() -> None:
            try:
                with activate(trace, parent_span):
                    outcome["response"] = self._admit(request)
            # The worker thread only ferries the exception across;
            # the caller re-raises it.
            # repro: ignore[no-silent-swallow]
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                outcome["error"] = exc
            finally:
                done.set()

        worker = threading.Thread(target=run, name="repro-deadline", daemon=True)
        worker.start()
        if not done.wait(self.deadline):
            return ErrorResponse.from_exception(
                DeadlineError(
                    f"request missed its {self.deadline:.3f}s deadline "
                    "(the server kept working; retry with a larger deadline)"
                ),
                request=request.to_dict(),
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["response"]

    def _admit(self, request: AnyRequest) -> AnyResponse:
        """The admission step, then the backend."""
        execute = getattr(self.inner, _EXECUTE[request.kind])
        if self._slots is None:
            return execute(request)
        if not self._slots.acquire(blocking=False):
            with self._counter_lock:
                self._rejected += 1
            return ErrorResponse.from_exception(
                OverloadedError(
                    f"server is at its in-flight request limit "
                    f"({self.max_in_flight}); retry later"
                ),
                request=request.to_dict(),
            )
        try:
            with self._counter_lock:
                self._admitted += 1
            return execute(request)
        finally:
            self._slots.release()

    def _record(self, kind: str, response: AnyResponse, seconds: float) -> None:
        rows = self._rows_by_kind.get(kind)
        if rows is None:
            with self._counter_lock:
                rows = self._rows_by_kind[kind] = (
                    self._requests.labels(kind=kind),
                    self._seconds.labels(kind=kind),
                )
        requests_row, seconds_row = rows
        requests_row.inc()
        seconds_row.observe(seconds)
        if isinstance(response, ErrorResponse):
            self._errors.inc(code=response.code or "internal")

    def _reject(self, error: ExtractError, request: dict[str, Any] | None) -> ErrorResponse:
        # A payload rejected before it became a typed request (malformed
        # JSON, unknown kind, a field that fails validation) never reaches
        # the steps; count it anyway.
        response = ErrorResponse.from_exception(error, request=request)
        if self.metrics:
            self._record("invalid", response, 0.0)
        return response

    def _body(self, response: AnyResponse, include_meta: bool) -> dict[str, Any]:
        body = super()._body(response, include_meta)
        # meta exists only when the request asked for it (include_meta),
        # and only then did _serve hand a trace over — default responses
        # stay byte-identical and skip the handoff.
        meta = body.get("meta")
        if isinstance(meta, dict):
            finished = getattr(self._finished, "trace", None)
            self._finished.trace = None
            if finished is not None:
                meta["trace"] = finished.to_wire()
        return body

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    def capabilities(self) -> dict[str, Any]:
        caps = dict(self.inner.capabilities())
        caps["middleware"] = [*caps.get("middleware", []), *self._steps]
        return caps

    def stats(self) -> dict[str, Any]:
        # The backend's stats() is already a snapshot, and the sections
        # added here are built fresh on every call.
        merged = dict(self.inner.stats())
        if self._slots is not None:
            with self._counter_lock:
                merged["admission"] = {
                    "max_in_flight": self.max_in_flight,
                    "admitted": self._admitted,
                    "rejected": self._rejected,
                }
        if self.metrics:
            by_kind = {
                row["labels"]["kind"]: int(row["value"])
                for row in self._requests.snapshot()["series"]
            }
            by_code = {
                row["labels"]["code"]: int(row["value"])
                for row in self._errors.snapshot()["series"]
            }
            merged["requests"] = {
                "total": sum(by_kind.values()),
                "by_kind": by_kind,
                "errors": sum(by_code.values()),
                "by_code": by_code,
                "seconds": sum(row["sum"] for row in self._seconds.snapshot()["series"]),
            }
        return merged

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"<Gateway {self._steps} inner={self.inner!r}>"


def build_gateway(
    backend: ServingBackend,
    max_in_flight: int | None = None,
    deadline: float | None = None,
    metrics: bool = True,
    log: Callable[[AnyRequest, AnyResponse, float], None] | None = None,
    tracing: bool = True,
    process_name: str = "local",
) -> Gateway:
    """Wrap ``backend`` in a :class:`Gateway`.

    ``max_in_flight`` turns on admission control, ``deadline`` (seconds)
    the per-request deadline; ``metrics`` and ``tracing`` are on unless
    switched off, and a ``log`` callback turns metrics on.  Trace spans
    are recorded under ``process_name``.  Closing the returned backend
    closes ``backend``.
    """
    return Gateway(
        backend,
        max_in_flight=max_in_flight,
        deadline=deadline,
        metrics=metrics or log is not None,
        log=log,
        tracing=tracing,
        process_name=process_name,
    )
