"""The gateway: composable middleware around any :class:`ServingBackend`.

A middleware wraps an inner backend and is **itself a backend** — the
composition is uniform, so stages stack in any order and each one is
individually testable against the same contract:

* :class:`ValidationMiddleware` — reject ill-formed requests with a
  structured ``bad_request`` error before they reach the backend;
* :class:`DeadlineMiddleware` — bound per-request wall-clock: a request
  that misses its deadline comes back as a ``deadline_exceeded`` error
  (HTTP 504) instead of hanging its caller;
* :class:`AdmissionControlMiddleware` — bound concurrent in-flight
  requests: a saturating burst is shed with ``overloaded`` errors
  (HTTP 503) instead of queueing without bound, while already-admitted
  requests complete normally;
* :class:`MetricsMiddleware` — request/response/error counters (exposed
  through :meth:`~Middleware.stats`) plus an optional per-request log
  callback.

* :class:`TracingMiddleware` — per-request :class:`~repro.obs.Trace`
  context: assigns the ``request_id``, opens the root span, records every
  stage below as a child span, keeps finished traces in a bounded buffer
  and injects the span tree into the opt-in ``meta`` block.

:func:`build_gateway` assembles the canonical stack::

    tracing(metrics(validation(deadline(admission(backend)))))

— tracing outermost so the whole request (including shed load and
validation failures) lands in one trace, metrics next so every outcome is
counted, validation before the expensive stages so malformed requests
never cost a worker or a slot, and admission **inside** the deadline: a
timed-out request's abandoned worker keeps its admission slot until the
backend call actually finishes, so ``max_in_flight`` bounds *real*
backend concurrency — a wedged backend makes later arrivals shed with
``overloaded`` instead of piling ever more abandoned workers onto it.

Every middleware's single extension point is
:meth:`Middleware.process(request, call_next) <Middleware.process>`, which
sees search, batch and update requests alike — one implementation guards
all three request shapes.
"""

from __future__ import annotations

import copy
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
CallNext = Callable[[AnyRequest], AnyResponse]

#: the root span name per request kind, formatted once
_ROOT_SPAN_NAMES = {
    kind: f"request:{kind}"
    for kind in (SearchRequest.kind, BatchRequest.kind, UpdateRequest.kind)
}


class Middleware(ServingBackendBase):
    """A backend that decorates another backend.

    Subclasses override :meth:`process`; the three ``execute*`` methods
    funnel through it with the matching inner call, so one hook guards
    every request shape.  Introspection and lifecycle delegate inward:
    :meth:`capabilities` reports the inner backend's surface plus the
    middleware chain (innermost first), :meth:`stats` merges this stage's
    counters over the inner report, :meth:`close` closes the whole stack.
    """

    #: short stage name, shown in the capabilities middleware chain
    name: str = "middleware"

    #: record a ``stage:<name>`` span around :meth:`process` when a trace
    #: is active (:class:`TracingMiddleware` opts out — it owns the root)
    traced: bool = True

    def __init__(self, inner: ServingBackend):
        self.inner = inner
        # Precomputed: f-string formatting per request is measurable on
        # the warm search path.
        self._stage_span_name = f"stage:{self.name}"

    def process(self, request: AnyRequest, call_next: CallNext) -> AnyResponse:
        """Serve one request; ``call_next(request)`` invokes the inner stage.

        The default is a transparent pass-through.  Implementations may
        short-circuit (return without calling ``call_next``), substitute
        the request, or inspect the response on the way out — but must
        return a protocol response, never raise a library error.
        """
        return call_next(request)

    # ------------------------------------------------------------------ #
    # the backend surface, funnelled through process()
    # ------------------------------------------------------------------ #
    def _process(self, request: AnyRequest, inner_call: CallNext) -> AnyResponse:
        """Run :meth:`process`, recording a per-stage span when the
        request carries an active trace.

        Reads the contextvar directly rather than through
        :func:`current_trace`: this runs once per stage per request, and
        the wrapper call is measurable against the trace-overhead budget.
        """
        if self.traced:
            trace = _current_trace_var.get()
            if trace is not None:
                with trace.span(self._stage_span_name):
                    return self.process(request, inner_call)
        return self.process(request, inner_call)

    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        return self._process(request, self.inner.execute)

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        return self._process(batch, self.inner.execute_batch)

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        return self._process(request, self.inner.execute_update)

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    def capabilities(self) -> dict[str, Any]:
        caps = dict(self.inner.capabilities())
        caps["middleware"] = [*caps.get("middleware", []), self.name]
        return caps

    def stats(self) -> dict[str, Any]:
        # Deep copy: stats() hands out a *snapshot*.  A caller mutating
        # nested sections of the returned dict must never corrupt the live
        # counters a later caller reads.
        return copy.deepcopy(self.inner.stats())

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} inner={self.inner!r}>"


class ValidationMiddleware(Middleware):
    """Reject ill-formed requests before they consume backend resources.

    ``request.validate()`` failures become a structured ``bad_request``
    error response — the same shape the backend itself would produce, but
    produced here so later stages (admission slots, deadline workers)
    never pay for garbage.
    """

    name = "validation"

    def process(self, request: AnyRequest, call_next: CallNext) -> AnyResponse:
        try:
            request.validate()
        except ExtractError as error:
            return ErrorResponse.from_exception(error, request=request.to_dict())
        return call_next(request)


class DeadlineMiddleware(Middleware):
    """Bound per-request wall-clock time.

    The inner call runs on a **dedicated** worker thread; if it has not
    completed within ``timeout`` seconds the caller gets a
    ``deadline_exceeded`` error response (HTTP 504).  Python threads
    cannot be killed, so the abandoned worker runs its request to
    completion in the background — the deadline bounds the *caller's*
    latency, not the backend's work (same trade-off as every thread-based
    timeout).  One thread per request (not a bounded pool) is deliberate:
    an abandoned worker must never make a new request queue behind dead
    work and burn its own deadline waiting for a free slot.  Bounding how
    many workers can occupy the backend at once is admission control's
    job — compose it **inside** this stage (see :func:`build_gateway`) so
    an abandoned worker keeps its slot until the backend call really
    finishes.
    """

    name = "deadline"

    def __init__(self, inner: ServingBackend, timeout: float):
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0:
            raise ValueError(f"timeout must be a positive number of seconds, got {timeout!r}")
        super().__init__(inner)
        self.timeout = float(timeout)

    def process(self, request: AnyRequest, call_next: CallNext) -> AnyResponse:
        outcome: dict[str, Any] = {}
        done = threading.Event()
        # Contextvars don't cross thread boundaries by themselves; the
        # worker re-activates the caller's trace so inner stages keep
        # recording spans (parented under this stage's span).
        trace = current_trace()
        parent_span = current_span_id()

        def run() -> None:
            try:
                with activate(trace, parent_span):
                    outcome["response"] = call_next(request)
            # The worker thread only ferries the exception across;
            # the caller re-raises it.
            # repro: ignore[no-silent-swallow]
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                outcome["error"] = exc
            finally:
                done.set()

        worker = threading.Thread(target=run, name="repro-deadline", daemon=True)
        worker.start()
        if not done.wait(self.timeout):
            return ErrorResponse.from_exception(
                DeadlineError(
                    f"request missed its {self.timeout:.3f}s deadline "
                    "(the server kept working; retry with a larger deadline)"
                ),
                request=request.to_dict(),
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["response"]


class AdmissionControlMiddleware(Middleware):
    """Bound concurrent in-flight requests; shed the excess explicitly.

    At most ``max_in_flight`` requests run in the stack below at once.  A
    request arriving with no free slot is **rejected immediately** with an
    ``overloaded`` error response (HTTP 503) — a non-blocking semaphore
    probe, so the overload path cannot deadlock and cannot queue without
    bound.  Admitted requests always release their slot (`finally`), even
    when the backend fails.
    """

    name = "admission"

    def __init__(self, inner: ServingBackend, max_in_flight: int):
        if (
            not isinstance(max_in_flight, int)
            or isinstance(max_in_flight, bool)
            or max_in_flight < 1
        ):
            raise ValueError(
                f"max_in_flight must be a positive integer, got {max_in_flight!r}"
            )
        super().__init__(inner)
        self.max_in_flight = max_in_flight
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._counter_lock = threading.Lock()
        self._admitted = 0
        self._rejected = 0

    def process(self, request: AnyRequest, call_next: CallNext) -> AnyResponse:
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
            return call_next(request)
        finally:
            self._slots.release()

    def stats(self) -> dict[str, Any]:
        merged = super().stats()
        with self._counter_lock:
            merged["admission"] = {
                "max_in_flight": self.max_in_flight,
                "admitted": self._admitted,
                "rejected": self._rejected,
            }
        return merged


class MetricsMiddleware(Middleware):
    """Count requests, responses and error codes; optionally log each call.

    The counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    (pass one to aggregate with other components; the default is a
    private registry, so two stacks never mix):

    * ``repro_requests_total{kind}`` — requests served, by request kind;
    * ``repro_errors_total{code}`` — error responses, by machine code;
    * ``repro_request_seconds{kind}`` — latency histogram (p50/p95/p99).

    :meth:`stats` derives the legacy ``"requests"`` section from the
    registry, unchanged in shape::

        {"requests": {"total": 7, "by_kind": {"search": 6, "batch": 1},
                      "errors": 2, "by_code": {"unknown_document": 2},
                      "seconds": 0.42}}

    Payloads that fail to parse at the JSON endpoints are counted too
    (``by_kind`` bucket ``"invalid"``) — a flood of garbage requests must
    be visible in the stats, not invisible because it never produced a
    typed request.  ``log`` (when given) is called after every request as
    ``log(request, response, seconds)`` — the request-logging hook (see
    :class:`~repro.obs.reqlog.RequestLogger`); it runs outside the
    counter locks, and a failing logger never fails the request.
    """

    name = "metrics"
    # No stage:metrics span: this stage times the same envelope the root
    # span already covers, and its histogram records that duration — a
    # span here would be telemetry about telemetry, at hot-path cost.
    traced = False

    def __init__(
        self,
        inner: ServingBackend,
        log: Callable[[AnyRequest, AnyResponse, float], None] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        super().__init__(inner)
        self._log = log
        self.registry = registry if registry is not None else MetricsRegistry()
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

    def _record(self, kind: str, response: AnyResponse, seconds: float) -> None:
        rows = self._rows_by_kind.get(kind)
        if rows is None:
            rows = self._rows_by_kind[kind] = (
                self._requests.labels(kind=kind),
                self._seconds.labels(kind=kind),
            )
        requests_row, seconds_row = rows
        requests_row.inc()
        seconds_row.observe(seconds)
        if isinstance(response, ErrorResponse):
            self._errors.inc(code=response.code or "internal")

    def process(self, request: AnyRequest, call_next: CallNext) -> AnyResponse:
        started = perf_counter()
        response = call_next(request)
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

    def _reject(self, error: ExtractError, request: dict[str, Any] | None) -> ErrorResponse:
        # Payloads rejected before they became a typed request (malformed
        # JSON, unknown kind) never reach process(); the base endpoints
        # funnel them through this hook, so they land in the counters too.
        response = ErrorResponse.from_exception(error, request=request)
        self._record("invalid", response, 0.0)
        return response

    def stats(self) -> dict[str, Any]:
        merged = super().stats()
        by_kind = {
            row["labels"]["kind"]: int(row["value"])
            for row in self._requests.snapshot()["series"]
        }
        by_code = {
            row["labels"]["code"]: int(row["value"])
            for row in self._errors.snapshot()["series"]
        }
        seconds = sum(
            row["sum"] for row in self._seconds.snapshot()["series"]
        )
        merged["requests"] = {
            "total": sum(by_kind.values()),
            "by_kind": by_kind,
            "errors": sum(by_code.values()),
            "by_code": by_code,
            "seconds": seconds,
        }
        return merged


class TracingMiddleware(Middleware):
    """Per-request trace context: the outermost stage of the stack.

    Each request gets a :class:`~repro.obs.trace.Trace` (fresh
    ``request_id``) activated for the duration of :meth:`process`; every
    stage below records child spans against it through the contextvar.
    Finished traces land in a bounded :class:`TraceBuffer` (served by
    ``GET /v1/trace``), and — when the request opted into ``meta`` — the
    span tree is injected as ``meta["trace"]`` on the way out, so default
    wire bytes never change.

    When a trace is *already* active (the HTTP frontend activated one
    from an ``X-Repro-Trace`` header on a remote shard server), this
    stage joins it instead of starting a second one: the spans it records
    ship back to the coordinator in the response header and stitch into
    the caller's trace.
    """

    name = "tracing"
    traced = False  # this stage owns the root span; no stage:* wrapper

    def __init__(
        self,
        inner: ServingBackend,
        registry: MetricsRegistry | None = None,
        trace_buffer: TraceBuffer | None = None,
        process_name: str = "local",
        buffer_capacity: int = 128,
    ):
        super().__init__(inner)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_buffer = (
            trace_buffer
            if trace_buffer is not None
            else TraceBuffer(capacity=buffer_capacity)
        )
        self.process_name = process_name
        #: the finished trace of an opted-in (include_meta) request, handed
        #: per thread to _body one frame up
        self._finished = threading.local()

    def process(self, request: AnyRequest, call_next: CallNext) -> AnyResponse:
        root_name = _ROOT_SPAN_NAMES[request.kind]
        joined = _current_trace_var.get()
        if joined is not None:
            # Already inside a propagated trace (remote shard server);
            # record this gateway's root span against it and move on —
            # the HTTP frontend that activated the trace buffers it.
            if request.include_meta:
                self._finished.trace = None  # the caller's trace, not ours to report
            with joined.span(root_name):
                return call_next(request)
        trace = Trace(process=self.process_name)
        response = call_in_trace(trace, root_name, call_next, request)
        self.trace_buffer.put(trace)
        if request.include_meta:
            self._finished.trace = trace
        return response

    def _body(self, response: AnyResponse, include_meta: bool) -> dict[str, Any]:
        body = super()._body(response, include_meta)
        # meta exists only when the request asked for it (include_meta),
        # and only then did process() hand a trace over — default
        # responses stay byte-identical and skip the handoff.
        meta = body.get("meta")
        if isinstance(meta, dict):
            finished = getattr(self._finished, "trace", None)
            self._finished.trace = None
            if finished is not None:
                meta["trace"] = finished.to_wire()
        return body

    def last_trace(self) -> dict[str, Any] | None:
        """The most recently finished trace (wire shape), if any."""
        newest = self.trace_buffer.newest(1)
        return newest[0] if newest else None


def build_gateway(
    backend: ServingBackend,
    max_in_flight: int | None = None,
    deadline: float | None = None,
    metrics: bool = True,
    log: Callable[[AnyRequest, AnyResponse, float], None] | None = None,
    tracing: bool = True,
    registry: MetricsRegistry | None = None,
    trace_buffer: TraceBuffer | None = None,
    process_name: str = "local",
) -> ServingBackend:
    """Wrap ``backend`` in the canonical middleware stack.

    Stages are applied innermost-first — admission, deadline, validation,
    metrics, tracing — so the composed order is
    ``tracing(metrics(validation(deadline(admission(backend)))))``; any
    stage whose knob is ``None``/``False`` is skipped — except validation,
    which is always on.  Admission sits
    inside the deadline on purpose: a timed-out request's worker holds its
    slot until the backend call finishes, so ``max_in_flight`` bounds how
    many calls can actually occupy the backend — arrivals beyond that are
    shed quickly with ``overloaded`` rather than stacking abandoned
    workers on a wedged backend.  Closing the returned backend closes the
    whole stack down to ``backend`` itself.

    One :class:`~repro.obs.metrics.MetricsRegistry` is shared by the
    metrics and tracing stages; a backend that exposes its own
    ``registry`` attribute (:class:`~repro.cluster.remote.RemoteClusterService`
    records failover/shed/health series into one) is adopted, so
    ``GET /v1/metrics`` exports gateway and backend series together.
    """
    if registry is None:
        backend_registry = getattr(backend, "registry", None)
        registry = (
            backend_registry
            if isinstance(backend_registry, MetricsRegistry)
            else MetricsRegistry()
        )
    stack = backend
    if max_in_flight is not None:
        stack = AdmissionControlMiddleware(stack, max_in_flight=max_in_flight)
    if deadline is not None:
        stack = DeadlineMiddleware(stack, timeout=deadline)
    stack = ValidationMiddleware(stack)
    if metrics or log is not None:
        stack = MetricsMiddleware(stack, log=log, registry=registry)
    if tracing:
        stack = TracingMiddleware(
            stack,
            registry=registry,
            trace_buffer=trace_buffer,
            process_name=process_name,
        )
    return stack
