"""Per-request traces: spans, context propagation, cross-process stitching.

One :class:`Trace` lives for one request.  The gateway's tracing step
creates it (assigning the ``request_id``), activates it in a contextvar,
and every layer below — executors, the cluster router, remote shard
round trips — opens :class:`Span`\\ s against whatever trace
is active, without threading a handle through every signature.

Contextvars do **not** cross thread-pool boundaries by themselves, so the
propagation story is explicit where it has to be:

* :func:`current_trace` + :func:`activate` — capture the active trace (and
  the active span, for parenting) on the submitting side, re-activate it
  inside the worker;
* :func:`trace_header_value` / :func:`parse_trace_header` — carry the
  ``request_id`` across a process boundary in the ``X-Repro-Trace``
  request header; the remote server records its own spans under the same
  ``request_id`` and ships them back in the ``X-Repro-Trace-Spans``
  response header.  :meth:`Trace.absorb_header` keeps that value raw, in
  place, with the calling span as its anchor; only a read of the trace
  (:attr:`Trace.spans`, :meth:`Trace.to_wire`) parses it and re-parents
  its remote roots under that anchor.  One request over a remote
  cluster yields one stitched span tree, and a trace nobody reads never
  pays for the stitch.

Span identity is deterministic per process: ``"<process>:<n>"`` from a
per-trace counter — distinct processes carry distinct ``process`` tags
(the coordinator's tag vs each shard server's ``server:<port>``), so
stitched ids never collide and tests can assert exact shapes.

Traces surface only through the opt-in ``meta`` block and the bounded
:class:`TraceBuffer` behind ``GET /v1/trace`` — never in default wire
bytes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.obs.clock import perf_counter

_Arg = TypeVar("_Arg")
_Result = TypeVar("_Result")

#: the trace active in the current execution context (None outside a request)
_current_trace: ContextVar["Trace | None"] = ContextVar("repro_obs_trace", default=None)

#: the id of the innermost open span, for parenting nested spans
_current_span_id: ContextVar[str | None] = ContextVar("repro_obs_span", default=None)

#: request header carrying the request_id across processes
TRACE_HEADER = "X-Repro-Trace"

#: response header carrying the remote side's recorded spans back
TRACE_SPANS_HEADER = "X-Repro-Trace-Spans"

#: hard cap on spans per trace — a runaway loop must not grow a request's
#: trace without bound; later spans are dropped and counted
MAX_SPANS = 512

#: a propagated request_id: 1-64 ASCII token characters, surrounding
#: whitespace ignored — exactly what ``ServiceClient.trace()`` can fetch
_REQUEST_ID_RE = re.compile(r"\s*([A-Za-z0-9_.:-]{1,64})\s*")

#: Request ids are "<process-random-prefix><counter>": unique across
#: processes via the 8-byte random prefix, unique within one via the
#: counter — and cheaper per request than fresh urandom on the hot path.
_REQUEST_ID_PREFIX = os.urandom(8).hex()
_REQUEST_ID_COUNTER = itertools.count(1)


@dataclass(slots=True)
class Span:
    """One timed stage of a request.

    ``start`` is seconds since the owning trace's origin *in the recording
    process* — meaningful for ordering within a process, illustrative
    across processes (clocks are not synchronised).
    """

    name: str
    span_id: str
    parent_id: str | None
    seconds: float
    start: float
    process: str
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "seconds": self.seconds,
            "start": self.start,
            "process": self.process,
        }
        if self.attributes:
            wire["attributes"] = dict(self.attributes)
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "Span":
        return cls(
            name=str(wire.get("name", "")),
            span_id=str(wire.get("id", "")),
            parent_id=wire.get("parent"),
            seconds=float(wire.get("seconds", 0.0)),
            start=float(wire.get("start", 0.0)),
            process=str(wire.get("process", "")),
            attributes=dict(wire.get("attributes", {}) or {}),
        )


class _OpenSpan:
    """The context manager behind :meth:`Trace.span`.

    A hand-rolled class, not ``@contextmanager``: spans open on the warm
    search path, where the generator machinery is measurable overhead.
    """

    __slots__ = ("_trace", "_name", "_attributes", "_span_id", "_parent", "_token", "_started")

    def __init__(self, trace: "Trace", name: str, attributes: dict[str, Any]):
        self._trace = trace
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> str:
        trace = self._trace
        self._parent = _current_span_id.get()
        self._span_id = span_id = f"{trace.process}:{next(trace._counter)}"
        self._token = _current_span_id.set(span_id)
        self._started = perf_counter()
        return span_id

    def __exit__(self, *_exc: Any) -> None:
        ended = perf_counter()
        _current_span_id.reset(self._token)
        trace = self._trace
        # Trace._record, inline: this runs for every span on the warm path.
        spans = trace._spans
        if len(spans) < MAX_SPANS:
            spans.append(
                (
                    self._name,
                    self._span_id,
                    self._parent,
                    ended - self._started,
                    self._started - trace._origin,
                    trace.process,
                    self._attributes,
                )
            )
        else:
            trace._drop()


class _Shipped:
    """A remote process's span header, kept raw in a trace's span list
    until someone reads the trace; ``anchor`` is the span that was open
    when it arrived."""

    __slots__ = ("text", "anchor")

    def __init__(self, text: str, anchor: str | None):
        self.text = text
        self.anchor = anchor

    def rows(self) -> list[tuple[Any, ...]]:
        """The shipped spans as rows: remote roots (no parent, or a parent
        outside the shipped set) re-parented under the anchor, interior
        links kept, non-object entries skipped; none at all when the
        header is malformed."""
        try:
            spans = json.loads(self.text)
            if not isinstance(spans, list):
                return []
            known = {wire.get("id") for wire in spans if isinstance(wire, dict)}
            rows = []
            for wire in spans:
                if not isinstance(wire, dict):
                    continue
                span = Span.from_wire(wire)
                if span.parent_id is None or span.parent_id not in known:
                    span.parent_id = self.anchor
                rows.append(
                    (
                        span.name,
                        span.span_id,
                        span.parent_id,
                        span.seconds,
                        span.start,
                        span.process,
                        span.attributes,
                    )
                )
            return rows
        # A malformed span header must not fail the request whose body
        # arrived intact, nor the read — the trace just loses remote detail.
        # repro: ignore[no-silent-swallow]
        except (TypeError, ValueError):
            return []


#: guards what a trace does off the request path — the dropped-span
#: counters past MAX_SPANS and naming a request on its first read — so one
#: lock serves every trace and none is built per request
_SLOW_PATH_LOCK = threading.Lock()


class Trace:
    """The span collection for one request; thread-safe without a lock of
    its own: spans are appended (atomic under the GIL), span ids come from
    an ``itertools.count`` (likewise), and only the slow paths take the
    shared :data:`_SLOW_PATH_LOCK`."""

    def __init__(self, request_id: str | None = None, process: str = "local"):
        # A fresh request is named when something first reads its id: most
        # traces are buffered and never read.
        self._request_id = request_id or None
        self.process = process
        # Finished spans live as plain tuples in Span field order —
        # constructing a dataclass per span on the warm path is measurable;
        # Span objects materialise only when someone reads the trace.  A
        # remote span header sits among them raw (a _Shipped) until then.
        self._spans: list[Any] = []
        self._counter = itertools.count(1)
        self._dropped = 0
        self._origin = perf_counter()

    @property
    def request_id(self) -> str:
        request_id = self._request_id
        if request_id is None:
            with _SLOW_PATH_LOCK:
                if self._request_id is None:
                    self._request_id = (
                        f"{_REQUEST_ID_PREFIX}-{next(_REQUEST_ID_COUNTER):x}"
                    )
                request_id = self._request_id
        return request_id

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _record(self, row: tuple[Any, ...]) -> None:
        # Lock-free: list.append is atomic under the GIL, and the cap is
        # re-enforced at export, so a racing overshoot cannot leak past
        # MAX_SPANS onto the wire.  A shipped header counts as one entry
        # here (and is dropped whole at the cap).
        if len(self._spans) < MAX_SPANS:
            self._spans.append(row)
        else:
            self._drop()

    def _drop(self) -> None:
        with _SLOW_PATH_LOCK:
            self._dropped += 1

    def span(self, name: str, **attributes: Any) -> _OpenSpan:
        """Open a span around the body; nested spans parent automatically."""
        return _OpenSpan(self, name, attributes)

    def add_span(
        self,
        name: str,
        seconds: float,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> str:
        """Record an already-measured leaf span (queue delays, absorbed
        phase timings) under ``parent_id`` or the currently open span."""
        span_id = f"{self.process}:{next(self._counter)}"
        self._record(
            (
                name,
                span_id,
                parent_id if parent_id is not None else _current_span_id.get(),
                float(seconds),
                perf_counter() - self._origin,
                self.process,
                attributes,
            )
        )
        return span_id

    def absorb_header(self, text: str) -> None:
        """Keep a remote process's ``X-Repro-Trace-Spans`` value (a JSON
        list of wire spans), raw, as one entry anchored to the currently
        open span.

        It is parsed and stitched in when the trace is read: remote root
        spans (no parent, or a parent outside the shipped set) are
        re-parented under the anchor, interior parent links are kept, and
        a malformed value is dropped.
        """
        self._record(_Shipped(text, _current_span_id.get()))

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def _rows(self) -> tuple[list[tuple[Any, ...]], int]:
        """A snapshot of (recorded rows, dropped count): shipped span
        headers expanded in place, then the span cap re-enforced against
        the expansion and racing lock-free appends (copying a list is one
        step under the GIL)."""
        rows = []
        for row in list(self._spans):
            if type(row) is _Shipped:
                rows.extend(row.rows())
            else:
                rows.append(row)
        with _SLOW_PATH_LOCK:
            dropped = self._dropped
        if len(rows) > MAX_SPANS:
            dropped += len(rows) - MAX_SPANS
            rows = rows[:MAX_SPANS]
        return rows, dropped

    @property
    def spans(self) -> list[Span]:
        rows, _dropped = self._rows()
        return [Span(*row) for row in rows]

    def to_wire(self) -> dict[str, Any]:
        """The trace as plain JSON-able data (the meta / buffer / header
        representation)."""
        rows, dropped = self._rows()
        spans = []
        for name, span_id, parent_id, seconds, start, process, attributes in rows:
            span: dict[str, Any] = {
                "name": name,
                "id": span_id,
                "parent": parent_id,
                "seconds": seconds,
                "start": start,
                "process": process,
            }
            if attributes:
                span["attributes"] = dict(attributes)
            spans.append(span)
        wire: dict[str, Any] = {"request_id": self.request_id, "spans": spans}
        if dropped:
            wire["dropped_spans"] = dropped
        return wire


# ---------------------------------------------------------------------- #
# context propagation
# ---------------------------------------------------------------------- #
def current_trace() -> Trace | None:
    """The trace active in this execution context, if any."""
    return _current_trace.get()


def current_span_id() -> str | None:
    """The id of the innermost open span in this context, if any."""
    return _current_span_id.get()


class activate:
    """Make ``trace`` the context's active trace for the body.

    ``parent_span_id`` seeds span parenting — the explicit-propagation
    hook: capture ``current_span_id()`` where work is submitted, pass it
    here inside the worker, and the worker's spans nest under the
    submitting span.  ``activate(None)`` masks any outer trace.

    A class-based context manager (lower-case by convention of its use as
    ``with activate(trace):``): it runs once per request and per executor
    hop, where ``@contextmanager`` generator machinery is real cost.
    """

    __slots__ = ("_trace", "_parent", "_trace_token", "_span_token")

    def __init__(self, trace: Trace | None, parent_span_id: str | None = None):
        self._trace = trace
        self._parent = parent_span_id

    def __enter__(self) -> None:
        self._trace_token = _current_trace.set(self._trace)
        self._span_token = _current_span_id.set(self._parent)

    def __exit__(self, *_exc: Any) -> None:
        _current_span_id.reset(self._span_token)
        _current_trace.reset(self._trace_token)


def call_in_trace(
    trace: Trace, root: str, call: Callable[[_Arg], _Result], argument: _Arg
) -> _Result:
    """``call(argument)`` with a fresh ``trace`` active, timed as its root
    span ``root`` from the trace's origin.

    What ``with activate(trace): with trace.span(root):`` records, without
    either object: this is the entry of every traced request.
    """
    span_id = f"{trace.process}:{next(trace._counter)}"
    trace_token = _current_trace.set(trace)
    span_token = _current_span_id.set(span_id)
    try:
        return call(argument)
    finally:
        _current_span_id.reset(span_token)
        _current_trace.reset(trace_token)
        trace._record(
            (root, span_id, None, perf_counter() - trace._origin, 0.0, trace.process, {})
        )


# ---------------------------------------------------------------------- #
# cross-process propagation
# ---------------------------------------------------------------------- #
def trace_header_value(trace: Trace) -> str:
    """The ``X-Repro-Trace`` request-header value for ``trace``."""
    return trace.request_id


def parse_trace_header(value: str | None) -> str | None:
    """The request_id carried by an ``X-Repro-Trace`` header, or None.

    Malformed values (empty, oversized, anything but ASCII letters, digits
    and ``-_.:``) are treated as absent — a garbage header must not fail
    or slow the request, and an id the client could not fetch back must
    not name a trace.
    """
    if not value:
        return None
    match = _REQUEST_ID_RE.fullmatch(value)
    return match.group(1) if match is not None else None


class TraceBuffer:
    """A bounded ring of the newest finished traces.

    Putting a trace is one append to a ``deque(maxlen=capacity)``, which
    drops the oldest entry itself: the request path does no bookkeeping.
    Readers resolve ``request_id``\\ s, newest first; a request_id put
    more than once (a retried round trip) answers with its newest trace.
    Entries stay :class:`Trace` objects until someone reads them —
    serialising every request's trace would tax the hot path for a debug
    surface that is read rarely.
    """

    def __init__(self, capacity: int = 128):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {capacity!r}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: deque[Trace] = deque(maxlen=capacity)

    def put(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def _newest_first(self) -> list[Trace]:
        """The buffered traces newest first, one per request_id."""
        with self._lock:
            buffered = list(self._traces)
        seen: set[str] = set()
        unique = []
        for trace in reversed(buffered):
            if trace.request_id not in seen:
                seen.add(trace.request_id)
                unique.append(trace)
        return unique

    def get(self, request_id: str) -> dict[str, Any] | None:
        for trace in self._newest_first():
            if trace.request_id == request_id:
                return trace.to_wire()
        return None

    def newest(self, count: int = 10) -> list[dict[str, Any]]:
        """The most recent traces, newest first."""
        return [trace.to_wire() for trace in self._newest_first()[: max(0, count)]]

    def __len__(self) -> int:
        return len(self._newest_first())


def format_trace(wire: dict[str, Any]) -> str:
    """Render a wire-shaped trace as an indented span tree (CLI output)."""
    spans = [span for span in wire.get("spans", []) if isinstance(span, dict)]
    by_parent: dict[str | None, list[dict[str, Any]]] = {}
    known = {span.get("id") for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent not in known:
            parent = None
        by_parent.setdefault(parent, []).append(span)

    lines = [f"trace {wire.get('request_id', '?')}"]

    def walk(parent: str | None, depth: int) -> None:
        for span in by_parent.get(parent, []):
            indent = "  " * depth
            millis = span.get("seconds", 0.0) * 1000.0
            lines.append(
                f"{indent}- {span.get('name', '?')}  {millis:.3f} ms"
                f"  [{span.get('process', '?')}]"
            )
            walk(span.get("id"), depth + 1)

    walk(None, 1)
    if wire.get("dropped_spans"):
        lines.append(f"  ({wire['dropped_spans']} spans dropped at the cap)")
    return "\n".join(lines)
