"""Observability: tracing, metrics and structured request logs.

The serving stack (gateway, HTTP frontend, executors, cluster
router, remote shards) records *where a request's time goes* through this
package:

* :mod:`repro.obs.clock` — the one sanctioned door to ``time`` for
  serving modules (the ``telemetry-discipline`` analysis rule pins this);
* :mod:`repro.obs.trace` — per-request :class:`Trace`/:class:`Span`
  context with contextvar propagation, cross-process stitching via the
  ``X-Repro-Trace`` header pair, and a bounded :class:`TraceBuffer`;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms (p50/p95/p99), exported as versioned
  JSON and Prometheus text exposition;
* :mod:`repro.obs.reqlog` — one JSON line per request behind the
  gateway's log-callback seam, with a slow-query threshold.

Traces and metrics never touch default wire bytes: traces surface only in
the opt-in ``meta`` block and the ``GET /v1/trace`` buffer, metrics only
through ``GET /v1/metrics``.
"""

from repro.obs.clock import monotonic, perf_counter, wall_clock
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
)
from repro.obs.reqlog import RequestLogger
from repro.obs.trace import (
    Span,
    Trace,
    TraceBuffer,
    activate,
    current_trace,
    parse_trace_header,
    trace_header_value,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "RequestLogger",
    "Span",
    "Trace",
    "TraceBuffer",
    "activate",
    "current_trace",
    "monotonic",
    "parse_trace_header",
    "perf_counter",
    "trace_header_value",
    "wall_clock",
]
