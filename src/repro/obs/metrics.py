"""Counters, gauges and fixed-bucket histograms behind one registry.

:class:`MetricsRegistry` is the aggregation point for a serving process:
the gateway's metrics step, executors, caches and the remote cluster's
replica bookkeeping all record into one registry, and ``GET /v1/metrics``
exports it two ways — a versioned JSON snapshot (stable, machine-checked
shape) and the Prometheus text exposition format (scrapeable as-is).

Histograms use fixed buckets (cumulative counts, Prometheus-style) so
recording is O(#buckets) with no per-observation allocation, and
p50/p95/p99 come from linear interpolation inside the owning bucket —
the standard estimation; exact within a bucket's width.

All metric types are labelled: one :class:`Counter` named
``repro_requests_total`` holds a value per ``kind`` label, rendering as
``repro_requests_total{kind="search"} 7``.  Metric objects are
thread-safe and get-or-create through the registry, so two stages naming
the same series share it instead of clobbering each other.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable

#: version of the JSON snapshot shape served by ``GET /v1/metrics``
METRICS_SCHEMA_VERSION = 1

#: default latency buckets, in seconds — sub-millisecond cache hits up to
#: multi-second deadline territory, roughly geometric
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: the quantiles every histogram snapshot reports
QUANTILES = (0.5, 0.95, 0.99)

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or not set(name) <= _NAME_CHARS or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(
    label_names: tuple[str, ...], labels: dict[str, Any]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _render_labels(label_names: tuple[str, ...], key: tuple[str, ...]) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(label_names, key)
    )
    return "{" + pairs + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _BoundCounter:
    """One resolved label row of a :class:`Counter`.

    Label resolution costs a kwargs dict, a set comparison and a tuple per
    call; hot callers (the gateway, once per request) bind the
    row once via :meth:`Counter.labels` and pay none of it per increment.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: tuple[str, ...]):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount!r}")
        counter = self._counter
        with counter._lock:
            counter._values[self._key] = counter._values.get(self._key, 0.0) + amount


class Counter:
    """A monotonically increasing labelled counter."""

    type_name = "counter"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount!r}")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: Any) -> _BoundCounter:
        """A per-row handle with label resolution done up front."""
        return _BoundCounter(self, _label_key(self.label_names, labels))

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"type": self.type_name, "help": self.help, "series": series}

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.append(f"{self.name}{_render_labels(self.label_names, key)} {value:g}")
        return lines


class Gauge:
    """A labelled value that can go up and down (set-to-current semantics)."""

    type_name = "gauge"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"type": self.type_name, "help": self.help, "series": series}

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.append(f"{self.name}{_render_labels(self.label_names, key)} {value:g}")
        return lines


class _HistogramSeries:
    __slots__ = ("buckets", "count", "total")

    def __init__(self, bucket_count: int):
        self.buckets = [0] * bucket_count  # non-cumulative per-bucket counts
        self.count = 0
        self.total = 0.0


class _BoundHistogram:
    """One resolved label row of a :class:`Histogram` (see
    :meth:`Counter.labels` for why hot callers bind rows up front)."""

    __slots__ = ("_histogram", "_series")

    def __init__(self, histogram: "Histogram", series: _HistogramSeries):
        self._histogram = histogram
        self._series = series

    def observe(self, value: float) -> None:
        histogram = self._histogram
        value = float(value)
        index = bisect_left(histogram.bounds, value)
        series = self._series
        with histogram._lock:
            series.buckets[index] += 1
            series.count += 1
            series.total += value


class Histogram:
    """A labelled fixed-bucket histogram with quantile estimation."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self.bounds = tuple(sorted(float(bound) for bound in buckets))
        if not self.bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        # bisect_left gives the first bound >= value — the owning bucket;
        # past the last bound lands in the +Inf overflow slot.
        index = bisect_left(self.bounds, float(value))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds) + 1)
            series.buckets[index] += 1
            series.count += 1
            series.total += float(value)

    def labels(self, **labels: Any) -> "_BoundHistogram":
        """A per-row handle with label resolution (and the series-creation
        branch) done up front — the hot-path counterpart of
        :meth:`Counter.labels`."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds) + 1)
        return _BoundHistogram(self, series)

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimate the ``q``-quantile by interpolating inside the owning
        bucket.

        An empty series has no quantiles: the answer is ``None``, not a
        fabricated 0.0 a dashboard would happily plot.  A single-sample
        series answers the sample itself — interpolating inside the owning
        bucket would report a value the process never measured.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.count == 0:
                return None
            if series.count == 1:
                # sum over one observation *is* the observation
                return series.total
            rank = q * series.count
            seen = 0
            for index, bucket_count in enumerate(series.buckets):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= rank:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    if index >= len(self.bounds):
                        # the +Inf bucket has no upper edge to interpolate
                        # toward; the last finite bound is the best answer
                        return self.bounds[-1]
                    upper = self.bounds[index]
                    fraction = (rank - seen) / bucket_count
                    return lower + (upper - lower) * min(1.0, max(0.0, fraction))
                seen += bucket_count
            return self.bounds[-1]

    def count(self, **labels: Any) -> int:
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._series.get(key)
            return series.count if series is not None else 0

    def snapshot(self) -> dict[str, Any]:
        series_rows = []
        with self._lock:
            items = sorted(self._series.items())
        for key, series in items:
            with self._lock:
                buckets = list(series.buckets)
                count = series.count
                total = series.total
            row: dict[str, Any] = {
                "labels": dict(zip(self.label_names, key)),
                "count": count,
                "sum": total,
                "buckets": {
                    str(bound): sum(buckets[: index + 1])
                    for index, bound in enumerate(self.bounds)
                },
            }
            row["buckets"]["+Inf"] = count
            row["quantiles"] = {
                f"p{int(q * 100)}": self.quantile(q, **row["labels"])
                for q in QUANTILES
            }
            series_rows.append(row)
        return {
            "type": self.type_name,
            "help": self.help,
            "bounds": list(self.bounds),
            "series": series_rows,
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        with self._lock:
            items = [
                (key, list(series.buckets), series.count, series.total)
                for key, series in sorted(self._series.items())
            ]
        for key, buckets, count, total in items:
            cumulative = 0
            for index, bound in enumerate(self.bounds):
                cumulative += buckets[index]
                rendered = _render_labels(
                    self.label_names + ("le",), key + (f"{bound:g}",)
                )
                lines.append(f"{self.name}_bucket{rendered} {cumulative}")
            rendered = _render_labels(self.label_names + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{rendered} {count}")
            plain = _render_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {total:g}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines


AnyMetric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create home for a process's metrics; snapshot + Prometheus.

    ``register_collector`` hooks pull-style sources in: a collector runs
    at export time and sets gauges from component state (cache hit/miss
    counts, live document totals) without those components having to push
    on every operation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, AnyMetric] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(
        self, factory: Callable[[], AnyMetric], name: str, kind: type
    ) -> AnyMetric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name}, not {kind.type_name}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, label_names: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(
            lambda: Counter(name, help, label_names), name, Counter
        )

    def gauge(self, name: str, help: str, label_names: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(lambda: Gauge(name, help, label_names), name, Gauge)

    def histogram(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            lambda: Histogram(name, help, label_names, buckets), name, Histogram
        )

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run ``collector(registry)`` before every export (idempotent
        gauge-setting code only — collectors run on the scrape path)."""
        with self._lock:
            self._collectors.append(collector)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector(self)
            # A broken collector must not fail the scrape that would have
            # revealed it; the push-path metrics still export.
            # repro: ignore[no-silent-swallow]
            except Exception:  # noqa: BLE001 - observability must not fail serving
                pass

    def snapshot(self) -> dict[str, Any]:
        """The versioned JSON export (``GET /v1/metrics``)."""
        self._collect()
        with self._lock:
            metrics = dict(self._metrics)
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": {
                name: metric.snapshot() for name, metric in sorted(metrics.items())
            },
        }

    def render_prometheus(self) -> str:
        """The text exposition export (``GET /v1/metrics?format=prometheus``)."""
        self._collect()
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        for _, metric in sorted(metrics.items()):
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
