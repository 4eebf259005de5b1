"""The traced run: per-layer numbers, recorded from outside the program.

The serving stack is assembled *in this process* exactly as the CLI
assembles it, and timed from the benchmark's own files — never through
``repro.obs``: timing proxies sit at the public ``ServingBackend`` seam
(``ServiceClient → HttpServer(proxy(build_gateway(proxy(backend))))``) and a
declarative wrap table installs span wrappers around public callables for
the duration of the traced replay only.  A wrap target that no longer
exists makes its layer's metrics ``null`` and lists it under ``untraced``;
it never fails the run.

A span is (name, start, end, parent, request); spans stay in memory and are
written to ``out/trace_<workload>.json`` at the end.  A layer's self time
is its span minus the part of that interval its child spans cover.

The same plan prefix is first replayed, untraced, against the real spawned
server: that gives the reference bytes every traced response must equal,
the ``/v1/stats`` deltas behind the cache metrics, and the denominator of
``trace.overhead_ratio``.
"""

from __future__ import annotations

import http.client
import importlib
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import plans
import workloads
from servers import OUT_DIR, WireClient, Workspace

#: steps of ``plan.main`` the traced run replays
PREFIX = {
    "full": {"cold_browse": 30, "warm_read": 500, "mixed_rw": 500, "cluster_read": 200},
    "smoke": {"cold_browse": 6, "warm_read": 40, "mixed_rw": 40, "cluster_read": 20},
}


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
class Recorder:
    """In-memory spans with explicit parents.

    One closed-loop client means one request in flight, so ``request`` is
    a plain counter the driver bumps.  Within a thread the parent is the
    innermost open span; a thread whose stack is empty (the HTTP worker
    picking up a request, a fan-out thread picking up a hop) attaches to
    the most recently opened span that ``adopts`` — the declared hand-off
    points.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        #: [name, start, end, parent index or -1, request]
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._adopters: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def open(self, name: str, adopts: bool = False) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            adopters = self._adopters
            parent = adopters[-1] if adopters else -1
        span = [name, 0.0, 0.0, parent, self.request]
        self.spans.append(span)
        index = len(self.spans) - 1
        # list.append returns after the slot exists, but another thread may
        # have appended in between: find our own row.
        while self.spans[index] is not span:
            index -= 1
        stack.append(index)
        if adopts:
            self._adopters.append(index)
        span[1] = time.perf_counter()
        return index

    def close(self, index: int, adopts: bool = False) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()
        if adopts:
            self._adopters.remove(index)

    def wrap(self, function: Callable, name: str, adopts: bool = False) -> Callable:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return function(*args, **kwargs)
            index = recorder.open(name, adopts)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index, adopts)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced


# ---------------------------------------------------------------------- #
# the wrap table
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Wrap:
    """Install a ``span`` wrapper around ``module.attribute`` (a function,
    or ``Class.method``).  ``metrics`` are the per-layer metrics that go
    ``null`` when the target is gone."""

    span: str
    module: str
    attribute: str
    metrics: tuple[str, ...]


WRAP_TABLE: tuple[Wrap, ...] = (
    Wrap("system", "repro.system", "ExtractSystem.run_query", ("system.self_ms",)),
    Wrap("search", "repro.search.engine", "SearchEngine.search", ("search.total_ms",)),
    Wrap("search.lookup", "repro.index.builder", "DocumentIndex.keyword_matches",
         ("search.lookup_ms",)),
    Wrap("search.lca", "repro.search.slca", "compute_slca", ("search.lca_ms",)),
    Wrap("search.construct", "repro.search.xseek", "build_all_results", ("search.construct_ms",)),
    Wrap("search.rank", "repro.search.ranking", "rank_results", ("search.rank_ms",)),
    Wrap("snippet", "repro.snippet.generator", "SnippetGenerator.generate",
         ("snippet.total_ms", "snippet.per_result_ms", "snippet.generated_per_request",
          "snippet.returned_ratio")),
    Wrap("snippet.ilist", "repro.snippet.ilist", "IListBuilder.build",
         ("snippet.ilist_ms", "snippet.per_result_ms", "snippet.generated_per_request",
          "snippet.returned_ratio")),
    Wrap("snippet.features", "repro.snippet.features", "extract_features",
         ("snippet.features_ms",)),
    Wrap("snippet.select", "repro.snippet.instance_selector", "GreedyInstanceSelector.select",
         ("snippet.select_ms",)),
    Wrap("service.render", "repro.snippet.render", "render_snippet_text",
         ("service.render_ms", "service.payloads_per_request", "snippet.returned_ratio")),
    Wrap("corpus.update", "repro.corpus", "Corpus.update_document",
         ("corpus.update_ms", "corpus.incremental_ratio")),
    Wrap("xmltree.parse", "repro.xmltree.parser", "parse_xml", ("xmltree.parse_ms",)),
    Wrap("xmltree.diff", "repro.xmltree.diff", "diff_trees", ("xmltree.diff_ms",)),
    Wrap("index.incremental", "repro.index.incremental", "apply_text_update",
         ("index.incremental_ms", "corpus.incremental_ratio")),
    Wrap("protocol.decode", "repro.api.protocol", "parse_request", ("protocol.decode_ms",)),
    Wrap("protocol.decode", "repro.api.protocol", "parse_response", ("protocol.decode_ms",)),
    *(
        Wrap("protocol.encode", "repro.api.protocol", f"{name}.to_dict", ("protocol.encode_ms",))
        for name in ("SearchRequest", "BatchRequest", "UpdateRequest",
                     "SearchResponse", "BatchResponse", "UpdateResponse", "ErrorResponse")
    ),
)


#: the modules the in-process stack is assembled from — loaded before any
#: wrapper goes in, so every ``from x import f`` binding exists to be replaced
STACK_MODULES = (
    "repro.api.client", "repro.api.executors", "repro.api.gateway", "repro.api.http",
    "repro.api.service", "repro.corpus", "repro.cluster",
)


class Installed:
    """The wrappers currently in place, and how to take them out again."""

    def __init__(self, recorder: Recorder, table: tuple[Wrap, ...] = WRAP_TABLE):
        self.recorder = recorder
        self.untraced: list[str] = []
        self.null_metrics: set[str] = set()
        self._undo: list[tuple[Any, str, Any]] = []
        for name in STACK_MODULES:
            importlib.import_module(name)
        for wrap in table:
            try:
                self._install(wrap)
            except (ImportError, AttributeError):
                self.untraced.append(f"{wrap.module}.{wrap.attribute}")
                self.null_metrics.update(wrap.metrics)

    def _install(self, wrap: Wrap) -> None:
        module = importlib.import_module(wrap.module)
        owner_path, _, leaf = wrap.attribute.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        traced = self.recorder.wrap(original, wrap.span)
        if owner is not module:
            self._set(owner, leaf, original, traced)
            return
        # A module-level function is bound by name wherever it was
        # imported (``from x import f``): replace every such binding.
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and getattr(loaded, leaf, None) is original:
                self._set(loaded, leaf, original, traced)

    def _set(self, owner: Any, name: str, original: Any, replacement: Any) -> None:
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """An extra, undoable replacement (the stdlib transport hooks)."""
        self._set(owner, name, getattr(owner, name), replacement)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class TimingProxy:
    """A ``ServingBackend`` that records one span around each entry point
    of the backend it forwards to; everything else passes through."""

    def __init__(self, inner: Any, recorder: Recorder, span: str, adopts: bool = False):
        self.inner = inner
        for entry in ("execute", "execute_batch", "execute_update",
                      "handle_dict", "handle_text", "handle_json"):
            setattr(self, entry, recorder.wrap(getattr(inner, entry), span, adopts))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def _trace_transport(installed: Installed) -> None:
    """An ``http`` span from the typed client's ``request()`` to the end of
    its ``read()``: the wire round trip as the client library sees it
    (both socket directions, HTTP parsing, the executor hand-off and the
    server's JSON encode).  Only directly under a ``client`` span — the
    coordinator's per-hop clients are covered by their ``cluster.hop``."""
    recorder = installed.recorder
    local = threading.local()
    send = http.client.HTTPConnection.request
    read = http.client.HTTPResponse.read

    def traced_request(connection: Any, *args: Any, **kwargs: Any) -> Any:
        if recorder.enabled and recorder.top_name() == "client":
            local.span = recorder.open("http", adopts=True)
        return send(connection, *args, **kwargs)

    def traced_read(response: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return read(response, *args, **kwargs)
        finally:
            span = getattr(local, "span", None)
            if span is not None:
                local.span = None
                recorder.close(span, adopts=True)

    installed.patch(http.client.HTTPConnection, "request", traced_request)
    installed.patch(http.client.HTTPResponse, "read", traced_read)


# ---------------------------------------------------------------------- #
# the in-process stack
# ---------------------------------------------------------------------- #
class InProcessStack:
    """The serving stack of ``serve --corpus-dir`` / ``cluster-spawn``,
    assembled here with their default flags, proxies at the backend seam."""

    def __init__(self, workload: str, directory: str, recorder: Recorder):
        from repro.api.client import ServiceClient
        from repro.api.executors import ConcurrentExecutor
        from repro.api.gateway import build_gateway
        from repro.api.http import HttpServer

        self.hops: list[str] = []
        self.load_seconds: float | None = None
        if workload == "cluster_read":
            from repro.cluster import RemoteClusterService

            self.backend = RemoteClusterService.spawn(
                directory, replicas=2, workers=2, health_interval=0.25
            )
            inner = TimingProxy(self.backend, recorder, "cluster.coordinator", adopts=True)
        else:
            from repro.api.service import SnippetService
            from repro.corpus import Corpus

            started = time.perf_counter()
            corpus = Corpus.load_dir(directory)
            self.load_seconds = time.perf_counter() - started
            self.backend = SnippetService(corpus)
            inner = TimingProxy(self.backend, recorder, "service")
        try:
            self._trace_hops(recorder)
            self.gateway = build_gateway(inner)
            self.executor = ConcurrentExecutor(max_workers=8)
            self.server = HttpServer(
                TimingProxy(self.gateway, recorder, "gateway"), port=0, executor=self.executor
            )
            self.server.start()
            self.client = ServiceClient("127.0.0.1", self.server.port, timeout=60.0, keep_alive=True)
        except BaseException:
            self.backend.close()
            raise

    def _trace_hops(self, recorder: Recorder) -> None:
        """A ``cluster.hop`` span around each endpoint client's ``post``,
        remembering which endpoint served it."""
        for replica_set in getattr(self.backend, "replica_sets", ()):
            for endpoint in replica_set.endpoints():
                traced = recorder.wrap(endpoint.client.post, "cluster.hop")

                def post(payload: Any, _traced: Any = traced, _address: str = endpoint.address) -> Any:
                    if recorder.enabled:
                        self.hops.append(_address)
                    return _traced(payload)

                endpoint.client.post = post

    def endpoint_stats(self) -> list[dict[str, Any]]:
        """``/v1/stats`` of every shard endpoint (the coordinator's own
        stats carry no cache counters)."""
        return [
            endpoint.client.stats()
            for replica_set in getattr(self.backend, "replica_sets", ())
            for endpoint in replica_set.endpoints()
        ]

    def post(self, payload: dict[str, Any]) -> bytes:
        """One request through the typed client, as the bytes the server
        wrote (``sort_keys`` JSON round-trips exactly)."""
        return json.dumps(self.client.handle_dict(payload), sort_keys=True).encode("utf-8")

    def close(self) -> None:
        try:
            self.client.close()
            self.server.stop()
            self.executor.close()
        finally:
            self.gateway.close()  # closes the backend: executor, shard processes


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
class Analysis:
    """Per-request sums of span self time and duration, by span name."""

    def __init__(self, spans: list[list[Any]]):
        self.spans = spans
        children: dict[int, list[int]] = {}
        for index, span in enumerate(spans):
            if span[3] >= 0:
                children.setdefault(span[3], []).append(index)
        self.children = children
        self.self_ms: dict[int, dict[str, float]] = {}
        self.total_ms: dict[int, dict[str, float]] = {}
        self.count: dict[int, dict[str, int]] = {}
        self.overlapped: set[int] = set()
        for index, (name, start, end, parent, request) in enumerate(spans):
            covered, overlap = _covered(
                [(spans[child][1], spans[child][2]) for child in children.get(index, ())],
                start, end,
            )
            if overlap:
                self.overlapped.add(request)
            own = self.self_ms.setdefault(request, {})
            own[name] = own.get(name, 0.0) + 1e3 * (end - start - covered)
            counts = self.count.setdefault(request, {})
            counts[name] = counts.get(name, 0) + 1
            if not self._nested_in_same_name(index):
                total = self.total_ms.setdefault(request, {})
                total[name] = total.get(name, 0.0) + 1e3 * (end - start)

    def _nested_in_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def per_request(self, table: dict[int, dict[str, float]], requests: list[int], name: str) -> list[float]:
        return [table.get(request, {}).get(name, 0.0) for request in requests]

    def durations(self, requests: set[int], name: str) -> list[float]:
        return [1e3 * (span[2] - span[1]) for span in self.spans
                if span[0] == name and span[4] in requests]


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> tuple[float, bool]:
    """Length of [start, end] covered by the union of ``intervals``, and
    whether any two of them overlap (parallel children)."""
    covered = 0.0
    overlap = False
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, start), min(high, end)
        if low < cursor:
            overlap = overlap or high > low
            low = cursor
        if high > low:
            covered += high - low
            cursor = high
    return covered, overlap


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _mean(values: list[float]) -> float | None:
    return statistics.fmean(values) if values else None


#: per-layer metric → unit, in the order they are printed
PER_LAYER_UNITS = {
    "client.self_ms": "ms",
    "http.self_ms": "ms",
    "gateway.self_ms": "ms",
    "service.self_ms": "ms",
    "service.render_ms": "ms",
    "service.payloads_per_request": "count",
    "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.response_bytes": "bytes",
    "system.self_ms": "ms",
    "cache.result_hit_rate": "ratio",
    "cache.snippet_hit_rate": "ratio",
    "cache.invalidated_per_update": "count",
    "search.total_ms": "ms",
    "search.lookup_ms": "ms",
    "search.lca_ms": "ms",
    "search.construct_ms": "ms",
    "search.rank_ms": "ms",
    "search.results_per_query": "count",
    "snippet.total_ms": "ms",
    "snippet.ilist_ms": "ms",
    "snippet.features_ms": "ms",
    "snippet.select_ms": "ms",
    "snippet.per_result_ms": "ms",
    "snippet.generated_per_request": "count",
    "snippet.returned_ratio": "ratio",
    "corpus.update_ms": "ms",
    "xmltree.parse_ms": "ms",
    "xmltree.diff_ms": "ms",
    "index.incremental_ms": "ms",
    "corpus.incremental_ratio": "ratio",
    "xmltree.parse_s": "s",
    "index.build_s": "s",
    "index.save_s": "s",
    "index.load_s": "s",
    "index.snapshot_bytes_per_node": "bytes",
    "serve.spawn_to_ready_s": "s",
    "cluster.coordinator_self_ms": "ms",
    "cluster.hop_ms": "ms",
    "cluster.hops_per_request": "count",
    "cluster.fanout_wait_ms": "ms",
    "cluster.replica_balance": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: metrics of layers that run inside the shard processes on
#: ``cluster_read`` (out of this process's sight), and the converse
IN_SHARDS = ("service.", "system.", "search.", "snippet.", "corpus.", "xmltree.parse_ms",
             "xmltree.diff_ms", "index.incremental_ms")



def layer_metrics(
    workload: str, analysis: Analysis, log: workloads.PhaseLog, hops: list[str]
) -> tuple[dict[str, float | None], dict[str, float | None]]:
    """The span-derived per-layer metrics of one traced replay, and two
    checks on the trace itself (``self_sum_ratio``: per-request self times
    over the client span; ``search_snippet_share``: the share of the
    client span inside ``repro.search`` + ``repro.snippet``).

    Timings are medians over the workload's *primary* requests — page-1
    requests on ``cold_browse``, searches elsewhere (updates for the
    write path, batches for the fan-out wait); counts are means.
    """
    by_kind: dict[str, list[int]] = {}
    for request, exchange in enumerate(log.exchanges):
        by_kind.setdefault(exchange.kind, []).append(request)
    reads = by_kind.get("search", [])
    updates = by_kind.get("update", [])
    batches = by_kind.get("batch", [])
    self_ms, total_ms = analysis.self_ms, analysis.total_ms

    def read_self(name: str) -> float | None:
        return _median(analysis.per_request(self_ms, reads, name))

    def read_total(name: str) -> float | None:
        return _median(analysis.per_request(total_ms, reads, name))

    metrics: dict[str, float | None] = {
        "client.self_ms": read_self("client"),
        "http.self_ms": read_self("http"),
        "gateway.self_ms": read_self("gateway"),
        "service.self_ms": read_self("service"),
        "service.render_ms": read_total("service.render"),
        "protocol.decode_ms": read_self("protocol.decode"),
        "protocol.encode_ms": read_self("protocol.encode"),
        "protocol.response_bytes": _median(
            [float(len(log.exchanges[request].body)) for request in reads]
        ),
        "system.self_ms": read_self("system"),
        "search.total_ms": read_total("search"),
        "search.lookup_ms": read_total("search.lookup"),
        "search.lca_ms": read_total("search.lca"),
        "search.construct_ms": read_total("search.construct"),
        "search.rank_ms": read_total("search.rank"),
        "snippet.total_ms": read_total("snippet"),
        "snippet.ilist_ms": read_total("snippet.ilist"),
        "snippet.features_ms": read_total("snippet.features"),
        "snippet.select_ms": read_total("snippet.select"),
        "corpus.update_ms": _median(analysis.per_request(total_ms, updates, "corpus.update")),
        "xmltree.parse_ms": _median(analysis.per_request(total_ms, updates, "xmltree.parse")),
        "xmltree.diff_ms": _median(analysis.per_request(total_ms, updates, "xmltree.diff")),
        "index.incremental_ms": _median(
            analysis.per_request(total_ms, updates, "index.incremental")
        ),
        "cluster.coordinator_self_ms": read_self("cluster.coordinator"),
        "cluster.hop_ms": _median(analysis.durations(set(reads), "cluster.hop")),
    }
    counts = analysis.count
    # A generate() span with an IList child did the work; one without was
    # a snippet-cache hit.
    generated = [counts.get(request, {}).get("snippet.ilist", 0) for request in reads]
    rendered = [counts.get(request, {}).get("service.render", 0) for request in reads]
    metrics["service.payloads_per_request"] = _mean([float(n) for n in rendered])
    metrics["snippet.generated_per_request"] = _mean([float(n) for n in generated])
    metrics["snippet.returned_ratio"] = (
        sum(rendered) / sum(generated) if sum(generated) else None
    )
    read_set = set(reads)
    worked = [index for index, span in enumerate(analysis.spans)
              if span[0] == "snippet" and span[4] in read_set
              and any(analysis.spans[child][0] == "snippet.ilist"
                      for child in analysis.children.get(index, ()))]
    metrics["snippet.per_result_ms"] = _median(
        [1e3 * (analysis.spans[index][2] - analysis.spans[index][1]) for index in worked]
    )
    metrics["corpus.incremental_ratio"] = (
        sum(1 for request in updates if counts.get(request, {}).get("index.incremental"))
        / len(updates) if updates else None
    )
    every = reads + batches
    metrics["cluster.hops_per_request"] = (
        _mean([float(counts.get(request, {}).get("cluster.hop", 0)) for request in every])
        if hops else None
    )
    metrics["cluster.fanout_wait_ms"] = _median(
        [max(analysis.durations({request}, "cluster.hop"), default=0.0) for request in batches]
    ) if hops else None
    metrics["cluster.replica_balance"] = (
        max(hops.count(address) for address in set(hops)) / len(hops) if hops else None
    )
    # Self times partition the client span exactly unless children ran in
    # parallel (a batch fan-out), so the check reads requests without overlap.
    ratios = []
    shares = []
    for request in reads:
        client = total_ms.get(request, {}).get("client", 0.0)
        if client and request not in analysis.overlapped:
            ratios.append(sum(self_ms[request].values()) / client)
            shares.append(
                (total_ms[request].get("search", 0.0) + total_ms[request].get("snippet", 0.0))
                / client
            )
    absent = IN_SHARDS if workload == "cluster_read" else ("cluster.",)
    for name in metrics:
        if name.startswith(absent):
            metrics[name] = None
    # read off the responses, so it is known wherever the search ran
    metrics["search.results_per_query"] = _mean(
        [float(json.loads(log.exchanges[request].body).get("total_results", 0))
         for request in reads]
    )
    return metrics, {
        "self_sum_ratio": _median(ratios), "search_snippet_share": _median(shares),
    }


# ---------------------------------------------------------------------- #
# set-up layers, cache counters
# ---------------------------------------------------------------------- #
def setup_layer_metrics(
    xml_paths: list[str], scratch: str
) -> tuple[dict[str, float | None], list[str]]:
    """Parse / build / save each document through the public API, timed
    apart — what ``corpus-save`` spends where.  A missing API makes its
    metric ``null`` instead of failing the run."""
    try:
        from repro.index.builder import IndexBuilder
        from repro.index.storage import save_index
        from repro.xmltree.dtd import dtd_for_tree_text
        from repro.xmltree.parser import parse_xml_file
    except ImportError as error:
        return {}, [f"set-up layer API: {error}"]
    parse = build = save = 0.0
    for serial, path in enumerate(xml_paths):
        started = time.perf_counter()
        parsed = parse_xml_file(path)
        parse += time.perf_counter() - started
        started = time.perf_counter()
        index = IndexBuilder(
            dtd=dtd_for_tree_text(parsed.dtd_text, root=parsed.doctype_name)
        ).build(parsed.tree)
        build += time.perf_counter() - started
        started = time.perf_counter()
        save_index(index, os.path.join(scratch, f"layer-{serial}"), format_version=4)
        save += time.perf_counter() - started
    return {"xmltree.parse_s": parse, "index.build_s": build, "index.save_s": save}, []


def directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


def cache_counters(stats: list[dict[str, Any]]) -> dict[str, float]:
    """Hits, lookups and invalidations of the result and snippet caches,
    summed over every document of every stats envelope."""
    totals = {"query.hits": 0.0, "query.lookups": 0.0, "snippet.hits": 0.0,
              "snippet.lookups": 0.0, "invalidations": 0.0}
    for envelope in stats:
        for per_document in (envelope.get("caches") or {}).values():
            for cache in ("query", "snippet"):
                counters = per_document.get(cache, {})
                totals[f"{cache}.hits"] += counters.get("hits", 0)
                totals[f"{cache}.lookups"] += counters.get("hits", 0) + counters.get("misses", 0)
                totals["invalidations"] += counters.get("invalidations", 0)
    return totals


def cache_metrics(before: dict[str, float], after: dict[str, float], updates: int) -> dict[str, float | None]:
    delta = {key: after[key] - before[key] for key in after}
    return {
        "cache.result_hit_rate": (
            delta["query.hits"] / delta["query.lookups"] if delta["query.lookups"] else None
        ),
        "cache.snippet_hit_rate": (
            delta["snippet.hits"] / delta["snippet.lookups"] if delta["snippet.lookups"] else None
        ),
        "cache.invalidated_per_update": delta["invalidations"] / updates if updates else None,
    }


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #
def run_traced(
    workload: str, seed: int, seconds: float, scale: str = "full",
    table: tuple[Wrap, ...] = WRAP_TABLE,
) -> dict[str, Any]:
    """Replay the traced prefix of one workload; returns the result record
    whose ``metrics`` are the per-layer ones."""
    plan = plans.build_plan(workload, seed, seconds, scale)
    prefix = plan.main[: PREFIX[scale][workload]]
    warmup = plans.warmup_of(workload, prefix)
    judge = workloads.Judge()
    recorder = Recorder()
    metrics: dict[str, float | None] = dict.fromkeys(PER_LAYER_UNITS)
    update_count = sum(1 for step in prefix if step.kind == "update")

    with Workspace() as workspace:
        # 1. the reference: the real spawned server, untraced
        xml_paths = workspace.write_documents(plan.documents)
        server, directory, setup = workloads.set_up_once(workspace, plan, xml_paths, 0)
        metrics["serve.spawn_to_ready_s"] = setup["spawn"]
        metrics["index.snapshot_bytes_per_node"] = directory_bytes(directory) / sum(
            document.nodes for document in plan.documents
        )
        wire = WireClient(server.port)
        try:
            workloads.drive(wire.post, warmup)
            stats_before = cache_counters([wire.get("/v1/stats")])
            reference = workloads.drive(wire.post, prefix)
            stats_after = cache_counters([wire.get("/v1/stats")])
        finally:
            wire.close()
        server.stop()
        if workload != "cluster_read":
            metrics.update(cache_metrics(stats_before, stats_after, update_count))

        # 2. the same prefix through the in-process stack, traced
        layer, untraced = setup_layer_metrics(xml_paths, workspace.root)
        metrics.update(layer)
        installed = Installed(recorder, table)
        try:
            stack = InProcessStack(workload, directory, recorder)
            try:
                _trace_transport(installed)
                metrics["index.load_s"] = stack.load_seconds

                traced_post = recorder.wrap(stack.post, "client")

                def post(payload: dict[str, Any]) -> bytes:
                    recorder.request += 1
                    return traced_post(payload)

                workloads.drive(stack.post, warmup)
                shard_before = cache_counters(stack.endpoint_stats())
                recorder.enabled = True
                traced = workloads.drive(post, prefix)
                recorder.enabled = False
                if workload == "cluster_read":
                    metrics.update(
                        cache_metrics(shard_before, cache_counters(stack.endpoint_stats()), 0)
                    )
                hops = list(stack.hops)
            finally:
                stack.close()
        finally:
            installed.remove()

        # 3. cluster only: one SnippetService holding the same documents
        oracle = None
        if workload == "cluster_read":
            oracle = workloads.drive(_single_service(plan), prefix)

    for log in (reference, traced):
        judge.judge(log)
    _same_bytes(judge, "in-process stack", traced, reference)
    if oracle is not None:
        _same_bytes(judge, "single SnippetService", oracle, reference)

    analysis = Analysis(recorder.spans)
    from_spans, trace_checks = layer_metrics(workload, analysis, traced, hops)
    metrics.update(from_spans)
    metrics["trace.overhead_ratio"] = traced.wall / reference.wall
    for name in installed.null_metrics:
        metrics[name] = None
    trace_path = os.path.join(OUT_DIR, f"trace_{workload}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload, "seed": seed, "scale": scale,
                "untraced": installed.untraced + untraced,
                "span_fields": ["name", "start", "end", "parent", "request"],
                "spans": recorder.spans,
            },
            handle,
        )
    record = workloads.result_record(
        plan, "traced", seed, seconds, scale, reference, judge, metrics, PER_LAYER_UNITS,
        samples={
            "traced_steps": len(prefix),
            "traced_requests": len(traced.exchanges),
            "warmup_requests": len(warmup),
            "spans": len(recorder.spans),
            **trace_checks,
            "trace_file": os.path.relpath(trace_path, OUT_DIR),
        },
    )
    record["untraced"] = installed.untraced + untraced
    return record


def _single_service(plan: plans.Plan) -> Callable[[dict[str, Any]], bytes]:
    from repro.api.service import SnippetService
    from repro.corpus import Corpus

    corpus = Corpus()
    for document in plan.documents:
        corpus.add_xml(document.name, document.xml)
    service = SnippetService(corpus)
    return lambda payload: service.handle_json(json.dumps(payload)).encode("utf-8")


def _same_bytes(
    judge: workloads.Judge, who: str, log: workloads.PhaseLog, reference: workloads.PhaseLog
) -> None:
    """Every response of ``log`` must equal the spawned server's, byte for byte."""
    if len(log.exchanges) != len(reference.exchanges):
        judge.fail(f"{who} answered {len(log.exchanges)} requests, the server "
                   f"{len(reference.exchanges)}")
    for ours, theirs in zip(log.exchanges, reference.exchanges):
        judge.attempted += 1
        if ours.body != theirs.body:
            judge.fail(f"{who} differs from the spawned server on {ours.kind} step {ours.step}")
