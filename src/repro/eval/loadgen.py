"""Closed-loop load harness: seeded traffic, measurement, feature ablation.

Point benchmarks time one operation in isolation; serving regressions live
in the *mixture* — cache-friendly repeats vs. cold queries, reads racing
updates, admission control under a burst.  This module generates that
mixture against the real HTTP server and measures it through the existing
observability stack, in three layers:

1. **Traffic generation** (:class:`LoadProfile` → :func:`build_plan`):
   an open-loop request sequence with Zipf-skewed query/document
   popularity, a configurable search/batch/update mix, and Poisson,
   fixed-rate or closed-loop arrivals.  Every random draw comes from one
   ``random.Random(seed)`` (a :class:`~repro.datasets.base.DatasetRandom`),
   so a profile plus a corpus determines the request sequence completely —
   two runs with the same seed issue byte-identical payloads in the same
   order (the ``seeded-rng`` analysis rule keeps it that way).

2. **Measurement** (:func:`run_load` → :class:`LoadReport`): per-request
   latency recorded client-side through one shared
   :class:`~repro.api.client.ServiceClient` (its keep-alive pool gives each
   busy worker a connection), plus a before/after scrape of
   ``GET /v1/stats`` — p50/p95/p99 latency, achieved throughput, error and
   shed rates, and the serving-cache hit rate for exactly the requests the
   run issued.  :func:`report_rows` shapes the result for the file
   ``loadgen --report`` writes (:func:`write_report_file`, schema v2).

3. **Ablation** (:func:`ablation_matrix` → :func:`run_ablation`): a
   baseline-plus-one-flip matrix over serving flags (caches on/off,
   admission limits, deadlines, executor width …), each
   configuration served by a freshly spawned ``repro.cli serve`` process
   (via :func:`repro.cluster.remote.spawn_server`) and measured with the
   *same* request plan, ranked into an
   :class:`~repro.eval.reporting.ExperimentTable`.

``python -m repro.cli loadgen`` / ``loadgen-ablate`` drive all three; see
``docs/loadgen.md``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api.client import ServiceClient
from repro.api.protocol import (
    DEFAULT_SIZE_BOUND,
    BatchRequest,
    SearchRequest,
    UpdateRequest,
)
from repro.datasets.base import DatasetRandom
from repro.errors import EvaluationError
from repro.eval.reporting import ExperimentTable
from repro.eval.workload import WorkloadGenerator
from repro.obs.clock import monotonic, perf_counter
from repro.xmltree.serialize import to_xml_string

#: request kinds the traffic mix is drawn over
REQUEST_KINDS = ("search", "batch", "update")

#: supported arrival processes — ``closed`` fires as fast as the workers
#: complete (a closed loop); the open-loop processes schedule arrivals
#: independently of completions
ARRIVALS = ("closed", "poisson", "fixed")

#: latency percentiles every report carries
PERCENTILES = (50, 95, 99)


# ---------------------------------------------------------------------- #
# layer 1: the traffic model
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoadProfile:
    """Everything that determines a request sequence, seed included.

    The weights describe the search/batch/update mix (normalised over
    their sum); ``zipf_skew`` shapes both document and query popularity
    (higher → a hotter head, a cache-friendlier stream).  ``rate_rps``
    only applies to the open-loop arrivals and is the *aggregate* target
    rate across all workers.
    """

    seed: int = 0
    requests: int = 100
    duration_seconds: float | None = None
    concurrency: int = 4
    arrival: str = "closed"
    rate_rps: float | None = None
    search_weight: float = 0.8
    batch_weight: float = 0.15
    update_weight: float = 0.05
    zipf_skew: float = 1.1
    batch_size: int = 4
    queries_per_document: int = 16
    keywords_per_query: int = 2
    size_bound: int = DEFAULT_SIZE_BOUND

    def validate(self) -> "LoadProfile":
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise EvaluationError(f"seed must be an integer, got {self.seed!r}")
        if self.requests < 1:
            raise EvaluationError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise EvaluationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.arrival not in ARRIVALS:
            raise EvaluationError(
                f"unknown arrival process {self.arrival!r}; expected one of {ARRIVALS}"
            )
        if self.arrival != "closed" and (
            self.rate_rps is None or self.rate_rps <= 0
        ):
            raise EvaluationError(
                f"{self.arrival!r} arrivals need a positive rate_rps"
            )
        weights = (self.search_weight, self.batch_weight, self.update_weight)
        if min(weights) < 0 or sum(weights) <= 0:
            raise EvaluationError(
                f"mix weights must be non-negative with a positive sum, got {weights}"
            )
        if self.duration_seconds is not None and self.duration_seconds <= 0:
            raise EvaluationError(
                f"duration_seconds must be positive, got {self.duration_seconds}"
            )
        if self.batch_size < 1 or self.queries_per_document < 1:
            raise EvaluationError("batch_size and queries_per_document must be >= 1")
        return self


#: the scale CI runs on every push: small enough for seconds, mixed
#: enough to exercise search, batch, update and the caches
SMOKE_PROFILE = LoadProfile(seed=7, requests=48, concurrency=3)


@dataclass(frozen=True)
class PlannedRequest:
    """One scheduled request: fire ``payload`` at ``offset`` seconds."""

    index: int
    offset: float
    kind: str
    payload: dict[str, Any]


@dataclass
class RequestPlan:
    """The full, deterministic request sequence for one run."""

    profile: LoadProfile
    document_names: list[str]
    requests: list[PlannedRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def sequence(self) -> list[dict[str, Any]]:
        """The wire payloads in firing order (the determinism witness)."""
        return [planned.payload for planned in self.requests]

    def signature(self) -> str:
        """A canonical digest of the sequence: equal signatures ⇔ equal
        request streams (offsets included)."""
        import hashlib

        canonical = json.dumps(
            [
                [planned.index, round(planned.offset, 9), planned.payload]
                for planned in self.requests
            ],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_plan(corpus: Any, profile: LoadProfile) -> RequestPlan:
    """Generate the request sequence for ``profile`` over ``corpus``.

    The corpus is only consulted for document names, per-document query
    pools (via the seeded :class:`WorkloadGenerator`) and update bodies —
    the plan is a pure function of ``(corpus contents, profile)``, so a
    client that builds the same corpus as the server plans the exact
    traffic the server will see.
    """
    profile.validate()
    entries = corpus.entries_snapshot()
    if not entries:
        raise EvaluationError("cannot plan load over an empty corpus")
    rng = DatasetRandom(profile.seed)
    names = [entry.name for entry in entries]

    pools: dict[str, list[str]] = {}
    bodies: dict[str, str] = {}
    for entry in entries:
        workload = WorkloadGenerator(entry.system.index, seed=profile.seed).generate(
            query_count=profile.queries_per_document,
            keywords_per_query=profile.keywords_per_query,
            name=f"loadgen-{entry.name}",
        )
        pools[entry.name] = workload.texts()
        bodies[entry.name] = to_xml_string(entry.system.index.tree)

    total_weight = (
        profile.search_weight + profile.batch_weight + profile.update_weight
    )
    search_cut = profile.search_weight / total_weight
    batch_cut = search_cut + profile.batch_weight / total_weight

    plan = RequestPlan(profile=profile, document_names=names)
    offset = 0.0
    for index in range(profile.requests):
        if profile.arrival == "poisson":
            offset += rng.expovariate(profile.rate_rps)
        elif profile.arrival == "fixed":
            offset = index / profile.rate_rps
        document = names[rng.skewed_index(len(names), profile.zipf_skew)]
        pool = pools[document]
        draw = rng.random()
        if draw < search_cut:
            payload = SearchRequest(
                query=pool[rng.skewed_index(len(pool), profile.zipf_skew)],
                document=document,
                size_bound=profile.size_bound,
            ).to_dict()
            kind = "search"
        elif draw < batch_cut:
            queries = tuple(
                pool[rng.skewed_index(len(pool), profile.zipf_skew)]
                for _ in range(min(profile.batch_size, len(pool)))
            )
            payload = BatchRequest(
                queries=queries, size_bound=profile.size_bound
            ).to_dict()
            kind = "batch"
        else:
            # Text-identical re-registration: real update-path work
            # (journalling, cache invalidation) without changing the
            # answers concurrent reads observe.
            payload = UpdateRequest(document=document, xml=bodies[document]).to_dict()
            kind = "update"
        plan.requests.append(
            PlannedRequest(index=index, offset=offset, kind=kind, payload=payload)
        )
    return plan


# ---------------------------------------------------------------------- #
# layer 2: drive + measure
# ---------------------------------------------------------------------- #
@dataclass
class RequestOutcome:
    """What one fired request came back as, client-side."""

    index: int
    kind: str
    seconds: float
    ok: bool
    code: str | None = None  # machine-readable error code, if any


def percentile(samples: Sequence[float], p: float) -> float | None:
    """Nearest-rank percentile; ``None`` over an empty sample."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass
class LoadReport:
    """One run's measurements, client- and server-side."""

    profile: LoadProfile
    requests_sent: int
    duration_seconds: float
    latency: dict[str, float | None]
    throughput_rps: float
    errors: int
    shed: int
    error_rate: float
    shed_rate: float
    cache_hit_rate: float | None
    by_kind: dict[str, int]
    outcomes: list[RequestOutcome] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.profile.seed,
            "requests_sent": self.requests_sent,
            "duration_seconds": self.duration_seconds,
            "latency": dict(self.latency),
            "throughput_rps": self.throughput_rps,
            "errors": self.errors,
            "shed": self.shed,
            "error_rate": self.error_rate,
            "shed_rate": self.shed_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "by_kind": dict(self.by_kind),
        }


def _cache_totals(stats: dict[str, Any]) -> tuple[float, float]:
    """(hits, lookups) summed over every document's result cache (the
    ``"query"`` section): one lookup per request.  The root memo
    (``"roots"``) looks up once per generated snippet, so adding it in
    would weigh a request by its snippets."""
    hits = 0.0
    lookups = 0.0
    caches = stats.get("caches")
    if not isinstance(caches, dict):
        return hits, lookups
    for per_document in caches.values():
        cache = per_document.get("query") if isinstance(per_document, dict) else None
        if isinstance(cache, dict):
            hits += float(cache.get("hits", 0))
            lookups += float(cache.get("hits", 0)) + float(cache.get("misses", 0))
    return hits, lookups


def _shed_count(stats: dict[str, Any]) -> float:
    admission = stats.get("admission")
    if isinstance(admission, dict):
        return float(admission.get("rejected", 0))
    return 0.0


def run_load(
    plan: RequestPlan,
    host: str = "127.0.0.1",
    port: int = 8080,
    timeout: float = 30.0,
) -> LoadReport:
    """Fire ``plan`` at the server and measure; never raises per-request.

    The workers share one :class:`~repro.api.client.ServiceClient`, whose
    keep-alive pool costs at most one connection per busy worker; requests
    are assigned round-robin by plan index, so the per-worker subsequences
    are as deterministic as the plan itself.  A transport failure counts as
    an error outcome (code ``internal``), exactly as the backend contract
    shapes it.
    """
    profile = plan.profile
    workers = min(profile.concurrency, max(1, len(plan.requests)))
    results: list[list[RequestOutcome]] = [[] for _ in range(workers)]
    barrier = threading.Barrier(workers + 1)

    with ServiceClient(host=host, port=port, timeout=timeout) as client:
        stats_before = client.stats()

        def work(worker: int) -> None:
            mine = results[worker]
            barrier.wait()
            base = monotonic()
            for planned in plan.requests[worker::workers]:
                now = monotonic() - base
                if (
                    profile.duration_seconds is not None
                    and now >= profile.duration_seconds
                ):
                    break
                if planned.offset > now:
                    time.sleep(planned.offset - now)
                started = perf_counter()
                answer = client.handle_dict(planned.payload)
                seconds = perf_counter() - started
                code = (
                    answer.get("code")
                    if isinstance(answer, dict) and answer.get("kind") == "error"
                    else None
                )
                mine.append(
                    RequestOutcome(
                        index=planned.index,
                        kind=planned.kind,
                        seconds=seconds,
                        ok=code is None,
                        code=code,
                    )
                )

        threads = [
            threading.Thread(target=work, args=(worker,), name=f"loadgen-{worker}")
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = perf_counter()
        for thread in threads:
            thread.join()
        duration = perf_counter() - started
        stats_after = client.stats()

    outcomes = sorted(
        (outcome for bucket in results for outcome in bucket),
        key=lambda outcome: outcome.index,
    )
    sent = len(outcomes)
    latencies = [outcome.seconds for outcome in outcomes]
    shed = sum(1 for outcome in outcomes if outcome.code == "overloaded")
    errors = sum(1 for outcome in outcomes if not outcome.ok) - shed
    by_kind: dict[str, int] = {}
    for outcome in outcomes:
        by_kind[outcome.kind] = by_kind.get(outcome.kind, 0) + 1

    hits_before, lookups_before = _cache_totals(stats_before)
    hits_after, lookups_after = _cache_totals(stats_after)
    lookups_delta = lookups_after - lookups_before
    cache_hit_rate = (
        (hits_after - hits_before) / lookups_delta if lookups_delta > 0 else None
    )
    # Server-side shed is authoritative when admission control is on: a
    # rejected request may also surface client-side as "overloaded", but
    # the delta counts rejections the client timed out on as well.
    server_shed = _shed_count(stats_after) - _shed_count(stats_before)
    shed = max(shed, int(server_shed))

    return LoadReport(
        profile=profile,
        requests_sent=sent,
        duration_seconds=duration,
        latency={
            f"p{p}": percentile(latencies, p) for p in PERCENTILES
        },
        throughput_rps=sent / duration if duration > 0 else 0.0,
        errors=errors,
        shed=shed,
        error_rate=errors / sent if sent else 0.0,
        shed_rate=shed / sent if sent else 0.0,
        cache_hit_rate=cache_hit_rate,
        by_kind=by_kind,
        outcomes=outcomes,
    )


def report_rows(report: LoadReport, op: str = "loadgen_mixed") -> list[dict[str, Any]]:
    """Schema-v2 rows for :func:`write_report_file`.

    ``seconds`` carries the whole run's wall time (the v1-compatible
    field); the workload fields carry the measurements this harness
    exists for.
    """
    return [
        {
            "op": op,
            "seconds": report.duration_seconds,
            "requests": report.requests_sent,
            "latency": dict(report.latency),
            "throughput_rps": report.throughput_rps,
            "error_rate": report.error_rate,
            "shed_rate": report.shed_rate,
            "cache_hit_rate": report.cache_hit_rate,
        }
    ]


def parse_mix(text: str) -> dict[str, float]:
    """``"search=0.8,batch=0.15,update=0.05"`` → weight per request kind.

    Omitted kinds weigh 0; unknown kinds and unparsable weights are
    errors.  At least one weight must be positive.
    """
    weights = {kind: 0.0 for kind in REQUEST_KINDS}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, separator, value = part.partition("=")
        kind = kind.strip()
        if not separator or kind not in REQUEST_KINDS:
            raise EvaluationError(
                f"bad mix component {part!r}: expected kind=weight with kind "
                f"in {REQUEST_KINDS}"
            )
        try:
            weights[kind] = float(value)
        except ValueError as exc:
            raise EvaluationError(f"bad mix weight in {part!r}: {exc}") from exc
    if min(weights.values()) < 0 or sum(weights.values()) <= 0:
        raise EvaluationError(
            f"mix weights must be non-negative with a positive sum, got {weights}"
        )
    return weights


#: version of the envelope :func:`write_report_file` writes
REPORT_SCHEMA_VERSION = 2


def write_report_file(
    rows: list[dict[str, Any]], path: str, benchmark: str = "loadgen"
) -> str:
    """Write rows to ``path`` as ``{schema_version, benchmark, results}``
    with the rows sorted by ``op`` (``repro.cli loadgen --report``)."""
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "benchmark": benchmark,
        "results": sorted(rows, key=lambda row: str(row.get("op", ""))),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------- #
# layer 3: the ablation matrix
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FlagValue:
    """One setting of a serving flag: a label and the serve argv for it."""

    label: str
    argv: tuple[str, ...] = ()


@dataclass(frozen=True)
class AblationFlag:
    """A serving feature the matrix flips one at a time."""

    name: str
    baseline: FlagValue
    variants: tuple[FlagValue, ...]


@dataclass(frozen=True)
class AblationConfig:
    """One server configuration: every flag's label plus the argv tail."""

    name: str
    values: tuple[tuple[str, str], ...]  # ((flag, label), …) in flag order
    argv: tuple[str, ...]


def ablation_matrix(flags: Sequence[AblationFlag]) -> list[AblationConfig]:
    """Baseline plus one configuration per (flag, variant) flip.

    The enumeration is exhaustive (every variant of every flag appears
    exactly once), deduplicated (a variant labelled like its baseline is
    rejected, and duplicate flag names or variant labels are errors, not
    silent merges) and deterministic (flags and variants in given order).
    """
    seen_flags: set[str] = set()
    for flag in flags:
        if flag.name in seen_flags:
            raise EvaluationError(f"duplicate ablation flag {flag.name!r}")
        seen_flags.add(flag.name)
        labels = {flag.baseline.label}
        for variant in flag.variants:
            if variant.label in labels:
                raise EvaluationError(
                    f"flag {flag.name!r}: variant label {variant.label!r} "
                    f"duplicates the baseline or another variant"
                )
            labels.add(variant.label)
    if not flags:
        raise EvaluationError("an ablation needs at least one flag")

    def config(flipped: AblationFlag | None, variant: FlagValue | None) -> AblationConfig:
        values: list[tuple[str, str]] = []
        argv: list[str] = []
        for flag in flags:
            value = variant if (flipped is flag and variant is not None) else flag.baseline
            values.append((flag.name, value.label))
            argv.extend(value.argv)
        name = (
            "baseline"
            if flipped is None
            else f"{flipped.name}={variant.label}"
        )
        return AblationConfig(name=name, values=tuple(values), argv=tuple(argv))

    matrix = [config(None, None)]
    for flag in flags:
        for variant in flag.variants:
            matrix.append(config(flag, variant))
    return matrix


def default_flags() -> list[AblationFlag]:
    """The serving flags every later perf PR gets judged against."""
    return [
        AblationFlag(
            name="caches",
            baseline=FlagValue("on"),
            variants=(FlagValue("off", ("--cache-size", "0")),),
        ),
        AblationFlag(
            name="max-in-flight",
            baseline=FlagValue("unlimited"),
            variants=(
                FlagValue("2", ("--max-in-flight", "2")),
                FlagValue("3", ("--max-in-flight", "3")),
            ),
        ),
        AblationFlag(
            name="deadline",
            baseline=FlagValue("none"),
            variants=(FlagValue("2s", ("--deadline", "2.0")),),
        ),
    ]


def smoke_flags() -> list[AblationFlag]:
    """The ≥4-configuration matrix CI exercises: caches on/off × two
    admission limits (baseline + 3 flips)."""
    return [
        AblationFlag(
            name="caches",
            baseline=FlagValue("on"),
            variants=(FlagValue("off", ("--cache-size", "0")),),
        ),
        AblationFlag(
            name="max-in-flight",
            baseline=FlagValue("unlimited"),
            variants=(
                FlagValue("2", ("--max-in-flight", "2")),
                FlagValue("3", ("--max-in-flight", "3")),
            ),
        ),
    ]


@dataclass
class AblationOutcome:
    """One configuration's spawned run."""

    config: AblationConfig
    report: LoadReport


def run_ablation(
    corpus: Any,
    serve_args: Sequence[str],
    configs: Sequence[AblationConfig],
    profile: LoadProfile,
    host: str = "127.0.0.1",
    workers: int = 4,
    timeout: float = 60.0,
) -> tuple[list[AblationOutcome], ExperimentTable]:
    """Measure every configuration against its own spawned server.

    ``corpus`` is the client-side twin of what ``serve_args`` makes the
    server load — it only feeds :func:`build_plan`, so every configuration
    is hit with the *same* request sequence and the comparison isolates
    the flipped flag.  The returned table is ranked by achieved
    throughput, baseline marked.
    """
    from repro.cluster.remote import spawn_server

    plan = build_plan(corpus, profile)
    outcomes: list[AblationOutcome] = []
    for config in configs:
        process = spawn_server(
            [*serve_args, *config.argv],
            label=f"loadgen[{config.name}]",
            host=host,
            workers=workers,
            timeout=timeout,
        )
        try:
            report = run_load(plan, host=process.host, port=process.port)
        finally:
            process.terminate()
        outcomes.append(AblationOutcome(config=config, report=report))

    table = ExperimentTable(
        experiment_id="LG1",
        title=f"serving-flag ablation under load (seed {profile.seed}, "
        f"{profile.requests} requests × {len(configs)} configurations)",
        columns=[
            "config",
            "throughput_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "error_rate",
            "shed_rate",
            "cache_hit_rate",
        ],
    )

    def _ms(value: float | None) -> float:
        return round(value * 1000.0, 3) if value is not None else -1.0

    ranked = sorted(
        outcomes, key=lambda outcome: -outcome.report.throughput_rps
    )
    for outcome in ranked:
        report = outcome.report
        table.add_row(
            config=outcome.config.name,
            throughput_rps=round(report.throughput_rps, 2),
            p50_ms=_ms(report.latency.get("p50")),
            p95_ms=_ms(report.latency.get("p95")),
            p99_ms=_ms(report.latency.get("p99")),
            error_rate=round(report.error_rate, 4),
            shed_rate=round(report.shed_rate, 4),
            cache_hit_rate=(
                round(report.cache_hit_rate, 4)
                if report.cache_hit_rate is not None
                else -1.0
            ),
        )
    table.notes = (
        "ranked by achieved throughput; every configuration replayed the "
        "identical seeded request plan; -1.0 marks a metric with no sample"
    )
    return outcomes, table
