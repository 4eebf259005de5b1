"""Command-line interface for the eXtract reproduction.

The original demo was a web site; the closest offline equivalent is a small
CLI that drives the same pipeline.  Sub-commands:

``analyze``
    Parse an XML file (or built-in dataset), print document statistics, the
    entity/attribute/connection breakdown and the mined keys.
``search``
    Run a keyword query and print the ranked result snippets (optionally as
    an HTML page, the Figure 5 stand-in).
``ilist``
    Print the Snippet Information List of each result of a query —
    the Figure 3 view.
``datasets``
    List the built-in synthetic datasets.
``generate``
    Write a built-in dataset to an XML file (with an inferred DOCTYPE).
``experiment``
    Run one or more registered experiments (F1–F5, E1–E7, A1–A2) and print
    their tables.
``batch``
    Run every query of a query file (one per line, ``#`` comments) over one
    or more documents in a single pass and print per-query timing rows.
``corpus-save``
    Index one or more documents and snapshot the corpus to a directory that
    ``batch --corpus-dir`` can reload without re-indexing.
``corpus-update``
    Apply one document edit (update, add or remove) to a saved corpus and
    append it to the corpus's append-only update journal: text-only edits
    are recorded as node-level deltas (replayed incrementally on the next
    load), structural edits and additions as fresh snapshot
    subdirectories — the base snapshot is never rewritten.
``serve-request``
    Execute one JSON request of the typed service protocol
    (:mod:`repro.api`) against a corpus and print the JSON response — the
    offline stand-in for one round trip of the demo's web service.
``serve``
    Run the asyncio HTTP frontend (:mod:`repro.api.http`) over a corpus
    or a sharded cluster: ``POST /v1/search``, ``/v1/batch``,
    ``/v1/update`` and ``GET /v1/health``, ``/v1/stats``, with the
    gateway middleware stack (validation, optional admission control and
    per-request deadlines, metrics) in front of the backend.
``corpus-compact``
    Fold a saved corpus's append-only update journal back into fresh base
    snapshots (staged, atomic, byte-identical search results) — the cheap
    bootstrap form for new shard replicas.
``cluster-init``
    Partition documents across N shards and save the cluster (shard
    corpus directories plus a versioned ``cluster.manifest``).
``cluster-serve-request``
    Execute one JSON request against a sharded cluster through the
    fan-out router (:class:`repro.cluster.ClusterService`) — byte-
    identical responses to ``serve-request`` over the same documents.
``cluster-update``
    Apply one document edit (update, add or remove) to a saved cluster:
    the edit is routed to the owning shard, journalled in that shard's
    ``corpus.journal``, and the cluster manifest version is bumped.
``cluster-spawn``
    Spawn one ``serve --shard-of`` process per shard (× ``--replicas``)
    from a saved cluster and serve the whole cluster over HTTP through
    the remote coordinator (:class:`repro.cluster.RemoteClusterService`):
    reads load-balance across healthy replicas with failover, writes
    replicate through each shard's primary.
``cluster-rebalance``
    Move one document to a different shard of a saved cluster as a
    remove+add journal-delta pair under a manifest version bump.
``lint``
    Run the :mod:`repro.analysis` invariant linter (lock discipline,
    wire determinism, error-contract exhaustiveness, …) over the source
    tree.  Exit codes: 0 clean, 1 findings (with ``--strict`` also stale
    baseline entries), 2 usage error.  See ``docs/analysis.md``.
``trace``
    Pretty-print request traces from a running server's bounded trace
    buffer (``GET /v1/trace`` / ``/v1/trace/<request_id>``) as an
    indented span tree.  See ``docs/observability.md``.
``metrics``
    Print a running server's metrics (``GET /v1/metrics``) as a summary
    table, the versioned JSON snapshot, or the Prometheus text format.

Examples::

    python -m repro.cli analyze --dataset figure5-stores
    python -m repro.cli search --dataset figure5-stores --query "store texas" --bound 6
    python -m repro.cli search --file catalogue.xml --query "movie drama" --html out.html
    python -m repro.cli experiment F3 E4
    python -m repro.cli corpus-save --dataset retail --dataset movies --output ./corpus
    python -m repro.cli batch --queries queries.txt --corpus-dir ./corpus
    echo '{"kind": "search", "schema_version": 1, "query": "store texas",
           "document": "figure5-stores"}' |
        python -m repro.cli serve-request --dataset figure5-stores --request -
    python -m repro.cli cluster-init --dataset retail --dataset movies \\
        --shards 4 --output ./cluster
    echo '{"kind": "search", "schema_version": 1, "query": "movie drama",
           "document": "movies"}' |
        python -m repro.cli cluster-serve-request --cluster-dir ./cluster --request -
    python -m repro.cli corpus-compact --corpus-dir ./corpus
    python -m repro.cli serve --dataset figure5-stores --port 8080 \\
        --max-in-flight 16 --deadline 30
    python -m repro.cli cluster-spawn --cluster-dir ./cluster --replicas 2 --port 8080
    python -m repro.cli cluster-rebalance --cluster-dir ./cluster \\
        --document movies --to-shard 1
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.corpus import builtin_dataset_names
from repro.errors import ExtractError
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.snippet.generator import DEFAULT_SIZE_BOUND
from repro.snippet.render import write_result_page
from repro.system import ExtractSystem
from repro.xmltree.export import export_doctype
from repro.xmltree.serialize import to_xml_string


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="extract",
        description="eXtract: snippet generation for XML keyword search (VLDB 2008 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_source_arguments(sub: argparse.ArgumentParser) -> None:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--file", help="path to an XML document")
        group.add_argument(
            "--dataset",
            choices=builtin_dataset_names(),
            help="use a built-in synthetic dataset instead of a file",
        )

    analyze = subparsers.add_parser("analyze", help="analyze a document: schema, entities, keys")
    add_source_arguments(analyze)

    search = subparsers.add_parser("search", help="keyword search with snippets")
    add_source_arguments(search)
    search.add_argument("--query", required=True, help='keyword query, e.g. "store texas"')
    search.add_argument("--bound", type=int, default=DEFAULT_SIZE_BOUND, help="snippet size bound (edges)")
    search.add_argument("--limit", type=int, default=None, help="show only the top-k results")
    search.add_argument("--algorithm", choices=("slca", "elca"), default="slca")
    search.add_argument("--show-ilist", action="store_true", help="print each result's IList")
    search.add_argument("--html", metavar="PATH", help="also write an HTML result page")

    ilist = subparsers.add_parser("ilist", help="print the IList of each query result")
    add_source_arguments(ilist)
    ilist.add_argument("--query", required=True)
    ilist.add_argument("--limit", type=int, default=None)

    subparsers.add_parser("datasets", help="list built-in datasets")

    generate = subparsers.add_parser("generate", help="write a built-in dataset to an XML file")
    generate.add_argument("--dataset", choices=builtin_dataset_names(), required=True)
    generate.add_argument("--output", required=True, help="path of the XML file to write")
    generate.add_argument(
        "--with-doctype", action="store_true", help="embed a DOCTYPE inferred from the data"
    )

    experiment = subparsers.add_parser("experiment", help="run registered experiments")
    experiment.add_argument("ids", nargs="*", help="experiment ids (default: list them)")

    def add_corpus_source_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset",
            action="append",
            default=[],
            choices=builtin_dataset_names(),
            metavar="NAME",
            help="add a built-in dataset to the corpus (repeatable)",
        )
        sub.add_argument(
            "--file",
            action="append",
            default=[],
            metavar="PATH",
            help="add an XML document to the corpus (repeatable)",
        )

    def add_observability_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--request-log", metavar="PATH",
            help="append one JSON line per served request to PATH "
                 "(request_id, kind, code, duration; see docs/observability.md)",
        )
        sub.add_argument(
            "--slow-query-ms", type=float, default=None, metavar="MS",
            help="flag requests slower than MS milliseconds; without "
                 "--request-log, only the slow ones are logged (to stderr)",
        )

    batch = subparsers.add_parser(
        "batch", help="run a file of queries over a corpus in one pass"
    )
    batch.add_argument(
        "--queries", required=True, metavar="PATH",
        help="query file: one keyword query per line, '#' starts a comment",
    )
    add_corpus_source_arguments(batch)
    batch.add_argument(
        "--corpus-dir", metavar="DIR",
        help="load a corpus saved by corpus-save instead of (re-)indexing sources",
    )
    batch.add_argument("--bound", type=int, default=DEFAULT_SIZE_BOUND, help="snippet size bound (edges)")
    batch.add_argument("--limit", type=int, default=None, help="top-k results per document")
    batch.add_argument("--algorithm", choices=("slca", "elca"), default=None)
    batch.add_argument("--no-cache", action="store_true", help="disable the query-result cache")
    batch.add_argument(
        "--repeat", type=int, default=1,
        help="run the batch N times (cache warm-up demonstration; timings per round)",
    )
    batch.add_argument("--show-snippets", action="store_true", help="print each query's snippets")

    corpus_save = subparsers.add_parser(
        "corpus-save", help="index documents and snapshot the corpus to a directory"
    )
    add_corpus_source_arguments(corpus_save)
    corpus_save.add_argument("--output", required=True, metavar="DIR", help="snapshot directory")
    corpus_save.add_argument("--algorithm", choices=("slca", "elca"), default="slca")
    corpus_save.add_argument(
        "--format", choices=("v4",), default="v4",
        help="snapshot format; v4 (binary, mmap-able) is the only one written",
    )

    corpus_update = subparsers.add_parser(
        "corpus-update",
        help="apply a document update/add/remove to a saved corpus (journalled)",
    )
    corpus_update.add_argument(
        "--corpus-dir", required=True, metavar="DIR",
        help="corpus directory written by corpus-save",
    )
    update_action = corpus_update.add_mutually_exclusive_group(required=True)
    update_action.add_argument(
        "--file", metavar="PATH",
        help="XML file holding the new version of the document (update or add)",
    )
    update_action.add_argument(
        "--remove", metavar="NAME", help="unregister the named document"
    )
    corpus_update.add_argument(
        "--name", metavar="NAME",
        help="document name for --file (default: the file's base name)",
    )

    serve_request = subparsers.add_parser(
        "serve-request",
        help="execute one JSON request of the typed service protocol",
    )
    add_corpus_source_arguments(serve_request)
    serve_request.add_argument(
        "--corpus-dir", metavar="DIR",
        help="load a corpus saved by corpus-save instead of (re-)indexing sources",
    )
    serve_request.add_argument(
        "--request", required=True, metavar="PATH",
        help="file holding the JSON request object ('-' reads standard input)",
    )
    serve_request.add_argument("--algorithm", choices=("slca", "elca"), default=None)
    serve_request.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="thread-pool size for batch requests (1 = serial execution)",
    )
    serve_request.add_argument(
        "--pretty", action="store_true", help="indent the JSON response for humans"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a corpus or cluster over HTTP (gateway + asyncio frontend)",
    )
    add_corpus_source_arguments(serve)
    serve.add_argument(
        "--corpus-dir", metavar="DIR",
        help="load a corpus saved by corpus-save instead of (re-)indexing sources",
    )
    serve.add_argument(
        "--cluster-dir", metavar="DIR",
        help="serve a sharded cluster written by cluster-init (fan-out router backend)",
    )
    serve.add_argument(
        "--shard-of", type=int, default=None, metavar="SHARD",
        help="with --cluster-dir: serve only this shard's corpus (a remote-cluster "
             "shard process; also answers POST /v1/replicate)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (default: 8080; 0 binds an ephemeral port)",
    )
    serve.add_argument("--algorithm", choices=("slca", "elca"), default=None)
    serve.add_argument(
        "--cache-size", type=int, default=None, metavar="N",
        help="LRU entries per document for the query/snippet caches "
             "(0 disables serving caches; default 256)",
    )
    serve.add_argument(
        "--workers", type=int, default=8, metavar="N",
        help="HTTP worker threads executing backend calls (default: 8)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="admission control: reject (503 overloaded) beyond N concurrent requests",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; a miss answers 504 deadline_exceeded",
    )
    serve.add_argument(
        "--no-validate", action="store_true",
        help="skip the request-validation middleware (backend still validates)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="stop after serving N requests (scripted smoke runs)",
    )
    serve.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port to PATH once listening (for scripts using --port 0)",
    )
    add_observability_arguments(serve)

    def add_load_profile_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=0, help="traffic RNG seed (default: 0)")
        sub.add_argument(
            "--requests", type=int, default=100, metavar="N",
            help="number of requests to plan (default: 100)",
        )
        sub.add_argument(
            "--concurrency", type=int, default=4, metavar="N",
            help="worker threads, one keep-alive connection each (default: 4)",
        )
        sub.add_argument(
            "--duration", type=float, default=None, metavar="SECONDS",
            help="stop firing after SECONDS even if requests remain",
        )
        sub.add_argument(
            "--mix", default="search=0.8,batch=0.15,update=0.05", metavar="KIND=W,...",
            help="request mix weights (default: search=0.8,batch=0.15,update=0.05)",
        )
        sub.add_argument(
            "--zipf", type=float, default=1.1, metavar="S",
            help="Zipf skew of document/query popularity (default: 1.1)",
        )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="fire a seeded mixed workload at a serving endpoint and measure it",
    )
    add_corpus_source_arguments(loadgen)
    loadgen.add_argument(
        "--corpus-dir", metavar="DIR",
        help="plan over a corpus saved by corpus-save (must mirror the server's)",
    )
    loadgen.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    loadgen.add_argument("--port", type=int, default=8080, help="server port (default: 8080)")
    loadgen.add_argument("--algorithm", choices=("slca", "elca"), default=None)
    add_load_profile_arguments(loadgen)
    loadgen.add_argument(
        "--arrival", choices=("closed", "poisson", "fixed"), default="closed",
        help="arrival process: closed loop (default) or open-loop poisson/fixed",
    )
    loadgen.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="aggregate target arrival rate (required for poisson/fixed)",
    )
    loadgen.add_argument(
        "--plan-only", action="store_true",
        help="print the planned request sequence as JSON without firing it",
    )
    loadgen.add_argument("--json", action="store_true", help="print the report as JSON")
    loadgen.add_argument(
        "--report", metavar="PATH",
        help="also write the report rows (schema v2, JSON) to PATH",
    )

    loadgen_ablate = subparsers.add_parser(
        "loadgen-ablate",
        help="measure serving flags one flip at a time, each against a fresh server",
    )
    add_corpus_source_arguments(loadgen_ablate)
    loadgen_ablate.add_argument(
        "--corpus-dir", metavar="DIR",
        help="serve (and plan over) a corpus saved by corpus-save",
    )
    loadgen_ablate.add_argument("--algorithm", choices=("slca", "elca"), default=None)
    add_load_profile_arguments(loadgen_ablate)
    loadgen_ablate.add_argument(
        "--smoke", action="store_true",
        help="the CI matrix: caches on/off × two admission limits (4 configurations)",
    )
    loadgen_ablate.add_argument(
        "--server-workers", type=int, default=4, metavar="N",
        help="HTTP worker threads for each spawned server (default: 4)",
    )
    loadgen_ablate.add_argument("--json", action="store_true", help="print rows as JSON")

    corpus_compact = subparsers.add_parser(
        "corpus-compact",
        help="fold a saved corpus's update journal back into fresh base snapshots",
    )
    corpus_compact.add_argument(
        "--corpus-dir", required=True, metavar="DIR",
        help="corpus directory written by corpus-save (a cluster shard directory works too)",
    )

    cluster_init = subparsers.add_parser(
        "cluster-init", help="partition documents across N shards and save the cluster"
    )
    add_corpus_source_arguments(cluster_init)
    cluster_init.add_argument("--output", required=True, metavar="DIR", help="cluster directory")
    cluster_init.add_argument(
        "--shards", type=int, default=2, metavar="N", help="number of shards (default: 2)"
    )
    cluster_init.add_argument("--algorithm", choices=("slca", "elca"), default="slca")
    cluster_init.add_argument(
        "--assign", action="append", default=[], metavar="NAME=SHARD",
        help="pin a document to a shard (repeatable; implies the explicit partitioner)",
    )
    cluster_init.add_argument(
        "--default-shard", type=int, default=None, metavar="N",
        help="shard for documents without an --assign pin (explicit partitioner only)",
    )

    cluster_serve = subparsers.add_parser(
        "cluster-serve-request",
        help="execute one JSON request against a sharded cluster (fan-out router)",
    )
    cluster_serve.add_argument(
        "--cluster-dir", required=True, metavar="DIR",
        help="cluster directory written by cluster-init",
    )
    cluster_serve.add_argument(
        "--request", required=True, metavar="PATH",
        help="file holding the JSON request object ('-' reads standard input)",
    )
    cluster_serve.add_argument("--algorithm", choices=("slca", "elca"), default=None)
    cluster_serve.add_argument(
        "--pretty", action="store_true", help="indent the JSON response for humans"
    )

    cluster_update = subparsers.add_parser(
        "cluster-update",
        help="apply a document update/add/remove to a saved cluster (journalled per shard)",
    )
    cluster_update.add_argument(
        "--cluster-dir", required=True, metavar="DIR",
        help="cluster directory written by cluster-init",
    )
    cluster_action = cluster_update.add_mutually_exclusive_group(required=True)
    cluster_action.add_argument(
        "--file", metavar="PATH",
        help="XML file holding the new version of the document (update or add)",
    )
    cluster_action.add_argument(
        "--remove", metavar="NAME", help="unregister the named document"
    )
    cluster_update.add_argument(
        "--name", metavar="NAME",
        help="document name for --file (default: the file's base name)",
    )

    cluster_spawn = subparsers.add_parser(
        "cluster-spawn",
        help="spawn per-shard serve processes and serve the cluster over HTTP "
             "(remote coordinator with replicas, failover and replication)",
    )
    cluster_spawn.add_argument(
        "--cluster-dir", required=True, metavar="DIR",
        help="cluster directory written by cluster-init",
    )
    cluster_spawn.add_argument(
        "--replicas", type=int, default=1, metavar="M",
        help="endpoints per shard (1 = primary only; default: 1)",
    )
    cluster_spawn.add_argument("--host", default="127.0.0.1", help="coordinator bind address")
    cluster_spawn.add_argument(
        "--port", type=int, default=8080,
        help="coordinator TCP port (default: 8080; 0 binds an ephemeral port)",
    )
    cluster_spawn.add_argument(
        "--workers", type=int, default=8, metavar="N",
        help="coordinator HTTP worker threads (default: 8)",
    )
    cluster_spawn.add_argument(
        "--shard-workers", type=int, default=2, metavar="N",
        help="HTTP worker threads per spawned shard process (default: 2)",
    )
    cluster_spawn.add_argument(
        "--health-interval", type=float, default=0.25, metavar="SECONDS",
        help="health-probe period for the failover monitor (default: 0.25)",
    )
    cluster_spawn.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="admission control: reject (503 overloaded) beyond N concurrent requests",
    )
    cluster_spawn.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; a miss answers 504 deadline_exceeded",
    )
    cluster_spawn.add_argument(
        "--no-validate", action="store_true",
        help="skip the request-validation middleware (shards still validate)",
    )
    cluster_spawn.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="stop after serving N requests (scripted smoke runs)",
    )
    cluster_spawn.add_argument(
        "--port-file", metavar="PATH",
        help="write the coordinator's bound port to PATH once listening",
    )
    add_observability_arguments(cluster_spawn)

    cluster_rebalance = subparsers.add_parser(
        "cluster-rebalance",
        help="move a document to a different shard of a saved cluster "
             "(remove+add delta pair, manifest version bump)",
    )
    cluster_rebalance.add_argument(
        "--cluster-dir", required=True, metavar="DIR",
        help="cluster directory written by cluster-init",
    )
    cluster_rebalance.add_argument(
        "--document", required=True, metavar="NAME", help="document to move"
    )
    cluster_rebalance.add_argument(
        "--to-shard", required=True, type=int, metavar="SHARD",
        help="destination shard id",
    )

    lint = subparsers.add_parser(
        "lint", help="run the repro.analysis invariant linter over the source tree"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyse (default: the repro source tree)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail (exit 1) on stale baseline entries",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable JSON report instead of text",
    )
    lint.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule id (repeatable; default: every registered rule)",
    )
    lint.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file of grandfathered findings "
             "(default: ./analysis-baseline.json when it exists)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover every current finding, then exit 0",
    )

    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rule ids and their invariants, then exit 0",
    )

    trace = subparsers.add_parser(
        "trace",
        help="pretty-print request traces from a running server (GET /v1/trace)",
    )
    trace.add_argument("request_id", nargs="?", default=None, metavar="REQUEST_ID",
                       help="print one trace by id (default: the newest traces)")
    trace.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    trace.add_argument("--port", type=int, default=8080, help="server port (default: 8080)")
    trace.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw JSON trace payload instead of the span tree",
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="print a running server's metrics (GET /v1/metrics)",
    )
    metrics.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    metrics.add_argument("--port", type=int, default=8080, help="server port (default: 8080)")
    metrics.add_argument(
        "--format", choices=("summary", "json", "prometheus"), default="summary",
        help="summary: human-readable series table; json: the versioned "
             "snapshot; prometheus: the text exposition format",
    )

    return parser


def _load_system(args: argparse.Namespace, algorithm: str = "slca") -> ExtractSystem:
    if getattr(args, "file", None):
        return ExtractSystem.from_file(args.file, algorithm=algorithm)
    from repro.corpus import Corpus

    corpus = Corpus(algorithm=algorithm)
    entry = corpus.add_builtin(args.dataset)
    return entry.system


# ---------------------------------------------------------------------- #
# sub-command implementations
# ---------------------------------------------------------------------- #
def _command_analyze(args: argparse.Namespace, out) -> int:
    system = _load_system(args)
    stats = system.document_stats()
    print(stats.format_summary(), file=out)
    analyzer = system.analyzer
    counts = analyzer.summary()
    print(
        f"schema nodes    : {counts['entity']} entity, {counts['attribute']} attribute, "
        f"{counts['connection']} connection",
        file=out,
    )
    print("entity types:", file=out)
    for entity in analyzer.entity_types.values():
        key_name = entity.key.attribute_tag if entity.key else "(no key)"
        print(
            f"  {entity.tag:<12s} instances={entity.instance_count:<6d} key={key_name:<10s} "
            f"attributes={', '.join(entity.attribute_tags)}",
            file=out,
        )
    return 0


def _command_search(args: argparse.Namespace, out) -> int:
    system = _load_system(args, algorithm=args.algorithm)
    outcome = system.run_query(args.query, size_bound=args.bound, limit=args.limit)
    print(outcome.render_text(show_ilist=args.show_ilist), file=out)
    if args.html:
        write_result_page(outcome.snippets, args.html)
        print(f"\nwrote HTML result page to {args.html}", file=out)
    return 0


def _command_ilist(args: argparse.Namespace, out) -> int:
    system = _load_system(args)
    outcome = system.run_query(args.query, limit=args.limit)
    for generated in outcome.snippets:
        print(f"Result #{generated.result.result_id}:", file=out)
        for position, item in enumerate(generated.ilist, start=1):
            score = f"  (DS {item.score:.2f})" if item.kind.value == "feature" else ""
            print(f"  {position:2d}. [{item.kind.value:<7s}] {item.text}{score}", file=out)
    if len(outcome.snippets) == 0:
        print("(no results)", file=out)
    return 0


def _command_datasets(args: argparse.Namespace, out) -> int:
    for name in builtin_dataset_names():
        print(name, file=out)
    return 0


def _command_generate(args: argparse.Namespace, out) -> int:
    from repro.corpus import Corpus
    from repro.xmltree.schema import infer_schema

    corpus = Corpus()
    entry = corpus.add_builtin(args.dataset)
    tree = entry.system.index.tree
    body = to_xml_string(tree, include_declaration=True)
    if args.with_doctype:
        schema = infer_schema(tree)
        declaration, _, rest = body.partition("\n")
        body = declaration + "\n" + export_doctype(schema, tree.root.tag) + rest
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(body)
    print(f"wrote {tree.size_nodes} nodes to {args.output}", file=out)
    return 0


def _command_experiment(args: argparse.Namespace, out) -> int:
    if not args.ids:
        print("registered experiments:", file=out)
        for experiment_id, spec in EXPERIMENTS.items():
            print(f"  {experiment_id:<4s} {spec.description}", file=out)
        return 0
    unknown = [experiment_id for experiment_id in args.ids if experiment_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=out)
        return 2
    for experiment_id in args.ids:
        table = run_experiment(experiment_id)
        print(table.format_text(), file=out)
        print(file=out)
    return 0


def _build_corpus(args: argparse.Namespace, algorithm: str = "slca"):
    """Assemble a Corpus from --dataset/--file flags (or --corpus-dir)."""
    from repro.corpus import Corpus
    from repro.utils.cache import DEFAULT_CACHE_SIZE

    cache_size = getattr(args, "cache_size", None)
    if cache_size is None:
        cache_size = DEFAULT_CACHE_SIZE
    elif cache_size < 0:
        raise ExtractError(f"--cache-size must be >= 0, got {cache_size}")
    if getattr(args, "corpus_dir", None):
        if args.dataset or args.file:
            raise ExtractError(
                "--corpus-dir cannot be combined with --dataset/--file: the snapshot "
                "is authoritative (re-run corpus-save to change its contents)"
            )
        return Corpus.load_dir(
            args.corpus_dir,
            algorithm=getattr(args, "algorithm", None),
            cache_size=cache_size,
        )
    corpus = Corpus(algorithm=algorithm, cache_size=cache_size)
    for dataset in args.dataset:
        if dataset not in corpus:
            corpus.add_builtin(dataset)
    for path in args.file:
        corpus.add_file(path)
    if len(corpus) == 0:
        raise ExtractError("no documents given: pass --dataset/--file (or --corpus-dir)")
    return corpus


def _read_query_file(path: str) -> list[str]:
    """Queries from a text file: one per line, blank lines and '#' comments
    (inline or full-line) skipped."""
    queries: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            text = line.split("#", 1)[0].strip()
            if text:
                queries.append(text)
    return queries


def _format_batch_table(entries) -> str:
    """Aligned per-query rows: query text, result count, seconds."""
    width = max(len("query"), *(len(entry.query) for entry in entries))
    lines = [f"{'query'.ljust(width)}  results  seconds"]
    for entry in entries:
        lines.append(
            f"{entry.query.ljust(width)}  {entry.total_results:7d}  {entry.seconds:.6f}"
        )
    total_results = sum(entry.total_results for entry in entries)
    total_seconds = sum(entry.seconds for entry in entries)
    lines.append(f"{'TOTAL'.ljust(width)}  {total_results:7d}  {total_seconds:.6f}")
    return "\n".join(lines)


def _command_batch(args: argparse.Namespace, out) -> int:
    from repro.api.protocol import BatchRequest
    from repro.api.service import SnippetService
    from repro.search.query import KeywordQuery

    corpus = _build_corpus(args, algorithm=args.algorithm or "slca")
    lines = _read_query_file(args.queries)
    if not lines:
        print(f"error: no queries found in {args.queries}", file=out)
        return 2
    queries: list[str] = []
    for line in lines:
        try:
            KeywordQuery.parse(line)
        except ExtractError as error:
            print(f"skipping unparsable query {line!r}: {error}", file=out)
        else:
            queries.append(line)
    if not queries:
        print("error: no usable query remained after parsing", file=out)
        return 2

    service = SnippetService(corpus)
    batch = BatchRequest(
        queries=tuple(queries),
        size_bound=args.bound,
        limit=args.limit,
        use_cache=not args.no_cache,
    )
    repeat = max(1, args.repeat)
    response = None
    for round_number in range(1, repeat + 1):
        response = service.run_batch(batch)
        if repeat > 1:
            seconds = sum(entry.seconds for entry in response.entries)
            print(f"round {round_number}/{repeat}  ({seconds:.6f}s)", file=out)
        print(_format_batch_table(response.entries), file=out)
        print(file=out)
    print(f"documents: {', '.join(response.documents)}", file=out)
    if args.show_snippets:
        for entry in response.entries:
            for item in entry.responses:
                print(f"\n=== {item.document} :: {entry.query} ===", file=out)
                texts = [payload.text for payload in item.results]
                print("\n\n".join(texts) if texts else "(no results)", file=out)
    return 0


def _serve_one_request(args: argparse.Namespace, out, open_backend, refusal: str) -> int:
    """Answer one JSON protocol request with a throwaway backend.

    ``open_backend()`` builds the (context-managed) serving backend;
    ``refusal`` is the message an update request is refused with.
    """
    import json

    from repro.api.protocol import ErrorResponse, UpdateRequest, parse_request
    from repro.api.service import SnippetService
    from repro.corpus import Corpus

    if args.request == "-":
        request_text = sys.stdin.read()
    else:
        with open(args.request, "r", encoding="utf-8") as handle:
            request_text = handle.read()

    def emit(response: dict) -> int:
        # An error response is still printed (it IS the protocol answer),
        # but the exit code tells shell callers the request failed.
        print(
            json.dumps(response, indent=2 if args.pretty else None, sort_keys=True),
            file=out,
        )
        return 1 if response.get("kind") == "error" else 0

    # Parse and structurally validate the request before building the
    # backend: a malformed request must fail fast, not after paying for
    # dataset generation + indexing (or a cluster load).  Only
    # document-existence errors need the backend; error shaping stays in
    # the service (an empty service is enough to produce the error response).
    try:
        payload = json.loads(request_text)
        request = parse_request(payload)
    except (json.JSONDecodeError, ExtractError):
        return emit(SnippetService(Corpus()).handle_text(request_text))

    if isinstance(request, UpdateRequest):
        # The backend is built per invocation: an update applied here would
        # vanish on exit while the response claims success.  Lifecycle
        # edits belong to the journalled surfaces.
        return emit(
            ErrorResponse(error="ProtocolError", message=refusal, request=payload).to_dict()
        )

    with open_backend() as backend:
        return emit(backend.handle_dict(payload, request=request))


def _command_serve_request(args: argparse.Namespace, out) -> int:
    from repro.api.executors import ConcurrentExecutor, SerialExecutor
    from repro.api.service import SnippetService

    def open_backend():
        corpus = _build_corpus(args, algorithm=args.algorithm or "slca")
        executor = (
            ConcurrentExecutor(max_workers=args.workers) if args.workers > 1 else SerialExecutor()
        )
        return SnippetService(corpus, executor=executor)

    return _serve_one_request(
        args,
        out,
        open_backend,
        "serve-request is stateless and cannot apply document updates; use "
        "'corpus-update --corpus-dir ...' so the edit is journalled and "
        "survives reloads",
    )


def _apply_journalled_update(
    directory: str,
    corpus,
    file: str | None,
    remove: str | None,
    name: str | None,
    out,
) -> int:
    """Apply one lifecycle operation to a loaded corpus directory, journal it.

    Shared by ``corpus-update`` (directory = the corpus dir) and
    ``cluster-update`` (directory = the owning shard's dir): same routing
    of incremental edits to journal deltas, structural edits and additions
    to fresh snapshot subdirectories, removals to tombstones.
    """
    from repro.corpus import _subdir_for
    from repro.index.storage import (
        JournalRecord,
        append_journal_record,
        directory_documents,
        save_index,
    )
    from repro.xmltree.parser import parse_xml_file

    mapping = directory_documents(directory)  # subdir -> name
    subdir_of = {doc_name: subdir for subdir, doc_name in mapping.items()}

    def fresh_subdir(name: str) -> str:
        used = {subdir.lower() for subdir in mapping}
        used.update(entry.lower() for entry in os.listdir(directory))
        return _subdir_for(name, used)

    if remove:
        name = remove
        report = corpus.remove_document(name)
        append_journal_record(directory, JournalRecord(kind="remove", subdir=subdir_of[name]))
        print(
            f"removed {name!r} from {directory} "
            f"({report.cache_entries_invalidated} cache entries invalidated, journalled)",
            file=out,
        )
        return 0

    from repro.xmltree.dtd import dtd_for_tree_text

    name = name or os.path.splitext(os.path.basename(file))[0]
    parsed = parse_xml_file(file)
    # The DTD only matters on the *add* path (updates keep the registered
    # document's original DTD context) — same contract as the service's
    # UpdateRequest handling, and same ingestion semantics as corpus-save.
    dtd = dtd_for_tree_text(parsed.dtd_text, root=parsed.doctype_name)
    report = corpus.apply_update(name, parsed.tree, dtd=dtd)
    if report.action == "added":
        snapshot = fresh_subdir(name)
        save_index(corpus.system(name).index, os.path.join(directory, snapshot))
        append_journal_record(
            directory, JournalRecord(kind="add", subdir=snapshot, name=name)
        )
        print(
            f"added {name!r} ({report.nodes} nodes); snapshot in {snapshot}/",
            file=out,
        )
    elif report.changed_nodes == 0:
        print(f"{name!r} is unchanged; nothing journalled", file=out)
    elif report.incremental:
        edits = tuple((str(edit.label), edit.new_text) for edit in report.text_edits)
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir=subdir_of[name], edits=edits),
        )
        print(
            f"updated {name!r} incrementally: {report.changed_nodes} node(s), "
            f"{report.changed_terms} term(s); cache kept={report.cache_entries_kept} "
            f"invalidated={report.cache_entries_invalidated} (journalled as deltas)",
            file=out,
        )
    else:
        snapshot = fresh_subdir(name)
        save_index(corpus.system(name).index, os.path.join(directory, snapshot))
        append_journal_record(
            directory,
            JournalRecord(kind="replace", subdir=subdir_of[name], snapshot=snapshot),
        )
        print(
            f"updated {name!r} with a full re-index "
            f"({report.structural_reason}); new snapshot in {snapshot}/",
            file=out,
        )
    return 0


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically (temp + rename).

    Spawners poll the path and read it the moment it exists; a plain
    ``open(...).write`` can expose an empty or partial file between
    create and flush, so the content lands under a temp name first and
    the rename makes it visible complete or not at all.
    """
    staging = f"{path}.tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        handle.write(f"{port}\n")
    os.replace(staging, path)


def _build_request_logger(args: argparse.Namespace):
    """--request-log / --slow-query-ms → (logger | None, closer).

    ``--request-log PATH`` logs every request to PATH (with the slow flag
    when a threshold is set); ``--slow-query-ms`` alone is the classic
    slow-query log — only the offenders, to stderr.
    """
    from repro.obs import RequestLogger

    if args.request_log:
        handle = open(args.request_log, "a", encoding="utf-8")
        return RequestLogger(handle, slow_query_ms=args.slow_query_ms), handle.close
    if args.slow_query_ms is not None:
        logger = RequestLogger(
            sys.stderr, slow_query_ms=args.slow_query_ms, only_slow=True
        )
        return logger, lambda: None
    return None, lambda: None


def _command_serve(args: argparse.Namespace, out) -> int:
    """Serve a corpus, cluster, or single cluster shard over HTTP."""
    from repro.api.executors import ConcurrentExecutor
    from repro.api.gateway import build_gateway
    from repro.api.http import HttpServer

    if args.cache_size is not None and args.cache_size < 0:
        raise ExtractError(f"--cache-size must be >= 0, got {args.cache_size}")
    replicate_backend = None
    if args.cluster_dir:
        if args.dataset or args.file or args.corpus_dir:
            raise ExtractError(
                "--cluster-dir cannot be combined with --dataset/--file/--corpus-dir: "
                "the cluster manifest is authoritative"
            )
        from repro.utils.cache import DEFAULT_CACHE_SIZE

        cache_size = args.cache_size if args.cache_size is not None else DEFAULT_CACHE_SIZE
        if args.shard_of is not None:
            from repro.cluster import ShardBackend

            backend = ShardBackend.load_dir(
                args.cluster_dir,
                args.shard_of,
                algorithm=args.algorithm,
                cache_size=cache_size,
            )
            # Replication bypasses the gateway stack: delta application
            # must not compete with reads for admission-control slots.
            replicate_backend = backend
        else:
            from repro.cluster import ClusterService

            backend = ClusterService.load_dir(
                args.cluster_dir, algorithm=args.algorithm, cache_size=cache_size
            )
    elif args.shard_of is not None:
        raise ExtractError("--shard-of requires --cluster-dir (a saved cluster)")
    else:
        from repro.api.service import SnippetService

        corpus = _build_corpus(args, algorithm=args.algorithm or "slca")
        backend = SnippetService(corpus)

    logger, close_log = _build_request_logger(args)
    stack = build_gateway(
        backend,
        validate=not args.no_validate,
        max_in_flight=args.max_in_flight,
        deadline=args.deadline,
        log=logger,
        process_name=(
            f"shard-{args.shard_of}" if args.shard_of is not None else "local"
        ),
    )
    http_executor = ConcurrentExecutor(max_workers=args.workers)
    server = HttpServer(
        stack,
        host=args.host,
        port=args.port,
        executor=http_executor,
        max_requests=args.max_requests,
        replicate_backend=replicate_backend,
    )
    server.start()
    try:
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        print(
            f"serving {backend!r}\n"
            f"  http://{server.host}:{server.port}/v1/search (POST; also /v1/batch, /v1/update)\n"
            f"  http://{server.host}:{server.port}/v1/health (GET; also /v1/stats, "
            f"/v1/metrics, /v1/trace)",
            file=out,
        )
        try:
            server.join()  # returns when --max-requests is spent
        except KeyboardInterrupt:
            print("shutting down", file=out)
    finally:
        server.stop()
        http_executor.close()
        stack.close()
        close_log()
    print(f"served {server.requests_served} request(s)", file=out)
    return 0


def _load_profile_from_args(args: argparse.Namespace):
    """--seed/--requests/--mix/… → a validated LoadProfile."""
    from repro.eval.loadgen import LoadProfile, parse_mix

    weights = parse_mix(args.mix)
    return LoadProfile(
        seed=args.seed,
        requests=args.requests,
        duration_seconds=args.duration,
        concurrency=args.concurrency,
        arrival=getattr(args, "arrival", "closed"),
        rate_rps=getattr(args, "rate", None),
        search_weight=weights["search"],
        batch_weight=weights["batch"],
        update_weight=weights["update"],
        zipf_skew=args.zipf,
    ).validate()


def _format_load_report(report) -> str:
    def _ms(value):
        return f"{value * 1000:.2f}ms" if value is not None else "-"

    def _pct(value):
        return f"{value * 100:.1f}%" if value is not None else "-"

    latency = report.latency
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in sorted(report.by_kind.items())
    )
    return (
        f"sent {report.requests_sent} requests in {report.duration_seconds:.3f}s "
        f"({report.throughput_rps:.1f} req/s; {kinds})\n"
        f"latency p50={_ms(latency.get('p50'))} p95={_ms(latency.get('p95'))} "
        f"p99={_ms(latency.get('p99'))}\n"
        f"errors={report.errors} ({_pct(report.error_rate)})  "
        f"shed={report.shed} ({_pct(report.shed_rate)})  "
        f"cache hit rate={_pct(report.cache_hit_rate)}"
    )


def _command_loadgen(args: argparse.Namespace, out) -> int:
    """Plan (and optionally fire) one seeded load run."""
    import json

    from repro.eval.loadgen import (
        build_plan,
        report_rows,
        run_load,
        write_report_file,
    )

    profile = _load_profile_from_args(args)
    corpus = _build_corpus(args, algorithm=args.algorithm or "slca")
    plan = build_plan(corpus, profile)
    if args.plan_only:
        print(
            json.dumps(
                {"signature": plan.signature(), "sequence": plan.sequence()},
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
        return 0
    report = run_load(plan, host=args.host, port=args.port)
    if args.report:
        write_report_file(report_rows(report), args.report)
        print(f"report written to {args.report}", file=out)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(_format_load_report(report), file=out)
    return 1 if report.errors else 0


def _command_loadgen_ablate(args: argparse.Namespace, out) -> int:
    """Run the baseline-plus-one-flip matrix against spawned servers."""
    import json

    from repro.eval.loadgen import (
        ablation_matrix,
        default_flags,
        run_ablation,
        smoke_flags,
    )

    if not (args.dataset or args.file or args.corpus_dir):
        raise ExtractError(
            "loadgen-ablate needs corpus sources the spawned servers can load: "
            "pass --dataset/--file (or --corpus-dir)"
        )
    profile = _load_profile_from_args(args)
    corpus = _build_corpus(args, algorithm=args.algorithm or "slca")
    serve_args: list[str] = []
    if args.corpus_dir:
        serve_args += ["--corpus-dir", args.corpus_dir]
    for dataset in args.dataset:
        serve_args += ["--dataset", dataset]
    for path in args.file:
        serve_args += ["--file", path]
    if args.algorithm:
        serve_args += ["--algorithm", args.algorithm]
    configs = ablation_matrix(smoke_flags() if args.smoke else default_flags())
    outcomes, table = run_ablation(
        corpus,
        serve_args,
        configs,
        profile,
        workers=args.server_workers,
    )
    if args.json:
        rows = [
            {"config": outcome.config.name, **outcome.report.to_dict()}
            for outcome in outcomes
        ]
        print(json.dumps(rows, indent=2, sort_keys=True), file=out)
    else:
        print(table.format_text(), file=out)
    return 0


def _command_corpus_update(args: argparse.Namespace, out) -> int:
    """Apply one lifecycle operation to a saved corpus and journal it."""
    from repro.corpus import Corpus

    corpus = Corpus.load_dir(args.corpus_dir)
    return _apply_journalled_update(
        args.corpus_dir, corpus, args.file, args.remove, args.name, out
    )


def _command_corpus_compact(args: argparse.Namespace, out) -> int:
    """Fold the update journal of a saved corpus into fresh base snapshots."""
    from repro.corpus import compact_corpus_dir

    report = compact_corpus_dir(args.corpus_dir)
    print(
        f"compacted {report.directory}: folded {report.records_folded} journal "
        f"record(s) into {report.documents} base snapshot(s)",
        file=out,
    )
    for subdir in report.subdirs:
        print(f"  {subdir}/", file=out)
    return 0


def _parse_assignments(pairs: list[str], shards: int):
    """--assign NAME=SHARD pairs → an ExplicitPartitioner (None when empty)."""
    from repro.cluster import ExplicitPartitioner

    if not pairs:
        return None
    assignments: dict[str, int] = {}
    for pair in pairs:
        name, separator, shard_text = pair.rpartition("=")
        try:
            shard_id = int(shard_text)
        except ValueError:
            shard_id = -1
        if not separator or not name or shard_id < 0:
            raise ExtractError(
                f"--assign expects NAME=SHARD with a non-negative shard id, got {pair!r}"
            )
        assignments[name] = shard_id
    return ExplicitPartitioner(assignments, shards)


def _command_cluster_init(args: argparse.Namespace, out) -> int:
    """Partition documents across N shards and save the cluster."""
    from repro.cluster import ClusterService, ExplicitPartitioner

    corpus = _build_corpus(args, algorithm=args.algorithm)
    partitioner = _parse_assignments(args.assign, args.shards)
    if partitioner is not None and args.default_shard is not None:
        partitioner = ExplicitPartitioner(
            partitioner.assignments, args.shards, default=args.default_shard
        )
    elif partitioner is None and args.default_shard is not None:
        raise ExtractError("--default-shard only applies with --assign (explicit partitioner)")
    cluster = ClusterService.from_corpus(
        corpus, shards=args.shards, partitioner=partitioner
    )
    subdirs = cluster.save_dir(args.output)
    print(
        f"saved {len(subdirs)}-shard cluster ({len(cluster)} document(s), "
        f"{cluster.partitioner.kind} partitioner) to {args.output}",
        file=out,
    )
    for row in cluster.shard_summary():
        print(f"  shard-{row['shard']}  documents={row['documents']}  [{row['names']}]", file=out)
    return 0


def _command_cluster_serve_request(args: argparse.Namespace, out) -> int:
    """Execute one JSON protocol request through the cluster router."""
    from repro.cluster import ClusterService

    return _serve_one_request(
        args,
        out,
        lambda: ClusterService.load_dir(args.cluster_dir, algorithm=args.algorithm),
        "cluster-serve-request is stateless and cannot apply document updates; "
        "use 'cluster-update --cluster-dir ...' so the edit is journalled on "
        "the owning shard",
    )


def _command_cluster_update(args: argparse.Namespace, out) -> int:
    """Route a lifecycle edit to the owning shard, journal it there, and
    bump the cluster manifest version."""
    from repro.cluster import (
        partitioner_from_manifest,
        read_cluster_manifest,
        saved_cluster_documents,
        write_cluster_manifest,
    )
    from repro.corpus import Corpus

    directory = args.cluster_dir
    manifest = read_cluster_manifest(directory)
    name = args.remove or args.name or os.path.splitext(os.path.basename(args.file))[0]

    # Route on snapshot/journal bookkeeping alone (no shard index is loaded
    # until the owner is known): the cheap path a large cluster needs.
    located = saved_cluster_documents(directory, manifest)
    if name in located:
        owner = located[name][0]
    elif args.remove:
        raise ExtractError(
            f"no document named {name!r} in the cluster; "
            f"registered: {', '.join(sorted(located)) or '(none)'}"
        )
    else:
        owner = partitioner_from_manifest(manifest).shard_of(name)

    shard_dir = os.path.join(directory, manifest.shard_dirs[owner])
    corpus = Corpus.load_dir(shard_dir)
    print(f"routing {name!r} to shard {owner} ({manifest.shard_dirs[owner]}/)", file=out)
    code = _apply_journalled_update(shard_dir, corpus, args.file, args.remove, args.name, out)
    if code == 0:
        write_cluster_manifest(directory, manifest.bumped())
        print(f"cluster manifest version {manifest.version} -> {manifest.version + 1}", file=out)
    return code


def _command_cluster_spawn(args: argparse.Namespace, out) -> int:
    """Spawn per-shard serve processes; serve the cluster as one backend."""
    import signal

    from repro.api.executors import ConcurrentExecutor
    from repro.api.gateway import build_gateway
    from repro.api.http import HttpServer
    from repro.cluster import RemoteClusterService

    # SIGTERM (systemd stop, `kill`, container shutdown) must unwind the
    # try/finally below — Python's default handler would exit without
    # running it, orphaning every spawned shard process.
    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _terminate)

    cluster = RemoteClusterService.spawn(
        args.cluster_dir,
        replicas=args.replicas,
        workers=args.shard_workers,
        health_interval=args.health_interval,
    )
    logger, close_log = _build_request_logger(args)
    stack = build_gateway(
        cluster,
        validate=not args.no_validate,
        max_in_flight=args.max_in_flight,
        deadline=args.deadline,
        log=logger,
    )
    http_executor = ConcurrentExecutor(max_workers=args.workers)
    server = HttpServer(
        stack,
        host=args.host,
        port=args.port,
        executor=http_executor,
        max_requests=args.max_requests,
    )
    try:
        server.start()
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        shards = len(cluster.replica_sets)
        print(
            f"spawned {shards} shard(s) × {args.replicas} replica(s) "
            f"({len(cluster.processes)} process(es)) from {args.cluster_dir}",
            file=out,
        )
        for replica_set in cluster.replica_sets:
            addresses = ", ".join(endpoint.address for endpoint in replica_set.endpoints())
            print(f"  shard-{replica_set.shard_id}  [{addresses}]", file=out)
        print(
            f"serving {cluster!r}\n"
            f"  http://{server.host}:{server.port}/v1/search (POST; also /v1/batch, /v1/update)\n"
            f"  http://{server.host}:{server.port}/v1/health (GET; also /v1/stats, "
            f"/v1/metrics, /v1/trace)",
            file=out,
        )
        try:
            server.join()  # returns when --max-requests is spent
        except KeyboardInterrupt:
            print("shutting down", file=out)
    finally:
        server.stop()
        http_executor.close()
        stack.close()  # closes the cluster: monitor, clients, child processes
        close_log()
        signal.signal(signal.SIGTERM, previous_sigterm)
    print(f"served {server.requests_served} request(s)", file=out)
    return 0


def _command_cluster_rebalance(args: argparse.Namespace, out) -> int:
    """Move one document between shards of a saved cluster."""
    from repro.cluster import rebalance_document

    report = rebalance_document(args.cluster_dir, args.document, args.to_shard)
    print(
        f"moved {report.document!r}: shard {report.source_shard} -> "
        f"shard {report.target_shard} (manifest version {report.manifest_version})",
        file=out,
    )
    for delta in report.deltas:
        print(f"  {delta!r}", file=out)
    return 0


def _command_lint(args: argparse.Namespace, out) -> int:
    """Run the invariant linter; exit 0 clean, 1 findings, 2 usage error."""
    import json

    from repro.analysis import (
        DEFAULT_BASELINE_NAME,
        Analyzer,
        apply_baseline,
        build_rules,
        read_baseline,
        report_to_dict,
        write_baseline,
    )
    from repro.errors import AnalysisError

    try:
        if args.list_rules:
            for rule in build_rules():
                print(f"{rule.rule_id:<22s} {rule.description}", file=out)
            return 0

        # Default scan root: the directory holding the 'repro' package —
        # works from any cwd, installed or from a source checkout.
        paths = args.paths or [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
        report = Analyzer(build_rules(args.rule)).analyze_paths(paths)

        if args.update_baseline:
            target = args.baseline or DEFAULT_BASELINE_NAME
            entries = write_baseline(target, report.findings)
            print(f"wrote {len(entries)} baseline entry(ies) to {target}", file=out)
            return 0

        baseline_path = args.baseline
        if baseline_path is None and os.path.exists(DEFAULT_BASELINE_NAME):
            baseline_path = DEFAULT_BASELINE_NAME
        entries = read_baseline(baseline_path) if baseline_path else []
    except AnalysisError as error:
        print(f"error: {error}", file=out)
        return 2

    new_findings, stale = apply_baseline(report.findings, entries)
    baselined = len(report.findings) - len(new_findings)
    failed = bool(new_findings) or (args.strict and bool(stale))

    if args.as_json:
        payload = report_to_dict(
            new_findings,
            rules_run=report.rules_run,
            files_analyzed=report.files_analyzed,
            baselined=baselined,
            stale_baseline=[entry.to_dict() for entry in stale],
        )
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 1 if failed else 0

    for finding in new_findings:
        print(finding.format(), file=out)
    for entry in stale:
        print(
            f"stale baseline entry (finding no longer occurs): "
            f"{entry.rule_id}: {entry.path}: {entry.message}",
            file=out,
        )
    summary = (
        f"{len(new_findings)} finding(s) in {report.files_analyzed} file(s), "
        f"{len(report.rules_run)} rule(s)"
    )
    if baselined:
        summary += f", {baselined} baselined"
    if stale:
        summary += f", {len(stale)} stale baseline entry(ies)"
    print(summary, file=out)
    return 1 if failed else 0


def _command_corpus_save(args: argparse.Namespace, out) -> int:
    corpus = _build_corpus(args, algorithm=args.algorithm)
    subdirs = corpus.save_dir(args.output)
    total_nodes = sum(entry.node_count for entry in corpus)
    print(
        f"saved {len(subdirs)} document index(es), {total_nodes} nodes total, to {args.output}",
        file=out,
    )
    for row in corpus.summary():
        print(f"  {row['name']:<16s} nodes={row['nodes']}", file=out)
    return 0


def _command_trace(args: argparse.Namespace, out) -> int:
    """Fetch and pretty-print traces from a running server."""
    import http.client as http_client
    import json

    from repro.api.client import ServiceClient
    from repro.errors import ProtocolError
    from repro.obs.trace import format_trace

    client = ServiceClient(args.host, args.port)
    try:
        payload = client.trace(args.request_id)
    except (OSError, http_client.HTTPException, ProtocolError) as exc:
        print(f"error: cannot reach http://{args.host}:{args.port}: {exc}", file=out)
        return 1
    finally:
        client.close()
    if payload.get("kind") == "error":
        print(f"error: {payload.get('message', 'trace endpoint error')}", file=out)
        return 1
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    traces = payload["traces"] if "traces" in payload else [payload]
    if not traces:
        print("(no traces recorded yet)", file=out)
        return 0
    for wire in traces:
        print(format_trace(wire), file=out)
    return 0


def _command_metrics(args: argparse.Namespace, out) -> int:
    """Fetch and print a running server's metrics."""
    import http.client as http_client
    import json

    from repro.api.client import ServiceClient
    from repro.errors import ProtocolError

    client = ServiceClient(args.host, args.port)
    try:
        if args.format == "prometheus":
            print(client.metrics_text(), end="", file=out)
            return 0
        payload = client.metrics()
    except (OSError, http_client.HTTPException, ProtocolError) as exc:
        print(f"error: cannot reach http://{args.host}:{args.port}: {exc}", file=out)
        return 1
    finally:
        client.close()
    if payload.get("kind") == "error":
        print(f"error: {payload.get('message', 'metrics endpoint error')}", file=out)
        return 1
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    print(f"metrics schema v{payload.get('schema_version', '?')}", file=out)
    for name, metric in sorted(payload.get("metrics", {}).items()):
        print(f"{name} ({metric.get('type', '?')})", file=out)
        for row in metric.get("series", []):
            labels = row.get("labels", {})
            rendered = (
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if metric.get("type") == "histogram":
                quantiles = row.get("quantiles", {})
                detail = (
                    f"count={row.get('count')} sum={row.get('sum'):.6f} "
                    + " ".join(
                        f"{q}={'-' if value is None else format(value, '.6f')}"
                        for q, value in sorted(quantiles.items())
                    )
                )
            else:
                detail = f"{row.get('value')}"
            print(f"  {rendered or '(no labels)'}  {detail}", file=out)
    return 0


_COMMANDS = {
    "analyze": _command_analyze,
    "search": _command_search,
    "ilist": _command_ilist,
    "datasets": _command_datasets,
    "generate": _command_generate,
    "experiment": _command_experiment,
    "batch": _command_batch,
    "corpus-save": _command_corpus_save,
    "corpus-update": _command_corpus_update,
    "corpus-compact": _command_corpus_compact,
    "serve-request": _command_serve_request,
    "serve": _command_serve,
    "loadgen": _command_loadgen,
    "loadgen-ablate": _command_loadgen_ablate,
    "cluster-init": _command_cluster_init,
    "cluster-serve-request": _command_cluster_serve_request,
    "cluster-update": _command_cluster_update,
    "cluster-spawn": _command_cluster_spawn,
    "cluster-rebalance": _command_cluster_rebalance,
    "lint": _command_lint,
    "trace": _command_trace,
    "metrics": _command_metrics,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args, out)
    except ExtractError as error:
        print(f"error: {error}", file=out)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
