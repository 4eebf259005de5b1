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
    (:mod:`repro.api`) against a corpus, or a sharded cluster through the
    fan-out router (``--cluster-dir``; byte-identical responses), and
    print the JSON response — the offline stand-in for one round trip of
    the demo's web service.
``serve``
    Run the HTTP frontend (:mod:`repro.api.http`) over a corpus
    or a sharded cluster: ``POST /v1/search``, ``/v1/batch``,
    ``/v1/update`` and ``GET /v1/health``, ``/v1/stats``, with the
    gateway (tracing, metrics, optional per-request deadlines and
    admission control) in front of the backend.
``loadgen``
    Fire a seeded mixed workload (Zipf-popular searches, batches and
    updates) at a running server and report its latency percentiles,
    throughput and error / shed / cache-hit rates.  See ``docs/loadgen.md``.
``loadgen-ablate``
    Measure serving flags one flip at a time, each against a freshly
    spawned ``serve`` process.
``corpus-compact``
    Fold a saved corpus's append-only update journal back into fresh base
    snapshots (staged, atomic, byte-identical search results) — the cheap
    bootstrap form for new shard replicas.
``cluster-init``
    Partition documents across N shards and save the cluster (shard
    corpus directories plus a versioned ``cluster.manifest``).
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
        python -m repro.cli serve-request --cluster-dir ./cluster --request -
    python -m repro.cli corpus-compact --corpus-dir ./corpus
    python -m repro.cli serve --dataset figure5-stores --port 8080 \\
        --max-in-flight 6 --deadline 30
    python -m repro.cli cluster-spawn --cluster-dir ./cluster --replicas 2 --port 8080
    python -m repro.cli cluster-rebalance --cluster-dir ./cluster \\
        --document movies --to-shard 1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import signal
import sys
import threading
from typing import TYPE_CHECKING

# Option parsing needs these; every other import sits in the command that
# uses it, so a process loads only what its command serves (a ``serve``
# process carries no experiment harness, dataset generator or linter).
from repro.api.executors import MAX_WORKERS
from repro.corpus import builtin_dataset_names
from repro.errors import ExtractError
from repro.snippet.generator import DEFAULT_SIZE_BOUND
from repro.utils.cache import DEFAULT_CACHE_SIZE

if TYPE_CHECKING:
    from repro.system import ExtractSystem

#: The young-generation threshold of a CLI process (CPython's default is
#: 700 allocations).  A served corpus is a heap of long-lived objects — the
#: trees, the posting lists, the caches — and with the default each full
#: collection, triggered every few hundred requests, walks all of it to
#: find nothing: a document version holds no reference cycle
#: (``XMLNode.parent`` is weak), so reference counting frees a retired one.
#: The older thresholds and the rule that a full collection waits for 25 %
#: new long-lived objects keep CPython's values.  Set by the ``__main__``
#: block only: ``main()`` called in process leaves the collector alone.
YOUNG_GC_THRESHOLD = 50_000


# ---------------------------------------------------------------------- #
# option specs — each option is declared once; a command's row in
# _COMMANDS lists the specs it takes
# ---------------------------------------------------------------------- #
def _checked(cast, accept, requirement: str):
    """An argparse ``type``: ``cast`` the text, then refuse what ``accept``
    rejects — an out-of-range number is a usage error (exit 2) before
    anything is loaded or spawned."""

    def convert(text: str):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    convert.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return convert


_POSITIVE_INT = _checked(int, lambda value: value > 0, "a positive integer")
_NON_NEGATIVE_INT = _checked(int, lambda value: value >= 0, "a non-negative integer")
_POSITIVE_FLOAT = _checked(float, lambda value: value > 0, "a positive number")
_NON_NEGATIVE_FLOAT = _checked(float, lambda value: value >= 0, "a non-negative number")
_PORT = _checked(int, lambda value: 0 <= value <= 65535, "a TCP port (0-65535)")
_WORKERS = _checked(
    int, lambda value: 1 <= value <= MAX_WORKERS, f"an integer in 1-{MAX_WORKERS}"
)


def _arg(*flags, **spec):
    """An option only one command takes, declared in that command's row."""
    return lambda sub: sub.add_argument(*flags, **spec)


def _sources(sub: argparse.ArgumentParser, one: bool = False) -> None:
    """``--dataset`` / ``--file``: repeatable corpus sources, or (``one``)
    exactly one document.  Either way the value is a list, so every
    command hands :func:`_open_backend` the same shape."""
    target = sub.add_mutually_exclusive_group(required=True) if one else sub
    repeat = {"nargs": 1} if one else {"action": "append"}
    target.add_argument(
        "--dataset", default=[], choices=builtin_dataset_names(), metavar="NAME",
        help="a built-in synthetic dataset (see 'datasets')", **repeat,
    )
    target.add_argument("--file", default=[], metavar="PATH", help="an XML document", **repeat)


def _corpus_dir(sub: argparse.ArgumentParser, required: bool = False) -> None:
    sub.add_argument(
        "--corpus-dir", required=required, metavar="DIR",
        help="a corpus directory written by corpus-save (a cluster shard directory works too)",
    )


def _cluster_dir(sub: argparse.ArgumentParser, required: bool = False) -> None:
    sub.add_argument(
        "--cluster-dir", required=required, metavar="DIR",
        help="a cluster directory written by cluster-init",
    )


def _algorithm(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--algorithm", choices=("slca", "elca"), default=None,
        help="search algorithm (default: the snapshot's own, otherwise slca)",
    )


def _query(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--query", required=True, help='keyword query, e.g. "store texas"')


def _bound(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bound", type=_POSITIVE_INT, default=DEFAULT_SIZE_BOUND,
        help="snippet size bound (edges)",
    )


def _limit(sub: argparse.ArgumentParser) -> None:
    # Plain int: a negative limit is the protocol's structured error.
    sub.add_argument("--limit", type=int, default=None, help="top-k results per document")


def _output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output", required=True, metavar="PATH",
        help="where to write: generate's XML file, the corpus / cluster directory",
    )


def _json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the machine-readable JSON instead of the text report",
    )


def _request(sub: argparse.ArgumentParser) -> None:
    """One JSON protocol request in, its JSON response out."""
    sub.add_argument(
        "--request", required=True, metavar="PATH",
        help="file holding the JSON request object ('-' reads standard input)",
    )
    sub.add_argument("--pretty", action="store_true", help="indent the JSON response for humans")


def _update(sub: argparse.ArgumentParser) -> None:
    """One journalled lifecycle edit: ``--file`` (update or add) or ``--remove``."""
    action = sub.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--file", metavar="PATH",
        help="XML file holding the new version of the document (update or add)",
    )
    action.add_argument("--remove", metavar="NAME", help="unregister the named document")
    sub.add_argument(
        "--name", metavar="NAME",
        help="document name for --file (default: the file's base name)",
    )


def _address(sub: argparse.ArgumentParser) -> None:
    """Where a server listens, or where a client finds it."""
    sub.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    sub.add_argument(
        "--port", type=_PORT, default=8080,
        help="server TCP port (default: 8080; 0 binds an ephemeral port)",
    )


def _serving(sub: argparse.ArgumentParser) -> None:
    """The HTTP serve loop's gateway, lifecycle and request-log knobs."""
    sub.add_argument(
        "--workers", type=_WORKERS, default=8, metavar="N",
        help=f"backend calls served at once, 1-{MAX_WORKERS}; the rest wait "
             "(default: 8)",
    )
    sub.add_argument(
        "--max-in-flight", type=_POSITIVE_INT, metavar="N",
        help="admission control: reject (503 overloaded) beyond N concurrent "
             "requests; N must be below --workers",
    )
    sub.add_argument(
        "--deadline", type=_POSITIVE_FLOAT, metavar="SECONDS",
        help="per-request deadline; a miss answers 504 deadline_exceeded",
    )
    sub.add_argument(
        "--max-requests", type=_POSITIVE_INT, metavar="N",
        help="stop after serving N requests (scripted smoke runs)",
    )
    sub.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port to PATH once listening (for scripts using --port 0)",
    )
    sub.add_argument(
        "--request-log", metavar="PATH",
        help="append one JSON line per served request to PATH "
             "(request_id, kind, code, duration; see docs/observability.md)",
    )
    sub.add_argument(
        "--slow-query-ms", type=_NON_NEGATIVE_FLOAT, metavar="MS",
        help="flag requests slower than MS milliseconds; without "
             "--request-log, only the slow ones are logged (to stderr)",
    )


def _load_profile(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="traffic RNG seed (default: 0)")
    sub.add_argument(
        "--requests", type=_POSITIVE_INT, default=100, metavar="N",
        help="number of requests to plan (default: 100)",
    )
    sub.add_argument(
        "--concurrency", type=_POSITIVE_INT, default=4, metavar="N",
        help="worker threads, one keep-alive connection each (default: 4)",
    )
    sub.add_argument(
        "--duration", type=_POSITIVE_FLOAT, metavar="SECONDS",
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


# ---------------------------------------------------------------------- #
# the one rule for which backend a command opens
# ---------------------------------------------------------------------- #
def _open_backend(args: argparse.Namespace):
    """Open the serving backend the command's flags name.

    ``--cluster-dir`` is a saved cluster (one shard of it with
    ``--shard-of``), else ``--corpus-dir`` a saved corpus, else a corpus
    is indexed from ``--dataset`` / ``--file``.  A saved directory is
    authoritative, so it combines with no other source.  ``--algorithm``
    falls back to the snapshot's own, and to ``slca`` for a fresh index.
    """
    from repro.api.service import SnippetService
    from repro.corpus import Corpus

    if args.cluster_dir:
        if args.dataset or args.file or args.corpus_dir:
            raise ExtractError(
                "--cluster-dir cannot be combined with --dataset/--file/--corpus-dir: "
                "the cluster manifest is authoritative"
            )
        if args.shard_of is not None:
            from repro.cluster import ShardBackend

            return ShardBackend.load_dir(
                args.cluster_dir, args.shard_of,
                algorithm=args.algorithm, cache_size=args.cache_size,
            )
        from repro.cluster import ClusterService

        return ClusterService.load_dir(
            args.cluster_dir, algorithm=args.algorithm, cache_size=args.cache_size
        )
    if args.shard_of is not None:
        raise ExtractError("--shard-of requires --cluster-dir (a saved cluster)")
    if args.corpus_dir:
        if args.dataset or args.file:
            raise ExtractError(
                "--corpus-dir cannot be combined with --dataset/--file: the snapshot "
                "is authoritative (re-run corpus-save to change its contents)"
            )
        corpus = Corpus.load_dir(
            args.corpus_dir, algorithm=args.algorithm, cache_size=args.cache_size
        )
    else:
        corpus = Corpus(algorithm=args.algorithm or "slca", cache_size=args.cache_size)
        for dataset in args.dataset:
            if dataset not in corpus:
                corpus.add_builtin(dataset)
        for path in args.file:
            corpus.add_file(path)
        if not corpus:
            raise ExtractError(
                "no documents given: pass corpus sources (--dataset/--file or --corpus-dir)"
            )
    return SnippetService(corpus)


def _open_document(args: argparse.Namespace) -> ExtractSystem:
    """The one ``--dataset`` | ``--file`` document of analyze / search / ilist."""
    (entry,) = _open_backend(args).corpus
    return entry.system


# ---------------------------------------------------------------------- #
# sub-command implementations
# ---------------------------------------------------------------------- #
def _command_analyze(args: argparse.Namespace, out) -> int:
    system = _open_document(args)
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
    system = _open_document(args)
    outcome = system.run_query(args.query, size_bound=args.bound, limit=args.limit)
    print(outcome.render_text(show_ilist=args.show_ilist), file=out)
    if args.html:
        from repro.snippet.render import write_result_page

        write_result_page(outcome.snippets, args.html)
        print(f"\nwrote HTML result page to {args.html}", file=out)
    return 0


def _command_ilist(args: argparse.Namespace, out) -> int:
    system = _open_document(args)
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
    from repro.xmltree.export import export_doctype
    from repro.xmltree.schema import infer_schema
    from repro.xmltree.serialize import to_xml_string

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
    from repro.eval.experiments import EXPERIMENTS, run_experiment

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
    from repro.search.query import KeywordQuery

    service = _open_backend(args)
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

    batch = BatchRequest(queries=tuple(queries), size_bound=args.bound, limit=args.limit)
    response = None
    for round_number in range(1, args.repeat + 1):
        response = service.run_batch(batch)
        if args.repeat > 1:
            seconds = sum(entry.seconds for entry in response.entries)
            print(f"round {round_number}/{args.repeat}  ({seconds:.6f}s)", file=out)
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


def _command_serve_request(args: argparse.Namespace, out) -> int:
    """Answer one JSON protocol request with a throwaway backend."""
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
        journalled = (
            "cluster-update --cluster-dir" if args.cluster_dir else "corpus-update --corpus-dir"
        )
        refusal = (
            "serve-request is stateless and cannot apply document updates; use "
            f"'{journalled} ...' so the edit is journalled and survives reloads"
        )
        return emit(
            ErrorResponse(error="ProtocolError", message=refusal, request=payload).to_dict()
        )

    with _open_backend(args) as backend:
        return emit(backend.handle_dict(payload, request=request))


def _lifecycle_edit(args: argparse.Namespace):
    """The ``(name, tree, dtd)`` of a ``--file`` / ``--remove`` edit (tree
    None removes the document), for :func:`repro.corpus.journal_update`."""
    if args.remove:
        return args.remove, None, None
    from repro.xmltree.parser import parse_xml_file

    parsed = parse_xml_file(args.file)
    name = args.name or os.path.splitext(os.path.basename(args.file))[0]
    # The DTD only matters on the *add* path (updates keep the registered
    # document's original DTD context) — same contract as the service's
    # UpdateRequest handling, and same ingestion semantics as corpus-save.
    return name, parsed.tree, parsed.dtd()


def _print_journalled(directory: str, report, record, out) -> None:
    """Say what :func:`repro.corpus.journal_update` did in ``directory``."""
    name = report.document
    if record is None:
        print(f"{name!r} is unchanged; nothing journalled", file=out)
    elif record.kind == "remove":
        print(
            f"removed {name!r} from {directory} "
            f"({report.cache_entries_invalidated} cache entries invalidated, journalled)",
            file=out,
        )
    elif record.kind == "add":
        print(f"added {name!r} ({report.nodes} nodes); snapshot in {record.subdir}/", file=out)
    elif record.kind == "update":
        print(
            f"updated {name!r} incrementally: {report.changed_nodes} node(s), "
            f"{report.changed_terms} term(s); cache kept={report.cache_entries_kept} "
            f"invalidated={report.cache_entries_invalidated} (journalled as deltas)",
            file=out,
        )
    else:
        print(
            f"updated {name!r} with a full re-index "
            f"({report.structural_reason}); new snapshot in {record.snapshot}/",
            file=out,
        )


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


def _raise_interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def _serve_http(args: argparse.Namespace, out, open_backend, banner=lambda backend: ()) -> int:
    """The HTTP serve loop of ``serve`` and ``cluster-spawn``.

    Runs from ``open_backend()`` to "served N request(s)" and owns the
    backend from the moment it exists: whatever fails after that — the
    request log, the gateway, the executor, the bind, the port file — and
    Ctrl-C or SIGTERM close it (a spawned cluster terminates its shard
    processes) before the loop returns or the error propagates.
    ``banner(backend)`` yields the command's own lines.
    """
    from repro.api.executors import ConcurrentExecutor
    from repro.api.gateway import build_gateway
    from repro.api.http import HttpServer
    from repro.obs import RequestLogger

    if args.max_in_flight is not None and args.max_in_flight >= args.workers:
        raise ExtractError(
            f"--max-in-flight {args.max_in_flight} must be below --workers "
            f"{args.workers}: at most --workers requests are in flight at once, "
            "so admission control would never shed load"
        )
    server = None
    try:
        with contextlib.ExitStack() as owned:
            if threading.current_thread() is threading.main_thread():
                # SIGTERM (systemd stop, `kill`, container shutdown) must
                # unwind this block like Ctrl-C — Python's default handler
                # exits without running it, orphaning every spawned shard.
                previous = signal.signal(signal.SIGTERM, _raise_interrupt)
                owned.callback(signal.signal, signal.SIGTERM, previous)
            backend = open_backend()
            # The gateway holds nothing of its own: closing it is closing
            # the backend.
            owned.callback(backend.close)
            logger = None
            if args.request_log:
                handle = owned.enter_context(open(args.request_log, "a", encoding="utf-8"))
                logger = RequestLogger(handle, slow_query_ms=args.slow_query_ms)
            elif args.slow_query_ms is not None:
                # The classic slow-query log: only the offenders, to stderr.
                logger = RequestLogger(
                    sys.stderr, slow_query_ms=args.slow_query_ms, only_slow=True
                )
            shard = args.shard_of
            stack = build_gateway(
                backend,
                max_in_flight=args.max_in_flight,
                deadline=args.deadline,
                log=logger,
                process_name="local" if shard is None else f"shard-{shard}",
            )
            executor = ConcurrentExecutor(max_workers=args.workers)
            owned.callback(executor.close)
            server = HttpServer(
                stack,
                host=args.host,
                port=args.port,
                executor=executor,
                max_requests=args.max_requests,
                # Replication bypasses the gateway: delta application
                # must not compete with reads for admission-control slots.
                replicate_backend=None if shard is None else backend,
            )
            owned.callback(server.stop)
            server.start()
            if args.port_file:
                _write_port_file(args.port_file, server.port)
            for line in banner(backend):
                print(line, file=out)
            url = f"http://{server.host}:{server.port}/v1"
            print(
                f"serving {backend!r}\n"
                f"  {url}/search (POST; also /v1/batch, /v1/update)\n"
                f"  {url}/health (GET; also /v1/stats, /v1/metrics, /v1/trace)",
                file=out,
            )
            server.join()  # returns when --max-requests is spent
    except KeyboardInterrupt:
        print("shutting down", file=out)
    print(f"served {server.requests_served if server else 0} request(s)", file=out)
    return 0


def _command_serve(args: argparse.Namespace, out) -> int:
    """Serve a corpus, cluster, or single cluster shard over HTTP."""
    return _serve_http(args, out, lambda: _open_backend(args))


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
    plan = build_plan(_open_backend(args).corpus, profile)
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
    if args.as_json:
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

    profile = _load_profile_from_args(args)
    corpus = _open_backend(args).corpus
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
    outcomes, table = run_ablation(corpus, serve_args, configs, profile)
    if args.as_json:
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
    from repro.corpus import Corpus, journal_update

    corpus = Corpus.load_dir(args.corpus_dir)
    report, record = journal_update(args.corpus_dir, corpus, *_lifecycle_edit(args))
    _print_journalled(args.corpus_dir, report, record, out)
    return 0


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

    corpus = _open_backend(args).corpus
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


def _command_cluster_update(args: argparse.Namespace, out) -> int:
    """Route a lifecycle edit to the owning shard, journal it there, and
    bump the cluster manifest version."""
    from repro.cluster import read_cluster_manifest, update_cluster_document

    shard, report, record = update_cluster_document(args.cluster_dir, *_lifecycle_edit(args))
    manifest = read_cluster_manifest(args.cluster_dir)
    shard_dir = manifest.shard_dirs[shard]
    print(f"routing {report.document!r} to shard {shard} ({shard_dir}/)", file=out)
    _print_journalled(os.path.join(args.cluster_dir, shard_dir), report, record, out)
    print(f"cluster manifest version {manifest.version - 1} -> {manifest.version}", file=out)
    return 0


def _command_cluster_spawn(args: argparse.Namespace, out) -> int:
    """Spawn per-shard serve processes; serve the cluster as one backend."""
    from repro.cluster import RemoteClusterService

    def spawn():
        return RemoteClusterService.spawn(
            args.cluster_dir, replicas=args.replicas, health_interval=args.health_interval
        )

    def banner(cluster):
        yield (
            f"spawned {len(cluster.replica_sets)} shard(s) × {args.replicas} replica(s) "
            f"({len(cluster.processes)} process(es)) from {args.cluster_dir}"
        )
        for replica_set in cluster.replica_sets:
            addresses = ", ".join(endpoint.address for endpoint in replica_set.endpoints())
            yield f"  shard-{replica_set.shard_id}  [{addresses}]"

    return _serve_http(args, out, spawn, banner)


def _command_cluster_rebalance(args: argparse.Namespace, out) -> int:
    """Move one document between shards of a saved cluster."""
    from repro.cluster import rebalance_document

    report = rebalance_document(args.cluster_dir, args.document, args.to_shard)
    print(
        f"moved {report.document!r}: shard {report.source_shard} -> "
        f"shard {report.target_shard} (manifest version {report.manifest_version})",
        file=out,
    )
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
    corpus = _open_backend(args).corpus
    subdirs = corpus.save_dir(args.output)
    total_nodes = sum(entry.node_count for entry in corpus)
    print(
        f"saved {len(subdirs)} document index(es), {total_nodes} nodes total, to {args.output}",
        file=out,
    )
    for row in corpus.summary():
        print(f"  {row['name']:<16s} nodes={row['nodes']}", file=out)
    return 0


def _fetch(args: argparse.Namespace, out, call):
    """``call(client)`` against the server at ``--host`` / ``--port``;
    ``None``, with the error printed, when the server cannot be reached or
    answers with a protocol error."""
    from repro.api.client import ServiceClient
    from repro.errors import ProtocolError

    client = ServiceClient(args.host, args.port)
    try:
        payload = call(client)
    except (OSError, ProtocolError) as exc:
        print(f"error: cannot reach http://{args.host}:{args.port}: {exc}", file=out)
        return None
    finally:
        client.close()
    if isinstance(payload, dict) and payload.get("kind") == "error":
        print(f"error: {payload.get('message', 'the server answered an error')}", file=out)
        return None
    return payload


def _command_trace(args: argparse.Namespace, out) -> int:
    """Fetch and pretty-print traces from a running server."""
    import json

    from repro.obs.trace import format_trace

    payload = _fetch(args, out, lambda client: client.trace(args.request_id))
    if payload is None:
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
    import json

    prometheus = args.format == "prometheus"
    payload = _fetch(
        args, out, lambda client: client.metrics_text() if prometheus else client.metrics()
    )
    if payload is None:
        return 1
    if prometheus:
        print(payload, end="", file=out)
        return 0
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


_ONE_DOCUMENT = functools.partial(_sources, one=True)
_SAVED_CORPUS = functools.partial(_corpus_dir, required=True)
_SAVED_CLUSTER = functools.partial(_cluster_dir, required=True)

#: Every command: name, handler, one-line help, and the option specs it
#: takes, in the order ``--help`` lists them.
_COMMANDS = (
    ("analyze", _command_analyze, "analyze a document: schema, entities, keys", (_ONE_DOCUMENT,)),
    ("search", _command_search, "keyword search with snippets", (
        _ONE_DOCUMENT, _query, _bound, _limit, _algorithm,
        _arg("--show-ilist", action="store_true", help="print each result's IList"),
        _arg("--html", metavar="PATH", help="also write an HTML result page"),
    )),
    ("ilist", _command_ilist, "print the IList of each query result", (
        _ONE_DOCUMENT, _query, _limit,
    )),
    ("datasets", _command_datasets, "list built-in datasets", ()),
    ("generate", _command_generate, "write a built-in dataset to an XML file", (
        _arg("--dataset", choices=builtin_dataset_names(), required=True),
        _output,
        _arg("--with-doctype", action="store_true", help="embed a DOCTYPE inferred from the data"),
    )),
    ("experiment", _command_experiment, "run registered experiments", (
        _arg("ids", nargs="*", help="experiment ids (default: list them)"),
    )),
    ("batch", _command_batch, "run a file of queries over a corpus in one pass", (
        _arg(
            "--queries", required=True, metavar="PATH",
            help="query file: one keyword query per line, '#' starts a comment",
        ),
        _sources, _corpus_dir, _bound, _limit, _algorithm,
        _arg(
            "--repeat", type=_POSITIVE_INT, default=1,
            help="run the batch N times (cache warm-up demonstration; timings per round)",
        ),
        _arg("--show-snippets", action="store_true", help="print each query's snippets"),
    )),
    ("corpus-save", _command_corpus_save,
     "index documents and snapshot the corpus to a directory", (
        _sources, _output, _algorithm,
        _arg(
            "--format", choices=("v4",), default="v4",
            help="snapshot format; v4 (binary) is the only one written",
        ),
    )),
    ("corpus-update", _command_corpus_update,
     "apply a document update/add/remove to a saved corpus (journalled)", (
        _SAVED_CORPUS, _update,
    )),
    ("serve-request", _command_serve_request,
     "execute one JSON request of the typed service protocol (corpus or cluster)", (
        _sources, _corpus_dir, _cluster_dir, _algorithm, _request,
    )),
    ("serve", _command_serve, "serve a corpus or cluster over HTTP (gateway + HTTP frontend)", (
        _sources, _corpus_dir, _cluster_dir,
        _arg(
            "--shard-of", type=_NON_NEGATIVE_INT, metavar="SHARD",
            help="with --cluster-dir: serve only this shard's corpus (a remote-cluster "
                 "shard process; also answers POST /v1/replicate)",
        ),
        _algorithm,
        _arg(
            "--cache-size", type=_NON_NEGATIVE_INT, default=DEFAULT_CACHE_SIZE, metavar="N",
            help="LRU entries per document for the result cache; the root memo is "
                 "bounded by subtree nodes instead "
                 f"(0 disables both serving caches; default {DEFAULT_CACHE_SIZE})",
        ),
        _address, _serving,
    )),
    ("loadgen", _command_loadgen,
     "fire a seeded mixed workload at a serving endpoint and measure it", (
        _sources, _corpus_dir, _address, _algorithm, _load_profile,
        _arg(
            "--arrival", choices=("closed", "poisson", "fixed"), default="closed",
            help="arrival process: closed loop (default) or open-loop poisson/fixed",
        ),
        _arg(
            "--rate", type=_POSITIVE_FLOAT, metavar="RPS",
            help="aggregate target arrival rate (required for poisson/fixed)",
        ),
        _arg(
            "--plan-only", action="store_true",
            help="print the planned request sequence as JSON without firing it",
        ),
        _json,
        _arg(
            "--report", metavar="PATH",
            help="also write the report rows (schema v2, JSON) to PATH",
        ),
    )),
    ("loadgen-ablate", _command_loadgen_ablate,
     "measure serving flags one flip at a time, each against a fresh server", (
        _sources, _corpus_dir, _algorithm, _load_profile,
        _arg(
            "--smoke", action="store_true",
            help="the CI matrix: caches on/off × two admission limits (4 configurations)",
        ),
        _json,
    )),
    ("corpus-compact", _command_corpus_compact,
     "fold a saved corpus's update journal back into fresh base snapshots", (
        _SAVED_CORPUS,
    )),
    ("cluster-init", _command_cluster_init,
     "partition documents across N shards and save the cluster", (
        _sources, _output,
        _arg(
            "--shards", type=_POSITIVE_INT, default=2, metavar="N",
            help="number of shards (default: 2)",
        ),
        _algorithm,
        _arg(
            "--assign", action="append", default=[], metavar="NAME=SHARD",
            help="pin a document to a shard (repeatable; implies the explicit partitioner)",
        ),
        _arg(
            "--default-shard", type=_NON_NEGATIVE_INT, metavar="N",
            help="shard for documents without an --assign pin (explicit partitioner only)",
        ),
    )),
    ("cluster-update", _command_cluster_update,
     "apply a document update/add/remove to a saved cluster (journalled per shard)", (
        _SAVED_CLUSTER, _update,
    )),
    ("cluster-spawn", _command_cluster_spawn,
     "spawn per-shard serve processes and serve the cluster over HTTP "
     "(remote coordinator with replicas, failover and replication)", (
        _SAVED_CLUSTER,
        _arg(
            "--replicas", type=_POSITIVE_INT, default=1, metavar="M",
            help="endpoints per shard (1 = primary only; default: 1)",
        ),
        _address, _serving,
        _arg(
            "--health-interval", type=_POSITIVE_FLOAT, default=0.25, metavar="SECONDS",
            help="health-probe period for the failover monitor (default: 0.25)",
        ),
    )),
    ("cluster-rebalance", _command_cluster_rebalance,
     "move a document to a different shard of a saved cluster "
     "(remove+add delta pair, manifest version bump)", (
        _SAVED_CLUSTER,
        _arg("--document", required=True, metavar="NAME", help="document to move"),
        _arg(
            "--to-shard", required=True, type=_NON_NEGATIVE_INT, metavar="SHARD",
            help="destination shard id",
        ),
    )),
    ("lint", _command_lint, "run the repro.analysis invariant linter over the source tree", (
        _arg(
            "paths", nargs="*", metavar="PATH",
            help="files or directories to analyse (default: the repro source tree)",
        ),
        _arg("--strict", action="store_true", help="also fail (exit 1) on stale baseline entries"),
        _json,
        _arg(
            "--rule", action="append", default=None, metavar="ID",
            help="run only this rule id (repeatable; default: every registered rule)",
        ),
        _arg(
            "--baseline", metavar="PATH",
            help="baseline file of grandfathered findings "
                 "(default: ./analysis-baseline.json when it exists)",
        ),
        _arg(
            "--update-baseline", action="store_true",
            help="rewrite the baseline to cover every current finding, then exit 0",
        ),
        _arg(
            "--list-rules", action="store_true",
            help="list the registered rule ids and their invariants, then exit 0",
        ),
    )),
    ("trace", _command_trace,
     "pretty-print request traces from a running server (GET /v1/trace)", (
        _arg(
            "request_id", nargs="?", default=None, metavar="REQUEST_ID",
            help="print one trace by id (default: the newest traces)",
        ),
        _address, _json,
    )),
    ("metrics", _command_metrics, "print a running server's metrics (GET /v1/metrics)", (
        _address,
        _arg(
            "--format", choices=("summary", "json", "prometheus"), default="summary",
            help="summary: human-readable series table; json: the versioned "
                 "snapshot; prometheus: the text exposition format",
        ),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="extract",
        description="eXtract: snippet generation for XML keyword search (VLDB 2008 reproduction)",
    )
    # What _open_backend and the serve loop read, for the commands that
    # do not take the option.
    parser.set_defaults(
        algorithm=None, corpus_dir=None, cluster_dir=None, shard_of=None,
        cache_size=DEFAULT_CACHE_SIZE,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, specs in _COMMANDS:
        command = subparsers.add_parser(name, help=summary)
        command.set_defaults(handler=handler)
        for spec in specs:
            spec(command)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args, out)
        out.flush()
    except BrokenPipeError:
        # The reader hung up (``| head``): write nothing more, and point
        # stdout at devnull so the interpreter's exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ExtractError, OSError) as error:
        print(f"error: {error}", file=out)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    gc.set_threshold(YOUNG_GC_THRESHOLD)
    raise SystemExit(main())
