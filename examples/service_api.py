#!/usr/bin/env python3
"""The typed service API: JSON requests in, JSON responses out.

Run with::

    python examples/service_api.py

Walks the ``repro.api`` protocol end to end:

* build a corpus and wrap it in a :class:`~repro.api.SnippetService`,
* execute a typed :class:`~repro.api.SearchRequest` (and the same request
  as a raw JSON object, the way a wire frontend would),
* paginate through the result list with ``next_page`` tokens,
* run a :class:`~repro.api.BatchRequest`, then the same queries as
  independent requests from a thread pool
  (:class:`~repro.api.ConcurrentExecutor`) — one service serves many
  threads, byte-identical to serial,
* edit a document through an :class:`~repro.api.UpdateRequest` — the
  text-only edit is applied incrementally (posting-level deltas) and only
  the affected cache entries are invalidated — then query again,
* peek at the per-document cache statistics the service exposes,
* serve the same documents from a **sharded cluster**
  (:class:`~repro.cluster.ClusterService`): byte-identical responses for
  any shard count, shard provenance in the opt-in ``meta`` block, and
  updates routed to the owning shard,
* put the whole thing **on the network**: wrap the service in the gateway
  (tracing, metrics, deadlines, admission control),
  start the HTTP frontend (:class:`~repro.api.HttpServer`), and
  query it with the typed :class:`~repro.api.ServiceClient` — which is
  itself a :class:`~repro.api.ServingBackend`, so remote and in-process
  backends are interchangeable behind one seam,
* go **distributed**: spawn the saved cluster as real shard processes
  with replica sets (:class:`~repro.cluster.RemoteClusterService`) —
  reads load-balanced across replicas, writes replicated through the
  primary as journal deltas, health-checked failover, still
  byte-identical.

The same flow is available from the command line::

    echo '{"kind": "search", "schema_version": 1,
           "query": "store texas", "document": "stores"}' |
        python -m repro.cli serve-request --dataset figure5-stores --request -

    python -m repro.cli serve --dataset figure5-stores --port 8080 \\
        --max-in-flight 6 --deadline 30
    curl -s -X POST http://127.0.0.1:8080/v1/search -d '{
        "kind": "search", "schema_version": 1,
        "query": "store texas", "document": "figure5-stores"}'
"""

from __future__ import annotations

import json

from repro import Corpus
from repro.api import (
    BatchRequest,
    ConcurrentExecutor,
    SearchRequest,
    SnippetService,
    UpdateRequest,
)
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. a corpus behind a service facade
    # ------------------------------------------------------------------ #
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    service = SnippetService(corpus)
    print(f"=== {service!r} ===\n")

    # ------------------------------------------------------------------ #
    # 2. one typed request → one typed response
    # ------------------------------------------------------------------ #
    request = SearchRequest(query="store texas", document="stores", size_bound=6)
    response = service.run(request)
    print(f"query {request.query!r} on {request.document!r}: "
          f"{response.total_results} results (algorithm {response.algorithm})")
    print(response.results[0].text)
    print()

    # The exact same round trip as JSON, the way a frontend would see it:
    wire_response = service.handle_dict(request.to_dict())
    print("wire form keys:", ", ".join(sorted(wire_response)))
    print()

    # ------------------------------------------------------------------ #
    # 3. pagination: one result per page, follow the next_page tokens
    # ------------------------------------------------------------------ #
    paged = SearchRequest(query="store", document="stores", size_bound=6, page_size=1)
    page_number = 0
    while True:
        page = service.run(paged)
        page_number += 1
        for payload in page.results:
            print(f"page {page.page}: result #{payload.result_id} "
                  f"root=<{payload.root_tag}> score={payload.score:.2f}")
        if page.next_page is None:
            break
        paged = paged.with_page(page.next_page)
    print(f"walked {page_number} pages of {page.total_results} results\n")

    # ------------------------------------------------------------------ #
    # 4. a batch, and the same queries from a thread pool — identical bytes
    # ------------------------------------------------------------------ #
    batch = BatchRequest(
        queries=("store texas", "clothes casual", "retailer apparel"), size_bound=6
    )
    batch_response = service.run_batch(batch)
    # One service is shared by many threads: independent requests from a
    # pool answer exactly what the batch answered for each pair.
    requests = [
        batch.search_request(query, document)
        for query in batch.queries
        for document in batch_response.documents
    ]
    with ConcurrentExecutor(max_workers=4) as pool:
        threaded = pool.map(service.run, requests)
    in_batch = [response for entry in batch_response.entries for response in entry.responses]
    identical = [json.dumps(r.to_dict(), sort_keys=True) for r in threaded] == [
        json.dumps(r.to_dict(), sort_keys=True) for r in in_batch
    ]
    print(f"batch of {len(batch.queries)} queries over {len(batch_response.documents)} documents: "
          f"{batch_response.total_results} results; threaded == batch: {identical}\n")

    # ------------------------------------------------------------------ #
    # 5. update-then-query: incremental edits through the same protocol
    # ------------------------------------------------------------------ #
    warm = service.run(request)  # identical request -> served from cache
    print(f"warm repeat of {request.query!r}: from_cache={warm.from_cache}")

    # Edit one text value of the document and push it as an UpdateRequest.
    # The service diffs the XML against the registered index and applies
    # posting-level deltas; unaffected cache entries survive the swap.
    edited = clone_tree(service.corpus.system("stores").index.tree)
    for node in edited.iter_nodes():
        if node.tag == "state" and node.text == "Texas":
            node.text = "Nevada"
            break
    update = service.run_update(
        UpdateRequest(document="stores", xml=to_xml_string(edited))
    )
    print(
        f"update applied: incremental={update.incremental} "
        f"changed_nodes={update.changed_nodes} changed_terms={update.changed_terms}"
    )
    after = service.run(request)  # "store texas" touched the edit -> recomputed
    print(
        f"after the edit {request.query!r} finds {after.total_results} result(s) "
        f"(from_cache={after.from_cache})\n"
    )

    # ------------------------------------------------------------------ #
    # 6. serving-cache statistics, per document
    # ------------------------------------------------------------------ #
    for name, caches in service.cache_stats().items():
        query_stats = caches["query"]
        print(f"  {name:<8s} query-cache hits={query_stats['hits']:.0f} "
              f"misses={query_stats['misses']:.0f} hit_rate={query_stats['hit_rate']:.2f}")
    print()

    # ------------------------------------------------------------------ #
    # 7. the same corpus, sharded: ClusterService is a drop-in router
    # ------------------------------------------------------------------ #
    from repro.cluster import ClusterService

    def fresh_corpus() -> Corpus:
        # A document belongs to exactly one registry at a time, so the
        # cluster gets its own copies instead of adopting `corpus`'s.
        rebuilt = Corpus()
        rebuilt.add_builtin("figure5-stores", name="stores")
        rebuilt.add_builtin("retail")
        return rebuilt

    with ClusterService.from_corpus(fresh_corpus(), shards=2) as cluster:
        print(f"=== {cluster!r} ===")
        for row in cluster.shard_summary():
            print(f"  shard-{row['shard']}: {row['names']}")

        # Identical bytes through the identical JSON surface — the router
        # fans out/merges, the caller cannot tell the difference...
        single = SnippetService(fresh_corpus())
        probe = SearchRequest(query="clothes casual", document="retail", size_bound=6)
        identical = json.dumps(cluster.handle_dict(probe.to_dict()), sort_keys=True) == (
            json.dumps(single.handle_dict(probe.to_dict()), sort_keys=True)
        )
        print(f"cluster response == single-corpus response: {identical}")

        # ...unless it asks for meta, where shard provenance lives.
        with_meta = cluster.run(
            SearchRequest(query="clothes casual", document="retail", include_meta=True)
        )
        print(f"served by shard {with_meta.shard} "
              f"(meta block: {sorted(with_meta.to_dict(include_meta=True)['meta'])})")

        # Updates route to the owning shard, which applies the text-only
        # edit incrementally, exactly as a single corpus would.
        routed = cluster.run_update(
            UpdateRequest(document="stores", xml=to_xml_string(edited))
        )
        print(f"update routed to shard {routed.shard}: "
              f"{routed.changed_nodes} node(s) changed, incremental={routed.incremental}")

    # The same cluster persists and reloads from disk:
    #   python -m repro.cli cluster-init --dataset retail --shards 4 --output ./cluster
    #   python -m repro.cli serve-request --cluster-dir ./cluster --request -
    #   python -m repro.cli cluster-update --cluster-dir ./cluster --file edited.xml
    #   python -m repro.cli corpus-compact --corpus-dir ./cluster/shard-0

    # ------------------------------------------------------------------ #
    # 8. the network frontend: gateway + HTTP server + client
    # ------------------------------------------------------------------ #
    from repro.api import HttpServer, ServiceClient, ServingBackend, build_gateway

    # Any backend — the single-corpus service, the cluster router, or a
    # gateway — plugs in behind the same ServingBackend seam.
    gateway = build_gateway(
        SnippetService(fresh_corpus()),
        max_in_flight=6,    # admission control: shed load past 6 in flight
                            # (below the server's 8 concurrent backend calls)
        deadline=30.0,      # per-request deadline: a miss answers 504
    )
    print(f"=== gateway steps: {gateway.capabilities()['middleware']} ===")

    with HttpServer(gateway, port=0) as server:  # port=0: pick a free port
        client = ServiceClient(port=server.port)
        print(f"client is a ServingBackend too: {isinstance(client, ServingBackend)}")

        remote = client.execute(
            SearchRequest(query="store texas", document="stores", size_bound=6)
        )
        print(f"over HTTP: {remote.total_results} results "
              f"(kind {remote.kind}, algorithm {remote.algorithm})")

        # The wire body is byte-identical to the in-process handle_json —
        # HTTP adds transport, never semantics.
        in_process = gateway.handle_json(json.dumps(probe.to_dict()))
        over_http = json.dumps(client.handle_dict(probe.to_dict()), sort_keys=True)
        print(f"HTTP bytes == in-process bytes: {in_process == over_http}")

        # Errors carry machine-readable codes mapped to HTTP statuses:
        # unknown_document -> 404, bad_request -> 400, overloaded -> 503.
        missing = client.execute(SearchRequest(query="x", document="ghost"))
        print(f"unknown document -> error code {missing.code!r}")

        health = client.health()
        served = client.stats()["requests"]["total"]
        print(f"health {health['status']!r}; served {served} request(s) so far")

    # The same server from the command line:
    #   python -m repro.cli serve --dataset figure5-stores --port 8080 \
    #       --max-in-flight 6 --deadline 30

    # ------------------------------------------------------------------ #
    # 9. the distributed cluster: spawned shard processes + replica sets
    # ------------------------------------------------------------------ #
    import tempfile

    from repro.cluster import ClusterService as _Cluster, RemoteClusterService

    with tempfile.TemporaryDirectory() as cluster_dir:
        # Save a sharded corpus, then spawn it: every shard becomes its
        # own `serve --shard-of` process (2 shards × 2 replicas = 4
        # processes), discovered through atomically-written port files.
        saver = _Cluster.from_corpus(fresh_corpus(), shards=2)
        saver.save_dir(cluster_dir)
        saver.close()

        with RemoteClusterService.spawn(cluster_dir, replicas=2) as remote:
            print(f"\n=== {remote!r} ===")
            for row in remote.stats()["shards"]:
                print(f"  shard-{row['shard']}: {row['endpoints']} endpoint(s), "
                      f"{row['healthy']} healthy")

            # The network hop changes nothing: default wire bytes are
            # identical to the single-corpus service — reads load-balance
            # across each shard's replicas, so ask twice to hit both.
            single = SnippetService(fresh_corpus())
            for attempt in (1, 2):
                identical = json.dumps(
                    remote.handle_dict(probe.to_dict()), sort_keys=True
                ) == json.dumps(single.handle_dict(probe.to_dict()), sort_keys=True)
                print(f"remote bytes == single-corpus bytes (read {attempt}): "
                      f"{identical}")

            # Writes pin to the shard's primary; the returned delta fans
            # to the replicas, keeping the whole set in sync.
            remote.execute_update(UpdateRequest(action="remove", document="retail"))
            single.execute_update(UpdateRequest(action="remove", document="retail"))
            gone = remote.execute(SearchRequest(query="clothes", document="retail"))
            print(f"after replicated remove: error code {gone.code!r}")

            # Health probing and failover: the monitor polls every
            # endpoint; a dead replica is routed around, a dead primary is
            # promoted past (see docs/cluster.md for the full semantics).
            monitor = remote.start_monitor(interval=0.25)
            print(f"health monitor running: {monitor.running}")

    # The same topology from the command line:
    #   python -m repro.cli cluster-init --dataset retail --shards 4 --output ./cluster
    #   python -m repro.cli cluster-spawn --cluster-dir ./cluster --replicas 2 \
    #       --port 8080 --health-interval 0.25
    #   python -m repro.cli cluster-rebalance --cluster-dir ./cluster \
    #       --document retail --to-shard 0

    # ------------------------------------------------------------------ #
    # 10. observability: traces, metrics, request logs
    # ------------------------------------------------------------------ #
    # Every request through a traced gateway gets a span tree — the
    # gateway root, service phases, and (over a cluster) the per-shard
    # HTTP round trips, made one after another and stitched across
    # processes.  Default wire
    # bytes never change: traces surface only in the opt-in meta block
    # and the bounded buffer behind GET /v1/trace.  Full tour:
    # docs/observability.md.
    from repro.obs.trace import format_trace

    traced = build_gateway(SnippetService(fresh_corpus()))
    with HttpServer(traced, port=0) as server:
        client = ServiceClient(port=server.port)

        # Opt in via include_meta: the span tree rides in meta["trace"].
        body = client.handle_dict(
            SearchRequest(
                query="store texas", document="stores", size_bound=6,
                include_meta=True,
            ).to_dict()
        )
        print("\n=== one request's span tree ===")
        print(format_trace(body["meta"]["trace"]))

        # The same trace is retained server-side (newest-128 ring):
        #   GET /v1/trace/<request_id>, or the CLI:
        #   python -m repro.cli trace --port 8080
        newest = client.trace()["traces"]
        print(f"buffered traces: {len(newest)} (newest first)")

        # Histogram metrics with p50/p95/p99, as versioned JSON or
        # Prometheus text (GET /v1/metrics?format=prometheus):
        snapshot = client.metrics()
        seconds = snapshot["metrics"]["repro_request_seconds"]["series"][0]
        print(f"search p95: {seconds['quantiles']['p95'] * 1000:.2f} ms "
              f"over {seconds['count']} request(s)")
        print(client.metrics_text().splitlines()[0])

    # Structured request logs from the command line:
    #   python -m repro.cli serve --dataset figure5-stores --port 8080 \
    #       --request-log requests.jsonl --slow-query-ms 50

    # ------------------------------------------------------------------ #
    # 11. the load harness: seeded mixed traffic + the ablation matrix
    # ------------------------------------------------------------------ #
    # Point benchmarks time one operation; serving regressions live in the
    # mixture.  A LoadProfile plus a corpus deterministically plans a
    # Zipf-skewed search/batch/update stream (same seed ⇒ byte-identical
    # payloads in the same order), and run_load fires it through one
    # shared ServiceClient while scraping GET /v1/stats before and after —
    # so the cache-hit and shed rates cover exactly the requests of this run.
    # Full tour: docs/loadgen.md.
    from repro.eval.loadgen import LoadProfile, build_plan, run_load

    load_corpus = fresh_corpus()
    profile = LoadProfile(seed=7, requests=24, concurrency=2)
    plan = build_plan(load_corpus, profile)
    print(f"\n=== load plan: {len(plan)} requests, signature "
          f"{plan.signature()[:12]}… ===")

    with HttpServer(build_gateway(SnippetService(load_corpus)), port=0) as server:
        report = run_load(plan, port=server.port)
    latency = {name: f"{value * 1000:.2f} ms" if value is not None else "-"
               for name, value in report.latency.items()}
    print(f"{report.requests_sent} requests at "
          f"{report.throughput_rps:.1f} req/s, latency {latency}, "
          f"cache hit rate {report.cache_hit_rate}")

    # The same run from the command line (plus --report PATH
    # to persist schema-v2 rows), and the baseline-plus-one-flip ablation
    # matrix — caches on/off, admission limits, deadlines — each
    # configuration served by a freshly spawned process replaying the
    # identical plan:
    #   python -m repro.cli loadgen --dataset retail --seed 7 --requests 48
    #   python -m repro.cli loadgen-ablate --dataset retail --smoke


if __name__ == "__main__":
    main()
