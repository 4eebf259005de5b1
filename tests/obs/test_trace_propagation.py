"""End-to-end trace propagation over a spawned remote cluster.

The tentpole acceptance test: one search through a 2-shard × 2-replica
:class:`~repro.cluster.remote.RemoteClusterService` behind the full
gateway yields ONE stitched trace — the gateway root, shard routing,
the coordinator→shard HTTP round trip and the shard backend's own spans,
joined across processes by the propagated ``X-Repro-Trace`` request_id —
while the default (meta-free) wire bytes stay byte-identical to a
single-corpus service with tracing enabled.
"""

from __future__ import annotations

import json

import pytest

from repro.api.client import ServiceClient
from repro.api.gateway import build_gateway
from repro.api.http import HttpServer
from repro.api.service import SnippetService
from repro.cluster.remote import RemoteClusterService
from repro.cluster.router import ClusterService
from tests.cluster.conftest import CLUSTER_DATASETS, QUERIES, build_corpus


def wire(backend, payload) -> str:
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return backend.handle_json(json.dumps(payload, sort_keys=True))


def search_payload(document: str = "stores", **extra) -> dict:
    payload = {
        "kind": "search",
        "schema_version": 1,
        "query": "store texas",
        "document": document,
    }
    payload.update(extra)
    return payload


@pytest.fixture(scope="module")
def cluster_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traced-cluster")
    service = ClusterService.from_corpus(build_corpus(), shards=2)
    service.save_dir(directory)
    service.close()
    return directory


@pytest.fixture(scope="module")
def traced_stack(cluster_dir):
    """The full coordinator stack: gateway over a spawned 2×2 cluster."""
    cluster = RemoteClusterService.spawn(cluster_dir, replicas=2)
    stack = build_gateway(cluster)
    yield stack
    stack.close()


@pytest.fixture(scope="module")
def single():
    service = SnippetService(build_corpus())
    yield service
    service.close()


class TestStitchedTrace:
    def _trace_for(self, stack, payload) -> dict:
        body = stack.handle_dict(payload)
        assert body["kind"] != "error", body
        assert "trace" in body["meta"]
        return body["meta"]["trace"]

    def test_one_trace_spans_both_processes(self, traced_stack):
        trace = self._trace_for(traced_stack, search_payload(include_meta=True))
        spans = trace["spans"]
        names = {span["name"] for span in spans}
        processes = {span["process"] for span in spans}

        # >= 4 distinct stages across the serving layers...
        assert "request:search" in names          # gateway root (coordinator)
        assert any(name.startswith("shard:") for name in names)      # routing
        assert any(name.startswith("http:POST") for name in names)   # round trip
        assert any(name.startswith("service:") for name in names)    # shard backend
        assert any(name.startswith("phase:") for name in names)      # timing leaves

        # ...spanning both processes: the coordinator plus a shard server,
        # whose gateway root sits under the coordinator's hop.
        assert "local" in processes
        assert any(process.startswith("server:") for process in processes)
        by_id = {span["id"]: span for span in spans}
        shard_roots = [
            span for span in spans
            if span["name"] == "request:search" and span["process"] != "local"
        ]
        assert shard_roots
        for root in shard_roots:
            server_side = by_id[root["parent"]]
            assert server_side["name"] == "http:/v1/search"
            assert by_id[server_side["parent"]]["name"].startswith("http:POST")

    def test_spans_form_one_rooted_tree(self, traced_stack):
        trace = self._trace_for(traced_stack, search_payload(include_meta=True))
        spans = trace["spans"]
        by_id = {span["id"] for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "request:search"
        for span in spans:
            if span["parent"] is not None:
                assert span["parent"] in by_id, f"dangling parent in {span}"

    def test_remote_spans_nest_under_the_client_round_trip(self, traced_stack):
        trace = self._trace_for(traced_stack, search_payload(include_meta=True))
        spans = {span["id"]: span for span in trace["spans"]}
        remote = [span for span in spans.values() if span["process"] != "local"]
        assert remote, "no shard-server spans were stitched in"
        for span in remote:
            # Walking up from any remote span must reach the coordinator's
            # http round-trip span — the stitch anchor.
            current = span
            seen_http = False
            while current["parent"] is not None:
                current = spans[current["parent"]]
                if current["name"].startswith("http:POST"):
                    seen_http = True
            assert seen_http, f"remote span {span['name']} not under the round trip"

    def test_batch_fans_out_with_fanout_and_merge_spans(self, traced_stack):
        payload = {
            "kind": "batch",
            "schema_version": 1,
            "queries": list(QUERIES[:2]),
        }
        body = traced_stack.handle_dict(payload)
        assert body["kind"] == "batch_response"
        # Batch bodies carry meta only per entry; the whole-request trace
        # is still captured in the buffer.
        [trace] = traced_stack.trace_buffer.newest(1)
        names = {span["name"] for span in trace["spans"]}
        assert "request:batch" in names
        assert "cluster:fanout" in names
        assert "cluster:merge" in names

    def test_trace_lands_in_the_buffer(self, traced_stack):
        trace = self._trace_for(traced_stack, search_payload(include_meta=True))
        buffered = traced_stack.trace_buffer.get(trace["request_id"])
        assert buffered is not None
        assert buffered["request_id"] == trace["request_id"]


class TestDefaultBytesUnchanged:
    def test_meta_free_wire_bytes_are_byte_identical(self, traced_stack, single):
        """Tracing enabled, meta not requested → bytes as if it never existed."""
        for _dataset, name in CLUSTER_DATASETS:
            for query in QUERIES:
                payload = search_payload(document=name, query=query)
                assert wire(traced_stack, payload) == wire(single, payload)

    def test_error_bytes_are_byte_identical(self, traced_stack, single):
        payload = search_payload(document="no-such-document")
        assert wire(traced_stack, payload) == wire(single, payload)

    def test_meta_response_without_trace_key_elsewhere(self, traced_stack):
        body = traced_stack.handle_dict(search_payload(include_meta=True))
        assert "trace" in body["meta"]
        assert "trace" not in body  # only ever inside meta


class TestHttpEndToEnd:
    @pytest.fixture(scope="class")
    def server(self, traced_stack):
        with HttpServer(traced_stack, port=0) as running:
            yield running

    @pytest.fixture(scope="class")
    def client(self, server):
        client = ServiceClient(port=server.port)
        yield client
        client.close()

    def test_search_update_batch_feed_the_histograms(self, client):
        assert client.handle_dict(search_payload())["kind"] == "search_response"
        batch = {"kind": "batch", "schema_version": 1, "queries": ["store texas"]}
        assert client.handle_dict(batch)["kind"] == "batch_response"
        update = {
            "kind": "update",
            "schema_version": 1,
            "action": "remove",
            "document": "no-such-document",
        }
        assert client.handle_dict(update)["kind"] == "error"  # still observed

        snapshot = client.metrics()
        histogram = snapshot["metrics"]["repro_request_seconds"]
        kinds = {row["labels"]["kind"] for row in histogram["series"]}
        assert {"search", "batch", "update"} <= kinds
        for row in histogram["series"]:
            assert set(row["quantiles"]) == {"p50", "p95", "p99"}

    def test_metrics_json_is_schema_versioned(self, client):
        client.handle_dict(search_payload())
        snapshot = client.metrics()
        assert snapshot["schema_version"] == 1
        assert snapshot["metrics"]["repro_requests_total"]["type"] == "counter"

    def test_metrics_prometheus_exposition(self, client):
        client.handle_dict(search_payload())
        text = client.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{kind="search"}' in text
        assert 'repro_request_seconds_bucket{kind="search",le="+Inf"}' in text

    def test_trace_endpoint_serves_the_buffered_trace(self, client):
        body = client.handle_dict(search_payload(include_meta=True))
        request_id = body["meta"]["trace"]["request_id"]
        fetched = client.trace(request_id)
        assert fetched["request_id"] == request_id
        assert fetched["spans"]
        listing = client.trace()
        assert request_id in {wire["request_id"] for wire in listing["traces"]}

    def test_unknown_trace_id_is_a_structured_404(self, client):
        missing = client.trace("definitely-not-recorded")
        assert missing["kind"] == "error"

    def test_http_body_matches_in_process_bytes(self, client, traced_stack):
        payload = search_payload()
        over_http = json.dumps(client.handle_dict(payload), sort_keys=True)
        assert over_http == wire(traced_stack, payload)
