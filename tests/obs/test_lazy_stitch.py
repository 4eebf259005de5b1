"""Shard spans are stitched when a trace is read, not when they arrive.

Every hop of a traced coordinator carries ``X-Repro-Trace`` and brings the
shard's spans back in ``X-Repro-Trace-Spans``.  The coordinator keeps that
header raw, as one entry anchored to the span open when it arrived, and
parses and re-parents it only when someone reads the trace — ``GET
/v1/trace`` or ``meta.trace``.  These guards pin the laziness, the tree a
read still yields, the read-time drop of a malformed header, the span cap
after expansion, and the trace-id rule a server joins a trace by.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.api.client import ServiceClient
from repro.api.gateway import build_gateway
from repro.api.http import HttpServer, _read_response
from repro.api.protocol import SearchRequest, SearchResponse
from repro.api.service import SnippetService
from repro.cluster import ClusterService, RemoteClusterService
from repro.corpus import Corpus
from repro.obs.trace import MAX_SPANS, TRACE_SPANS_HEADER, Span, Trace, activate
from tests.cluster.conftest import CLUSTER_DATASETS, QUERIES, build_corpus


def remote_spans(process: str = "server:9", count: int = 2) -> list[dict]:
    """``count`` spans as a shard ships them: one root, the rest under it."""
    return [
        {"name": f"remote-{index}", "id": f"{process}:{index + 1}",
         "parent": None if index == 0 else f"{process}:1",
         "seconds": 0.001, "start": 0.0, "process": process}
        for index in range(count)
    ]


@pytest.fixture()
def from_wire_calls(monkeypatch) -> list[dict]:
    """Every ``Span.from_wire`` call this process makes from here on."""
    calls: list[dict] = []
    original = Span.from_wire.__func__

    def counting(cls, wire):
        calls.append(wire)
        return original(cls, wire)

    monkeypatch.setattr(Span, "from_wire", classmethod(counting))
    return calls


class TestStoredRaw:
    def test_a_shipped_header_is_stitched_on_read_under_its_anchor(self, from_wire_calls):
        trace = Trace(process="local")
        with trace.span("http:POST /v1/search") as anchor:
            trace.absorb_header(json.dumps(remote_spans()))
        with trace.span("after"):
            pass
        assert from_wire_calls == []
        names = [span.name for span in trace.spans]
        # at its position: after the spans recorded before it arrived,
        # before the span that was open around it closed
        assert names == ["remote-0", "remote-1", "http:POST /v1/search", "after"]
        spans = {span.span_id: span for span in trace.spans}
        assert spans["server:9:1"].parent_id == anchor
        assert spans["server:9:2"].parent_id == "server:9:1"
        assert len(from_wire_calls) == 4  # two reads, two spans each

    @pytest.mark.parametrize(
        "header",
        ["[{not json", '{"not": "a list"}', '[{"name": "x", "seconds": "slow"}]', '[{"id": []}]'],
        ids=["not-json", "not-a-list", "bad-field", "unhashable-id"],
    )
    def test_a_malformed_header_is_dropped_at_read_time(self, header):
        trace = Trace(process="local")
        with trace.span("http:POST /v1/search"):
            trace.absorb_header(header)
        assert [span.name for span in trace.spans] == ["http:POST /v1/search"]
        assert [span["name"] for span in trace.to_wire()["spans"]] == ["http:POST /v1/search"]

    def test_an_expansion_past_the_cap_is_capped_and_counted(self):
        trace = Trace()
        for index in range(MAX_SPANS - 2):
            trace.add_span(f"s{index}", 0.0)
        trace.absorb_header(json.dumps(remote_spans(count=5)))
        wire = trace.to_wire()
        assert len(wire["spans"]) == MAX_SPANS
        assert wire["dropped_spans"] == 3
        assert len(trace.spans) == MAX_SPANS


class _BadSpansServer(HttpServer):
    """An HTTP server whose span header is not JSON."""

    def _serve_payload(self, *args, **kwargs):
        status, payload, _headers = super()._serve_payload(*args, **kwargs)
        return status, payload, {TRACE_SPANS_HEADER: "[{not json"}


def _stores_service() -> SnippetService:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    return SnippetService(corpus)


class TestOverTheWire:
    def test_a_malformed_span_header_fails_neither_the_request_nor_the_read(self):
        request = SearchRequest(query="store texas", document="stores")
        service = _stores_service()
        with _BadSpansServer(service, port=0) as server:
            with ServiceClient(port=server.port) as client:
                trace = Trace(process="local")
                with activate(trace), trace.span("request:search"):
                    response = client.execute(request)
        assert isinstance(response, SearchResponse)
        assert response == service.execute(request)
        assert {span.process for span in trace.spans} == {"local"}
        assert [span["name"] for span in trace.to_wire()["spans"]] == [
            "http:POST /v1/search", "request:search",
        ]
        service.close()

    @pytest.mark.parametrize("raw_id", [b"caf\xe9", b"x\xb2"], ids=["e-acute", "superscript-2"])
    def test_a_non_ascii_trace_id_is_absent_and_the_server_traces_alone(self, raw_id):
        stack = build_gateway(_stores_service())
        body = json.dumps(SearchRequest(query="store texas", document="stores").to_dict())
        with HttpServer(stack, port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(
                    b"POST /v1/search HTTP/1.1\r\nHost: test\r\n"
                    + b"X-Repro-Trace: " + raw_id + b"\r\n"
                    + b"Content-Length: %d\r\n\r\n" % len(body)
                    + body.encode("utf-8")
                )
                with sock.makefile("rb") as reader:
                    _version, status, headers, _body = _read_response(reader)
        assert status == 200
        assert "x-repro-trace-spans" not in headers  # no caller's trace joined
        newest = stack.trace_buffer.newest(1)
        assert len(newest) == 1  # the gateway started its own trace
        assert newest[0]["request_id"] != raw_id.decode("latin-1")
        stack.close()


@pytest.fixture(scope="module")
def coordinator(tmp_path_factory):
    """A traced coordinator over a spawned 2 x 2 cluster, behind HTTP."""
    directory = tmp_path_factory.mktemp("lazy-stitch-cluster")
    saved = ClusterService.from_corpus(build_corpus(), shards=2)
    saved.save_dir(directory)
    saved.close()
    stack = build_gateway(RemoteClusterService.spawn(directory, replicas=2))
    with HttpServer(stack, port=0) as server:
        yield server
    stack.close()


class TestCoordinator:
    def test_hops_stitch_nothing_until_the_trace_is_read(self, coordinator, from_wire_calls):
        _dataset, name = CLUSTER_DATASETS[0]
        payload = SearchRequest(query=QUERIES[0], document=name).to_dict()
        with ServiceClient(port=coordinator.port) as client:
            for _ in range(8):
                assert client.post(payload)["kind"] == "search_response"
            assert from_wire_calls == []

            # the oldest listed: the first, cold search, which ran phases
            request_id = client.trace()["traces"][-1]["request_id"]
            trace = client.trace(request_id)
        assert from_wire_calls  # the read stitched

        # the tree TestStitchedTrace asserts on meta.trace
        spans = {span["id"]: span for span in trace["spans"]}
        roots = [span for span in spans.values() if span["parent"] is None]
        assert [root["name"] for root in roots] == ["request:search"]
        assert all(span["parent"] in spans for span in spans.values() if span["parent"])
        names = {span["name"] for span in spans.values()}
        # the shard process's gateway root, under the coordinator's hop
        shard_roots = [
            span for span in spans.values()
            if span["name"] == "request:search" and span["process"] != "local"
        ]
        assert shard_roots
        for root in shard_roots:
            server_side = spans[root["parent"]]
            assert server_side["name"] == "http:/v1/search"
            assert spans[server_side["parent"]]["name"].startswith("http:POST")
        assert any(name.startswith("shard:") for name in names)
        assert any(name.startswith("service:") for name in names)
        assert any(name.startswith("phase:") for name in names)
        remote = [span for span in spans.values() if span["process"] != "local"]
        assert remote
        for span in remote:
            current, seen_http = span, False
            while current["parent"] is not None:
                current = spans[current["parent"]]
                seen_http = seen_http or current["name"].startswith("http:POST")
            assert seen_http, f"remote span {span['name']} not under the round trip"
