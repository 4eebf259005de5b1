"""A warm shard hop is forwarded, not rebuilt.

The coordinator decodes and parses every shard answer with the typed
protocol's full strictness; a meta-free search answer that passes is then
sent on as the text the shard wrote (``SearchResponse.wire``) instead of
being rebuilt into dicts and encoded again.  A meta-free batch answer is
decoded once into its value and the text of each search response, and
the merged batch is spliced from those texts.  These guards pin both
halves: the coordinator of a spawned 2-shard x 2-replica cluster calls no
``to_dict`` on either path and its bytes equal a single-corpus service's,
while meta, an unrequested ``meta`` block, errors and any copy that
changes a default-form field all take the re-encoding path.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api.backend import ServingBackendBase
from repro.api.client import ServiceClient
from repro.api.gateway import build_gateway
from repro.api.http import HttpServer
from repro.api.protocol import (
    BatchRequest,
    SearchRequest,
    SearchResponse,
    SnippetPayload,
    encode_response,
    parse_response,
)
from repro.api.service import SnippetService
from repro.cluster import ClusterService, RemoteClusterService, RemoteShard
from repro.cluster.replication import ReplicaSet, ShardEndpoint
from repro.obs.metrics import MetricsRegistry
from tests.cluster.conftest import CLUSTER_DATASETS, QUERIES, build_corpus


@pytest.fixture(scope="module")
def cluster_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pass-through-cluster")
    service = ClusterService.from_corpus(build_corpus(), shards=2)
    service.save_dir(directory)
    service.close()
    return directory


@pytest.fixture(scope="module")
def coordinator(cluster_dir):
    """The coordinator stack of ``cluster-spawn``: the gateway over a
    spawned 2 x 2 cluster, behind its HTTP server."""
    cluster = RemoteClusterService.spawn(cluster_dir, replicas=2)
    stack = build_gateway(cluster)
    with HttpServer(stack, port=0) as server:
        yield stack, server, cluster
    stack.close()


@pytest.fixture(scope="module")
def single():
    service = SnippetService(build_corpus())
    yield service
    service.close()


@pytest.fixture()
def to_dict_calls(monkeypatch):
    """Every ``SearchResponse.to_dict`` / ``SnippetPayload.to_dict`` call
    this process makes from here on, by class name."""
    calls: list[str] = []
    for cls in (SearchResponse, SnippetPayload):
        original = cls.to_dict

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "to_dict", counting)
    return calls


def search_payload(document: str, query: str, **extra) -> dict:
    return {**SearchRequest(query=query, document=document).to_dict(), **extra}


class TestForwarded:
    def test_meta_free_search_rebuilds_nothing_in_the_coordinator(
        self, coordinator, single, to_dict_calls
    ):
        stack, server, _cluster = coordinator
        payloads = [
            search_payload(name, query) for _dataset, name in CLUSTER_DATASETS for query in QUERIES
        ]
        with ServiceClient(port=server.port) as client:
            client.post(payloads[0])  # warm the shard caches and the pool
            to_dict_calls.clear()
            answers = [client.post(payload) for payload in payloads]
        assert to_dict_calls == []
        in_process = [stack.handle_encoded(payload) for payload in payloads]
        assert to_dict_calls == []
        expected = [
            single.handle_json(json.dumps(payload, sort_keys=True)) for payload in payloads
        ]
        assert [answer.text for answer in answers] == expected
        assert [body.decode("utf-8") for _code, body in in_process] == expected
        assert {code for code, _body in in_process} == {None}

    def test_include_meta_still_reports_shard_and_trace(self, coordinator):
        stack, server, cluster = coordinator
        _dataset, name = CLUSTER_DATASETS[0]
        payload = search_payload(name, QUERIES[0], include_meta=True)
        owner = cluster.owner_of(name).shard_id
        with ServiceClient(port=server.port) as client:
            meta = client.post(payload)["meta"]
        assert meta["shard"] == owner
        assert meta["trace"]["spans"]
        code, body = stack.handle_encoded(payload)
        assert code is None
        assert json.loads(body)["meta"]["shard"] == owner

    def test_errors_are_re_encoded_with_the_coordinators_request(self, coordinator, single):
        stack, _server, _cluster = coordinator
        payload = search_payload("no-such-document", QUERIES[0])
        expected = single.handle_json(json.dumps(payload, sort_keys=True))
        code, body = stack.handle_encoded(payload)
        assert code == "unknown_document"
        assert body.decode("utf-8") == expected


def batch_payload(**extra) -> dict:
    documents = [name for _dataset, name in CLUSTER_DATASETS]
    return {**BatchRequest(queries=QUERIES, documents=tuple(documents)).to_dict(), **extra}


class TestBatchSpliced:
    def test_meta_free_batch_rebuilds_nothing_in_the_coordinator(
        self, coordinator, single, to_dict_calls
    ):
        stack, server, _cluster = coordinator
        payloads = [batch_payload(), batch_payload(documents=None), batch_payload(limit=1)]
        with ServiceClient(port=server.port) as client:
            for payload in payloads:
                client.post(payload)  # warm the shard caches and payload texts
            to_dict_calls.clear()
            answers = [client.post(payload) for payload in payloads]
        assert to_dict_calls == []
        in_process = [stack.handle_encoded(payload) for payload in payloads]
        assert to_dict_calls == []
        expected = [
            single.handle_json(json.dumps(payload, sort_keys=True)) for payload in payloads
        ]
        assert [answer.text for answer in answers] == expected
        assert [body.decode("utf-8") for _code, body in in_process] == expected
        assert {code for code, _body in in_process} == {None}

    def test_each_shard_response_keeps_the_text_it_arrived_in(self, coordinator):
        _stack, _server, cluster = coordinator
        batch = BatchRequest(queries=QUERIES, documents=("stores", "movies", "stores"))
        merged = cluster.run_batch(batch)
        responses = [response for entry in merged.entries for response in entry.responses]
        assert responses and all(response.wire is not None for response in responses)
        assert [response.shard for response in responses] == [
            cluster.owner_of(response.document).shard_id for response in responses
        ]
        assert all(encode_response(response) == response.wire for response in responses)

    def test_include_meta_batch_keeps_its_bytes(self, coordinator, single):
        stack, _server, cluster = coordinator
        payload = batch_payload(include_meta=True)
        code, body = stack.handle_encoded(payload)
        assert code is None
        answered = json.loads(body)
        responses = [response for entry in answered["entries"] for response in entry["responses"]]
        assert [response["meta"]["shard"] for response in responses] == [
            cluster.owner_of(response["document"]).shard_id for response in responses
        ]
        assert all("seconds" in entry["meta"] for entry in answered["entries"])
        # without its volatile meta blocks, the body is a single service's
        for entry in answered["entries"]:
            del entry["meta"]
            for response in entry["responses"]:
                del response["meta"]
        expected = single.handle_json(json.dumps(batch_payload(), sort_keys=True))
        assert json.dumps(answered, sort_keys=True) == expected

    def test_an_unknown_document_batch_keeps_its_error_bytes(self, coordinator, single):
        stack, server, _cluster = coordinator
        payload = batch_payload(documents=["stores", "no-such-document"])
        expected = single.handle_json(json.dumps(payload, sort_keys=True))
        code, body = stack.handle_encoded(payload)
        assert code == "unknown_document"
        assert body.decode("utf-8") == expected
        with ServiceClient(port=server.port) as client:
            answer = client.post(payload)
        assert answer.text == expected and answer.wires is None


class _CannedShard(ServingBackendBase):
    """A shard that answers every search with the same canned body."""

    def __init__(self, body: dict):
        self.body = body

    def handle_encoded(self, payload, request=None):
        return None, json.dumps(self.body, sort_keys=True).encode("utf-8")


class TestNotForwarded:
    def test_an_unrequested_meta_block_is_re_encoded_away(self, single):
        request = SearchRequest(query=QUERIES[0], document="stores")
        answered = single.execute(request).to_dict(include_meta=True)
        assert "meta" in answered
        with HttpServer(_CannedShard(answered), port=0) as server:
            replica_set = ReplicaSet(0, [ShardEndpoint(ServiceClient(port=server.port))])
            shard = RemoteShard(replica_set, ["stores"], MetricsRegistry())
            try:
                response = shard.search(request, "stores")
            finally:
                replica_set.close()
        assert response.wire is None
        body = encode_response(response)
        assert "meta" not in json.loads(body)
        assert body == single.handle_json(json.dumps(request.to_dict()))

    def test_a_copy_that_changes_a_default_form_field_drops_the_pin(self, single):
        request = SearchRequest(query=QUERIES[0], document="stores")
        text = encode_response(single.execute(request))
        pinned = parse_response(json.loads(text), text)
        assert pinned.wire == text
        assert encode_response(pinned) == text

        emptied = replace(pinned, results=())
        assert emptied.wire is None
        assert json.loads(encode_response(emptied))["results"] == []

        stamped = pinned.with_shard(1)
        assert stamped.wire == text  # shard is meta-only
        assert encode_response(stamped) == text
        assert json.loads(encode_response(stamped.to_dict(include_meta=True)))["meta"]["shard"] == 1

    def test_a_meta_bearing_payload_is_never_pinned(self, single):
        request = SearchRequest(query=QUERIES[0], document="stores")
        text = encode_response(single.execute(request).to_dict(include_meta=True))
        assert parse_response(json.loads(text), text).wire is None
