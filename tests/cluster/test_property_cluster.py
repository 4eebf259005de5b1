"""Property test: a sharded cluster is byte-identical to one corpus.

For random corpora, shard counts, partitioners and add/update/remove
sequences applied through the wire protocol, the cluster router's
search/batch responses must be byte-identical to a single-corpus
:class:`~repro.api.SnippetService` that received the same requests
(mirrors ``tests/property/test_property_incremental.py``).  It runs over
both kinds of shard; the remote leg replicates every write across two
replicas of in-thread HTTP endpoints — no subprocess per example.
"""

from __future__ import annotations

import json
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BatchRequest, SearchRequest, SnippetService, UpdateRequest
from repro.cluster import ClusterService, ExplicitPartitioner, HashPartitioner
from repro.corpus import Corpus
from repro.xmltree.node import XMLNode
from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import XMLTree
from tests.cluster.conftest import TRANSPORTS, in_thread_remote

TAGS = ("store", "item", "name", "city", "category", "info")
VALUES = ("texas", "houston", "austin", "suit", "outwear", "alpha", "beta")
QUERIES = ("store texas", "city houston", "item suit", "alpha", "name beta")
DOC_NAMES = ("doc-a", "doc-b", "doc-c", "doc-d")


@st.composite
def small_xml(draw) -> str:
    """A small random document over the shared vocabulary, as XML text —
    the wire form both services ingest through UpdateRequest."""

    def build(depth: int) -> XMLNode:
        node = XMLNode(draw(st.sampled_from(TAGS)))
        if depth >= 3 or draw(st.booleans()):
            node.text = draw(st.sampled_from(VALUES))
            return node
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            node.append_child(build(depth + 1))
        return node

    root = XMLNode("root")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        root.append_child(build(1))
    return to_xml_string(XMLTree(root, name="property-doc"))


@st.composite
def scenarios(draw):
    """(shards, partitioner factory, wire operations) for one example.

    Operations are UpdateRequest payloads: upserts of random documents
    (sometimes re-upserting a registered name — an update, possibly
    structural) and removals (sometimes of unregistered names — the error
    path, which must also match byte for byte).
    """
    shards = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        partitioner = HashPartitioner(shards)
    else:
        assignments = {
            name: draw(st.integers(min_value=0, max_value=shards - 1))
            for name in DOC_NAMES
        }
        partitioner = ExplicitPartitioner(assignments, shards, default=0)
    operations = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        name = draw(st.sampled_from(DOC_NAMES))
        if draw(st.integers(min_value=0, max_value=9)) < 3:
            operations.append(UpdateRequest(document=name, action="remove"))
        else:
            operations.append(UpdateRequest(document=name, xml=draw(small_xml())))
    return shards, partitioner, operations


def wire(service, payload: dict) -> str:
    return json.dumps(service.handle_dict(payload), sort_keys=True)


@pytest.mark.parametrize("transport", TRANSPORTS)
@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_cluster_matches_single_corpus_byte_for_byte(transport, scenario):
    _shards, partitioner, operations = scenario

    def build() -> ClusterService:
        return ClusterService.from_corpus(Corpus(), partitioner=partitioner)

    with ExitStack() as stack:
        cluster = (
            stack.enter_context(in_thread_remote(build))
            if transport == "remote"
            else stack.enter_context(build())
        )
        _check_scenario(cluster, operations)


def _check_scenario(cluster, operations) -> None:
    single = SnippetService(Corpus())

    def probe() -> None:
        # Interleave queries so caches are populated and carried along the
        # way on both sides, not just compared cold at the end.
        for name in DOC_NAMES[:2]:
            payload = SearchRequest(
                query=QUERIES[0], document=name, size_bound=6, page_size=2
            ).to_dict()
            assert wire(cluster, payload) == wire(single, payload)

    for request in operations:
        payload = request.to_dict()
        assert wire(cluster, payload) == wire(single, payload), payload
        probe()

    assert cluster.names() == single.corpus.names()
    for name in cluster.names() + ["never-registered"]:
        for query in QUERIES:
            payload = SearchRequest(
                query=query, document=name, size_bound=6, page_size=2
            ).to_dict()
            assert wire(cluster, payload) == wire(single, payload), (name, query)
    batch = BatchRequest(queries=QUERIES[:3], size_bound=6).to_dict()
    assert wire(cluster, batch) == wire(single, batch)
