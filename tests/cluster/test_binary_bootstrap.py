"""Remote cluster bootstrapped from v4 binary snapshots.

The distributed acceptance property of the binary format: a
:class:`~repro.cluster.remote.RemoteClusterService` whose shard processes
load their corpora through the v4 mmap path serves default wire responses
byte-identical to a single-corpus :class:`~repro.api.SnippetService` —
the snapshot format is invisible on the wire.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.protocol import BatchRequest, SearchRequest
from repro.api.service import SnippetService
from repro.cluster import ClusterService, RemoteClusterService
from repro.index.binfmt import BINARY_FILE
from tests.cluster.conftest import CLUSTER_DATASETS, QUERIES, build_corpus


def wire(backend, payload) -> str:
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return backend.handle_json(json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def binary_cluster_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("binary-cluster")
    service = ClusterService.from_corpus(build_corpus(), shards=2)
    service.save_dir(directory)
    service.close()
    return directory


@pytest.fixture(scope="module")
def remote(binary_cluster_dir):
    service = RemoteClusterService.spawn(binary_cluster_dir)
    yield service
    service.close()


@pytest.fixture(scope="module")
def single():
    service = SnippetService(build_corpus())
    yield service
    service.close()


class TestBinaryBootstrap:
    def test_every_shard_snapshot_is_binary(self, binary_cluster_dir):
        binary = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(binary_cluster_dir)
            for name in names
            if name == BINARY_FILE
        ]
        assert binary, "no v4 snapshots written under the cluster directory"
        text = [
            name
            for _root, _dirs, names in os.walk(binary_cluster_dir)
            for name in names
            if name == "inverted.idx"
        ]
        assert text == []

    def test_search_bytes_identical(self, remote, single):
        for _dataset, name in CLUSTER_DATASETS:
            for query in QUERIES:
                request = SearchRequest(query=query, document=name)
                assert wire(remote, request) == wire(single, request)

    def test_batch_bytes_identical(self, remote, single):
        batch = BatchRequest(queries=QUERIES[:3], documents=None)
        assert wire(remote, batch) == wire(single, batch)

    def test_error_bytes_identical(self, remote, single):
        request = SearchRequest(query="anything", document="no-such-doc")
        assert wire(remote, request) == wire(single, request)
