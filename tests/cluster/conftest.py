"""Shared fixtures for the cluster (sharded serving) test suite.

The router is one class over two kinds of shard, so the equivalence
suites run once over both: the ``cluster_with`` fixture builds the same
logical cluster over in-process :class:`~repro.cluster.ShardServer`\\ s or
over :class:`~repro.cluster.RemoteShard`\\ s.  The remote leg talks real
HTTP to in-thread :class:`~repro.api.http.HttpServer`\\ s (one per shard
replica) — the whole wire path without a subprocess per test; the suites
that need real processes (``test_remote_faults.py``,
``test_binary_bootstrap.py``) spawn their own.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator

import pytest

from repro.api.client import ServiceClient
from repro.api.http import HttpServer
from repro.cluster import (
    ClusterService,
    RemoteClusterService,
    ReplicaSet,
    ShardBackend,
    ShardEndpoint,
)
from repro.corpus import Corpus

#: the documents every equivalence test serves — enough of them that any
#: shard count from 1 to 4 gets a non-trivial spread
CLUSTER_DATASETS = (
    ("figure5-stores", "stores"),
    ("retail", "retail"),
    ("movies", "movies"),
    ("bibliography", "bibliography"),
)

QUERIES = (
    "store texas",
    "retailer apparel",
    "movie drama",
    "author",
    "clothes casual",
)

#: the two shard implementations behind the one router
TRANSPORTS = ("in-process", "remote")


def build_corpus() -> Corpus:
    """A fresh multi-document corpus (never share one between services —
    a document belongs to exactly one registry at a time)."""
    corpus = Corpus()
    for dataset, name in CLUSTER_DATASETS:
        corpus.add_builtin(dataset, name=name)
    return corpus


@contextmanager
def in_thread_remote(
    build: Callable[[], ClusterService], replicas: int = 2
) -> Iterator[RemoteClusterService]:
    """The cluster ``build()`` describes, served from remote shards.

    ``build`` is called once per replica (replicas hold independent
    copies of their shard); each resulting shard server is put behind its
    own in-thread HTTP server, exactly as ``serve --shard-of`` would, and
    the coordinator reaches them through ordinary service clients.
    """
    with ExitStack() as stack:
        copies = [build() for _ in range(replicas)]
        replica_sets = []
        for shard_id in range(len(copies[0].shards)):
            endpoints = []
            for copy in copies:
                backend = ShardBackend(copy.shards[shard_id])
                stack.callback(backend.close)
                server = stack.enter_context(
                    HttpServer(backend, port=0, replicate_backend=backend)
                )
                endpoints.append(ShardEndpoint(ServiceClient("127.0.0.1", server.port)))
            replica_sets.append(ReplicaSet(shard_id, endpoints))
        documents = {
            name: shard.shard_id for shard in copies[0].shards for name in shard.names()
        }
        service = RemoteClusterService(
            replica_sets, partitioner=copies[0].partitioner, documents=documents
        )
        stack.callback(service.close)
        yield service


@pytest.fixture()
def corpus():
    return build_corpus()


@pytest.fixture()
def single_service():
    from repro.api import SnippetService

    return SnippetService(build_corpus())


@pytest.fixture(params=TRANSPORTS)
def cluster_with(request):
    """Factory for clusters on the parametrised transport.

    ``cluster_with(3)`` serves :func:`build_corpus` from three shards;
    ``partitioner=`` overrides the placement.  Everything built is closed
    at teardown.
    """
    with ExitStack() as stack:

        def make(shards=None, partitioner=None) -> ClusterService:
            def build() -> ClusterService:
                return ClusterService.from_corpus(
                    build_corpus(), shards=shards, partitioner=partitioner
                )

            if request.param == "remote":
                return stack.enter_context(in_thread_remote(build))
            service = build()
            stack.callback(service.close)
            return service

        yield make
