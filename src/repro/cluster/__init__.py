"""``repro.cluster`` — one logical corpus served from N shards.

The scale-out layer of the reproduction's serving stack (the executor seam
of :mod:`repro.api` and the update journal of :mod:`repro.index.storage`
were built so this package could ship journal deltas, not documents).
There is **one coordinator**, the router, over two kinds of shard:

* :mod:`repro.cluster.partition` — deterministic document → shard
  assignment (:class:`HashPartitioner`, :class:`ExplicitPartitioner`), the
  versioned ``cluster.manifest`` persisted beside the shard snapshot
  directories, and the reader of a saved cluster's name → shard registry;
* :mod:`repro.cluster.router` — :class:`ClusterService`, a drop-in
  replacement for :class:`repro.api.SnippetService`: routing, the batch
  split → fan-out (:class:`ShardExecutor`) → merge, placement and
  union-registry errors, written once against a duck-typed shard seam;
* :mod:`repro.cluster.shard` — :class:`ShardServer`, the in-process
  shard: one corpus plus service, producing and applying replication
  deltas (:class:`ShardDelta`) so replicas stay byte-identical to their
  primary;
* :mod:`repro.cluster.remote` — the distributed deployment:
  :class:`RemoteShard` (read rotation and failover, primary-first writes
  and delta fan-out over one :class:`ReplicaSet`), :class:`ShardBackend`
  (one ``serve --shard-of`` process), :func:`spawn_shard_server` /
  :class:`ShardProcess` (the process harness) and
  :class:`RemoteClusterService` — the same router plus the process /
  monitor / metrics lifecycle;
* :mod:`repro.cluster.replication` — :class:`ReplicaSet` (per-shard
  primary + replicas, read rotation, staleness and promotion) and
  :func:`rebalance_document`, which moves a document between shards as a
  remove+add delta pair under a manifest version bump;
* :mod:`repro.cluster.health` — :class:`HealthMonitor`, the background
  prober that marks endpoints down/up and promotes past dead primaries.

Quick start::

    from repro import Corpus
    from repro.api import SearchRequest
    from repro.cluster import ClusterService

    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    cluster = ClusterService.from_corpus(corpus, shards=2)
    response = cluster.run(SearchRequest(query="store texas", document="stores"))
"""

from repro.cluster.partition import (
    CLUSTER_MANIFEST_FILE,
    ClusterManifest,
    ExplicitPartitioner,
    HashPartitioner,
    Partitioner,
    partitioner_from_manifest,
    read_cluster_manifest,
    saved_cluster_documents,
    write_cluster_manifest,
)
from repro.cluster.health import HealthMonitor
from repro.cluster.remote import (
    RemoteClusterService,
    RemoteShard,
    ShardBackend,
    ShardProcess,
    spawn_server,
    spawn_shard_server,
)
from repro.cluster.replication import (
    RebalanceReport,
    ReplicaSet,
    ShardEndpoint,
    rebalance_document,
)
from repro.cluster.router import ClusterService, ShardExecutor
from repro.cluster.shard import ShardDelta, ShardServer

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ExplicitPartitioner",
    "ClusterManifest",
    "CLUSTER_MANIFEST_FILE",
    "read_cluster_manifest",
    "write_cluster_manifest",
    "saved_cluster_documents",
    "partitioner_from_manifest",
    "ShardServer",
    "ShardDelta",
    "ClusterService",
    "ShardExecutor",
    "ShardEndpoint",
    "ReplicaSet",
    "RebalanceReport",
    "rebalance_document",
    "HealthMonitor",
    "ShardBackend",
    "ShardProcess",
    "spawn_server",
    "spawn_shard_server",
    "RemoteShard",
    "RemoteClusterService",
]
