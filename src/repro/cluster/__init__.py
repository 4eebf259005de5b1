"""``repro.cluster`` — one logical corpus served from N shards.

The scale-out layer of the reproduction's serving stack (the update journal
of :mod:`repro.index.storage` was built so this package could ship journal
deltas, not documents).
There is **one coordinator**, the router, over two kinds of shard:

* :mod:`repro.cluster.partition` — deterministic document → shard
  assignment (:class:`HashPartitioner`, :class:`ExplicitPartitioner`), the
  versioned ``cluster.manifest`` persisted beside the shard snapshot
  directories, and the reader of a saved cluster's name → shard registry;
* :mod:`repro.cluster.router` — :class:`ClusterService`, a drop-in
  replacement for :class:`repro.api.SnippetService`: routing, the batch
  split → one shard call after another on the caller's thread → merge,
  placement and union-registry errors, written once against a duck-typed
  shard seam;
* :mod:`repro.cluster.shard` — :class:`ShardServer`, the in-process
  shard: one corpus plus service, applying replication deltas
  (:class:`ShardDelta`, built from a primary's corpus report by
  :meth:`ShardDelta.of`) so replicas stay byte-identical to their
  primary;
* :mod:`repro.cluster.remote` — the distributed deployment:
  :class:`RemoteShard` (read rotation and failover, primary-first writes
  and delta fan-out over one :class:`ReplicaSet`), :class:`ShardBackend`
  (one ``serve --shard-of`` process), :func:`spawn_shard_server` /
  :class:`ShardProcess` (the process harness) and
  :class:`RemoteClusterService` — the same router plus the process /
  monitor / metrics lifecycle;
* :mod:`repro.cluster.replication` — :class:`ReplicaSet` (per-shard
  primary + replicas, read rotation, staleness and promotion),
  :func:`update_cluster_document`, which journals one lifecycle edit on
  the owning shard of a saved cluster, and :func:`rebalance_document`,
  which moves a document between shards as a remove+add delta pair, each
  under a manifest version bump;
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

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.cluster.partition": (
        "CLUSTER_MANIFEST_FILE", "ClusterManifest", "ExplicitPartitioner", "HashPartitioner",
        "Partitioner", "partitioner_from_manifest", "read_cluster_manifest",
        "saved_cluster_documents", "write_cluster_manifest",
    ),
    "repro.cluster.health": ("HealthMonitor",),
    "repro.cluster.remote": (
        "RemoteClusterService", "RemoteShard", "ShardBackend", "ShardProcess", "spawn_server",
        "spawn_shard_server",
    ),
    "repro.cluster.replication": (
        "RebalanceReport", "ReplicaSet", "ShardEndpoint", "rebalance_document",
        "update_cluster_document",
    ),
    "repro.cluster.router": ("ClusterService",),
    "repro.cluster.shard": ("ShardDelta", "ShardServer"),
})

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
    "ShardEndpoint",
    "ReplicaSet",
    "RebalanceReport",
    "rebalance_document",
    "update_cluster_document",
    "HealthMonitor",
    "ShardBackend",
    "ShardProcess",
    "spawn_server",
    "spawn_shard_server",
    "RemoteShard",
    "RemoteClusterService",
]
