"""Replica sets and rebalancing for the distributed cluster.

One shard of a remote cluster is served by a **replica set**: M
independently-spawned ``serve --shard-of`` processes holding the same
shard corpus.  Endpoint 0 is the **primary** — every write lands there
first (via the ``apply-update`` replication op), and the resulting
:class:`~repro.cluster.shard.ShardDelta` is fanned to the replicas as
``apply-delta`` ops.  Replicas applying a primary's deltas in order are
proven byte-identical to the primary (``tests/cluster/test_shard.py``),
so read traffic can be load-balanced across every healthy, in-sync
endpoint without changing a single served byte.

State model per endpoint (:class:`ShardEndpoint`):

* ``healthy`` — flipped down on transport failure (by the remote shard's
  failover path or the :class:`~repro.cluster.health.HealthMonitor`) and
  back up when a health probe succeeds;
* ``stale`` — set when the endpoint missed a replication delta (it was
  down or NACKed during a write fan-out).  A stale endpoint is excluded
  from reads *and from promotion* until it is rebuilt — serving from it
  would silently fork the byte-identity contract;
* ``sequence`` — the last replication sequence number the endpoint
  acknowledged; the set's own ``sequence`` is the committed write count.

Failover: :meth:`ReplicaSet.promote` moves the first healthy, in-sync
replica into the primary slot (the dead primary is demoted to the tail,
where a later health recovery makes it a read replica again — but never
silently a primary).  A primary demoted because a write's answer was lost
is marked stale as well (:meth:`~repro.cluster.remote.RemoteShard.update`):
it may have applied the write its replicas never saw.

:func:`update_cluster_document` and :func:`rebalance_document` are the
offline counterparts for saved cluster directories: route one lifecycle
edit to its owning shard (the ``cluster-update`` CLI), or move one
document between shards as a remove+add record pair (``cluster-rebalance``),
each under a manifest version bump.  Both journal through
:func:`repro.corpus.journal_update`, the corpus directory's one writer.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.cluster.partition import (
    ExplicitPartitioner,
    manifest_for_partitioner,
    partitioner_from_manifest,
    read_cluster_manifest,
    saved_cluster_documents,
    write_cluster_manifest,
)
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.client import ServiceClient
    from repro.corpus import DocumentUpdate
    from repro.index.storage import JournalRecord
    from repro.xmltree.tree import XMLTree

#: consecutive ``overloaded`` responses after which an endpoint is shed
OVERLOAD_THRESHOLD = 3


class ShardEndpoint:
    """One serving process of a shard: a client plus liveness state.

    The mutable health/replication fields are written under the owning
    :class:`ReplicaSet`'s lock; the endpoint itself is a dumb record.
    """

    def __init__(self, client: "ServiceClient", role: str = "replica"):
        if role not in ("primary", "replica"):
            raise ClusterError(f"endpoint role must be 'primary' or 'replica', got {role!r}")
        self.client = client
        self.role = role
        self.healthy = True
        self.stale = False
        self.sequence = 0
        self.overloaded_streak = 0

    @property
    def address(self) -> str:
        return f"{self.client.host}:{self.client.port}"

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else "down"
        if self.stale:
            state += ",stale"
        return f"<ShardEndpoint {self.role} {self.address} seq={self.sequence} ({state})>"


class ReplicaSet:
    """The endpoints serving one shard: a primary plus read replicas.

    Endpoint 0 of ``endpoints`` is the primary.  All state transitions
    (mark up/down, staleness, promotion, the read-balancing cursor) happen
    under one lock so concurrent readers, the write path and the health
    monitor never observe a half-promoted set.
    """

    def __init__(self, shard_id: int, endpoints: Sequence[ShardEndpoint]):
        endpoint_list = list(endpoints)
        if not endpoint_list:
            raise ClusterError(f"replica set for shard {shard_id} needs at least one endpoint")
        self.shard_id = shard_id
        self._endpoints = endpoint_list
        self._endpoints[0].role = "primary"
        for endpoint in self._endpoints[1:]:
            endpoint.role = "replica"
        #: committed replication sequence (writes applied by the primary)
        self.sequence = 0
        self._cursor = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def primary(self) -> ShardEndpoint:
        with self._lock:
            return self._endpoints[0]

    @property
    def replicas(self) -> tuple[ShardEndpoint, ...]:
        with self._lock:
            return tuple(self._endpoints[1:])

    def endpoints(self) -> tuple[ShardEndpoint, ...]:
        with self._lock:
            return tuple(self._endpoints)

    def __len__(self) -> int:
        return len(self._endpoints)

    # ------------------------------------------------------------------ #
    # read balancing & failover
    # ------------------------------------------------------------------ #
    def read_candidates(self) -> list[ShardEndpoint]:
        """Endpoints to try for one read, in failover order.

        Healthy, in-sync endpoints rotated round-robin (so a stream of
        reads spreads across the set); when everything is marked down the
        non-stale endpoints are returned anyway — an endpoint that just
        recovered should get the read rather than the caller a guaranteed
        failure.  Stale endpoints never serve reads.
        """
        with self._lock:
            in_sync = [endpoint for endpoint in self._endpoints if not endpoint.stale]
            healthy = [endpoint for endpoint in in_sync if endpoint.healthy]
            candidates = healthy or in_sync
            if not candidates:
                return []
            start = self._cursor % len(candidates)
            self._cursor += 1
            return candidates[start:] + candidates[:start]

    def mark_down(self, endpoint: ShardEndpoint) -> None:
        with self._lock:
            endpoint.healthy = False

    def mark_up(self, endpoint: ShardEndpoint) -> None:
        """A health probe succeeded; staleness is *not* cleared — a stale
        endpoint is alive but diverged, and only a rebuild fixes that."""
        with self._lock:
            endpoint.healthy = True
            endpoint.overloaded_streak = 0

    def record_overloaded(self, endpoint: ShardEndpoint) -> bool:
        """Count one ``overloaded`` answer; shed the endpoint at
        :data:`OVERLOAD_THRESHOLD`.  Returns True when the endpoint was
        marked down."""
        with self._lock:
            endpoint.overloaded_streak += 1
            if endpoint.overloaded_streak >= OVERLOAD_THRESHOLD:
                endpoint.healthy = False
                return True
            return False

    def record_served(self, endpoint: ShardEndpoint) -> None:
        """A non-overloaded answer resets the endpoint's shed counter."""
        with self._lock:
            endpoint.overloaded_streak = 0

    # ------------------------------------------------------------------ #
    # replication bookkeeping
    # ------------------------------------------------------------------ #
    def record_commit(self, sequence: int) -> None:
        """The primary applied a write; the set is now at ``sequence``."""
        with self._lock:
            self.sequence = sequence
            self._endpoints[0].sequence = sequence

    def record_applied(self, endpoint: ShardEndpoint, sequence: int) -> None:
        """``endpoint`` acknowledged the delta for ``sequence``."""
        with self._lock:
            endpoint.sequence = sequence

    def mark_stale(self, endpoint: ShardEndpoint) -> None:
        """``endpoint`` missed a delta: exclude it from reads and promotion."""
        with self._lock:
            endpoint.stale = True

    # ------------------------------------------------------------------ #
    # failover
    # ------------------------------------------------------------------ #
    def promote(self) -> ShardEndpoint | None:
        """Promote a replica when the primary is down.

        No-op (returning the current primary) while the primary is
        healthy.  Otherwise the first healthy, in-sync replica moves into
        the primary slot and the dead primary is demoted to the tail;
        returns None when no replica qualifies — the shard is then
        write-unavailable until an endpoint recovers in sync.
        """
        with self._lock:
            current = self._endpoints[0]
            if current.healthy and not current.stale:
                return current
            for index, endpoint in enumerate(self._endpoints[1:], start=1):
                if endpoint.healthy and not endpoint.stale and endpoint.sequence == self.sequence:
                    self._endpoints.pop(index)
                    self._endpoints.pop(0)
                    self._endpoints.insert(0, endpoint)
                    self._endpoints.append(current)
                    endpoint.role = "primary"
                    current.role = "replica"
                    return endpoint
            return None

    def close(self) -> None:
        for endpoint in self.endpoints():
            endpoint.client.close()

    def __repr__(self) -> str:
        with self._lock:
            up = sum(1 for endpoint in self._endpoints if endpoint.healthy)
            return (
                f"<ReplicaSet shard={self.shard_id} endpoints={len(self._endpoints)} "
                f"up={up} seq={self.sequence}>"
            )


# ---------------------------------------------------------------------- #
# rebalancing
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RebalanceReport:
    """What one :func:`rebalance_document` move did."""

    document: str
    source_shard: int
    target_shard: int
    manifest_version: int


def rebalance_document(
    directory: str | os.PathLike[str], document: str, target_shard: int
) -> RebalanceReport:
    """Move ``document`` to ``target_shard`` in a saved cluster directory.

    The move is a remove+add record pair in journal terms: the document's
    index is snapshotted into the target shard (journalled as an ``add``),
    tombstoned on the source shard (journalled as a ``remove``), and the
    manifest version is bumped — with an explicit partitioner the
    assignment map is repointed so future updates route to the new home.

    Crash ordering (matters, so it is pinned here): the target's add lands
    **before** the source's remove, and the manifest bump is **last**.  A
    crash mid-move can therefore leave the document registered on both
    shards but never on neither, and a stale manifest version never
    describes a half-moved cluster as committed.  A re-run with the same
    target converges whichever shard id is lower: the target's add finds
    the document and writes nothing, and the copy on the other shard is
    removed.
    """
    from repro.corpus import Corpus, journal_update
    from repro.index.storage import directory_documents

    path = os.fspath(directory)
    manifest = read_cluster_manifest(path)
    if not isinstance(target_shard, int) or isinstance(target_shard, bool) or not (
        0 <= target_shard < manifest.shards
    ):
        raise ClusterError(
            f"target shard {target_shard!r} is outside this cluster's "
            f"range [0, {manifest.shards})"
        )

    located = saved_cluster_documents(path, manifest)
    if document not in located:
        raise ClusterError(
            f"no document named {document!r} in the cluster; "
            f"registered: {', '.join(sorted(located)) or '(none)'}"
        )
    source_shard = located[document][0]
    if source_shard == target_shard:
        # A name on two shards resolves to the lower id, so a move to the
        # lower shard that crashed after its add has its source above.
        above = [
            shard_id
            for shard_id in range(target_shard + 1, manifest.shards)
            if document in directory_documents(
                os.path.join(path, manifest.shard_dirs[shard_id])
            ).values()
        ]
        if not above:
            raise ClusterError(
                f"document {document!r} already lives on shard {target_shard}; "
                "nothing to rebalance"
            )
        source_shard = above[0]

    source_dir = os.path.join(path, manifest.shard_dirs[source_shard])
    target_dir = os.path.join(path, manifest.shard_dirs[target_shard])
    source_corpus = Corpus.load_dir(source_dir)
    index = source_corpus.system(document).index

    # 1. Add on the target shard (snapshot + journalled add) — first, so a
    #    crash never leaves the document registered nowhere.
    journal_update(
        target_dir, Corpus.load_dir(target_dir), document, index.tree, dtd=index.analyzer.dtd
    )

    # 2. Tombstone on the source shard.
    journal_update(source_dir, source_corpus, document)

    # 3. Commit point: repoint an explicit assignment and bump the version.
    partitioner = partitioner_from_manifest(manifest)
    if isinstance(partitioner, ExplicitPartitioner):
        assignments = dict(partitioner.assignments)
        assignments[document] = target_shard
        partitioner = ExplicitPartitioner(
            assignments, manifest.shards, default=partitioner.default
        )
    new_manifest = manifest_for_partitioner(
        partitioner, manifest.shard_dirs, version=manifest.version + 1
    )
    write_cluster_manifest(path, new_manifest)
    return RebalanceReport(
        document=document,
        source_shard=source_shard,
        target_shard=target_shard,
        manifest_version=new_manifest.version,
    )


def update_cluster_document(
    directory: str | os.PathLike[str], document: str, tree: XMLTree | None = None, dtd=None
) -> tuple[int, DocumentUpdate, JournalRecord | None]:
    """Route one lifecycle edit of a saved cluster to the owning shard,
    journal it there (:func:`repro.corpus.journal_update`; ``tree`` None
    removes ``document``) and bump the manifest version, last.  Returns
    the shard id and what the journal writer returned.

    The owner comes from snapshot/journal bookkeeping alone, so no shard
    index is loaded until it is known; a new document goes where the
    partitioner places it.
    """
    from repro.corpus import Corpus, journal_update

    path = os.fspath(directory)
    manifest = read_cluster_manifest(path)
    located = saved_cluster_documents(path, manifest)
    if document in located:
        owner = located[document][0]
    elif tree is None:
        raise ClusterError(
            f"no document named {document!r} in the cluster; "
            f"registered: {', '.join(sorted(located)) or '(none)'}"
        )
    else:
        owner = partitioner_from_manifest(manifest).shard_of(document)
    shard_dir = os.path.join(path, manifest.shard_dirs[owner])
    report, record = journal_update(shard_dir, Corpus.load_dir(shard_dir), document, tree, dtd)
    write_cluster_manifest(path, manifest.bumped())
    return owner, report, record
