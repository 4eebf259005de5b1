"""The cluster router: the one coordinator, over a duck-typed shard seam.

:class:`ClusterService` implements the same ``run*`` / ``execute*`` /
``handle_dict`` / ``handle_json`` surface as
:class:`repro.api.SnippetService` and is **drop-in compatible at the wire
level**: for any shard count and either kind of shard, the default
(meta-free) JSON responses are byte-identical to a single corpus holding
the same documents — the property the cluster test suite and hypothesis
property test pin down.

All routing policy lives here, once; of a shard the router touches only
``shard_id``, ``names()`` / ``in`` / ``len()``, ``capture(document)`` /
``capture_all()`` (pins, opaque to the router, handed back on execution),
``search(request, pin)`` / ``batch(sub_batch, pins)``, ``update(request)
-> response``, ``describe()``, ``cache_stats()`` and ``close()``.
:class:`~repro.cluster.shard.ShardServer` implements that in process (the
pin is the captured corpus entry),
:class:`~repro.cluster.remote.RemoteShard` over a replica set of spawned
processes — failover and replication live there, below the seam.

* **Search** — a :class:`~repro.api.SearchRequest` names one document;
  the router sends the request to the one shard that holds it.
  Pagination follows for free: a ``next_page`` token re-routes to the
  same shard (ownership *is* the per-shard cursor), so tokens never point
  at an empty trailing page that a different shard would have served.
* **Batch** — documents are grouped by owning shard, each shard executes
  its sub-batch (keeping the per-shard shared parse) in turn, in
  shard-id order on the calling thread, and the per-shard responses are
  merged back into the global document order —
  by name when the batch asked for "all documents", in the caller's order
  otherwise — so the merged :class:`~repro.api.BatchResponse` is exactly
  what a single corpus would have produced.
* **Update** — routed to the owning shard (registered documents) or to
  the partitioner's assignment (new documents), which answers the
  response; a replication delta exists only below the seam, on a remote
  shard's primary→replica hop.

Shard provenance is volatile serving metadata: responses are stamped with
the serving shard id, emitted only inside the opt-in ``meta`` block — the
default wire form stays byte-identical to the single-corpus service.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.api.protocol import (
    BatchEntry,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.api.backend import ServingBackendBase, stats_envelope
from repro.obs.trace import current_trace
from repro.cluster.partition import (
    CLUSTER_MANIFEST_FILE,
    HashPartitioner,
    Partitioner,
    manifest_for_partitioner,
    partitioner_from_manifest,
    read_cluster_manifest,
    write_cluster_manifest,
)
from repro.cluster.shard import ShardServer
from repro.errors import ClusterError, ExtractError, StorageError, UnknownDocumentError
from repro.utils.cache import DEFAULT_CACHE_SIZE


def _span(name: str, **attributes: Any):
    """A span on the current trace; a no-op when the request is untraced."""
    trace = current_trace()
    return trace.span(name, **attributes) if trace is not None else nullcontext()


class ShardFailure(ExtractError):
    """A shard answered a routed request with a structured error.

    Carries the shard's :class:`~repro.api.protocol.ErrorResponse`; the
    router's ``execute*`` return it with the caller's request echoed, so
    the error bytes are the shard's own.
    """

    def __init__(self, response: ErrorResponse):
        super().__init__(response.message)
        self.response = response


class ClusterService(ServingBackendBase):
    """Serve one logical corpus from N shards, drop-in for SnippetService.

    >>> from repro.corpus import Corpus
    >>> from repro.api import SearchRequest
    >>> from repro.cluster import ClusterService
    >>> corpus = Corpus()
    >>> _ = corpus.add_builtin("figure5-stores", name="stores")
    >>> cluster = ClusterService.from_corpus(corpus, shards=2)
    >>> cluster.run(SearchRequest(query="store texas", document="stores")).total_results >= 2
    True
    """

    backend_name = "cluster-service"

    def __init__(
        self,
        shards: Sequence[Any],
        partitioner: Partitioner | None = None,
    ):
        shard_list = list(shards)
        if not shard_list:
            raise ClusterError("a cluster needs at least one shard")
        if sorted(shard.shard_id for shard in shard_list) != list(range(len(shard_list))):
            raise ClusterError(
                "shard ids must be exactly 0..N-1 "
                f"(got {[shard.shard_id for shard in shard_list]})"
            )
        self.shards = tuple(sorted(shard_list, key=lambda shard: shard.shard_id))
        self.partitioner = (
            partitioner if partitioner is not None else HashPartitioner(len(self.shards))
        )
        if self.partitioner.shards != len(self.shards):
            raise ClusterError(
                f"partitioner covers {self.partitioner.shards} shard(s) but the "
                f"cluster has {len(self.shards)}"
            )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_corpus(
        cls,
        corpus,
        shards: int | None = None,
        partitioner: Partitioner | None = None,
    ) -> "ClusterService":
        """Partition an existing corpus's documents into a new cluster.

        The already-built per-document systems are adopted as-is (no
        re-indexing); the source corpus must be discarded afterwards — a
        document belongs to exactly one registry at a time.
        """
        if partitioner is None:
            if shards is None:
                raise ClusterError("from_corpus needs a shard count or a partitioner")
            partitioner = HashPartitioner(shards)
        elif shards is not None and shards != partitioner.shards:
            raise ClusterError(
                f"shards={shards} disagrees with the partitioner's {partitioner.shards}"
            )
        from repro.corpus import Corpus

        shard_corpora = [
            Corpus(algorithm=corpus.algorithm, cache_size=corpus.cache_size)
            for _ in range(partitioner.shards)
        ]
        for entry in corpus.entries_snapshot():
            shard_corpora[partitioner.shard_of(entry.name)].add_system(entry.name, entry.system)
        servers = [
            ShardServer(shard_id, corpus=shard_corpus)
            for shard_id, shard_corpus in enumerate(shard_corpora)
        ]
        return cls(servers, partitioner=partitioner)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Every document registered anywhere in the cluster, sorted."""
        return sorted(name for shard in self.shards for name in shard.names())

    def __contains__(self, document: str) -> bool:
        return any(document in shard for shard in self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def owner_of(self, document: str) -> Any | None:
        """The shard that currently holds ``document`` (None when nobody does)."""
        for shard in self.shards:
            if document in shard:
                return shard
        return None

    def _unknown_document(self, document: str) -> ExtractError:
        # Byte-identical to Corpus.entry's error over the union of every
        # shard's registry — the cluster is one logical corpus.
        return UnknownDocumentError(
            f"no document named {document!r} in the corpus; "
            f"registered: {', '.join(self.names()) or '(none)'}"
        )

    def _capture(self, document: str) -> tuple[Any, Any]:
        """The owning shard plus its pin for ``document`` (requests execute
        against the pin — snapshot semantics, see ``ShardServer.capture``)."""
        for shard in self.shards:
            pin = shard.capture(document)
            if pin is not None:
                return shard, pin
        raise self._unknown_document(document)

    def _placement_shard(self, document: str) -> Any:
        """The shard a *new* document belongs on (partitioner-assigned)."""
        shard_id = self.partitioner.shard_of(document)
        if not 0 <= shard_id < len(self.shards):
            raise ClusterError(
                f"partitioner assigned document {document!r} to shard {shard_id}, "
                f"outside this cluster's range [0, {len(self.shards)})"
            )
        return self.shards[shard_id]

    def _execute(self, run: Callable[[Any], Any], request: Any) -> Any:
        """``run(request)`` with failures shaped as an :class:`ErrorResponse`."""
        try:
            return run(request)
        except ShardFailure as failure:
            return replace(failure.response, request=request.to_dict())
        except ExtractError as error:
            return ErrorResponse.from_exception(error, request=request.to_dict())

    # ------------------------------------------------------------------ #
    # single requests
    # ------------------------------------------------------------------ #
    def run(self, request: SearchRequest) -> SearchResponse:
        """Execute one request on the owning shard; raises on failure."""
        request.validate()
        shard, pin = self._capture(request.document)
        with _span("cluster:route", shard=shard.shard_id):
            response = shard.search(request, pin)
        return response.with_shard(shard.shard_id)

    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        """Like :meth:`run`, but failures become an :class:`ErrorResponse`."""
        return self._execute(self.run, request)

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def run_batch(self, batch: BatchRequest) -> BatchResponse:
        """Fan a batch out across shards and merge deterministically.

        Each shard runs the sub-batch of documents it owns, one shard after
        another in shard-id order on the calling thread (the first failure
        in that order propagates), then per query the per-shard responses are
        stitched back into the global document order with ``seconds`` =
        the slowest shard.  Ordering contract: ``documents=None`` means
        every cluster document in name order (exactly :meth:`names`); an
        explicit list is preserved verbatim, duplicates included.
        """
        batch.validate()
        if batch.documents is not None:
            names = list(batch.documents)
            captured = [self._capture(name) for name in names]
        else:
            # Snapshot semantics for "every registered document": one pass
            # over the per-shard registry snapshots yields the global name
            # order, each name's owner *and* its pin, so a concurrent
            # remove cannot fail the batch part-way (mirrors
            # SnippetService.entries_snapshot).
            everything = sorted(
                (
                    (name, shard, pin)
                    for shard in self.shards
                    for name, pin in shard.capture_all()
                ),
                key=lambda triple: triple[0],
            )
            names = [name for name, _, _ in everything]
            captured = [(shard, pin) for _, shard, pin in everything]
            batch.check_fanout(len(names))
        owners = [shard.shard_id for shard, _ in captured]

        # Group by owning shard, preserving each shard's slice of the
        # global order so per-shard responses can be merged positionally;
        # the pins travel with the sub-batch (snapshot semantics all the
        # way down to the shard service).
        per_shard: dict[int, tuple[list[str], list]] = {}
        for name, (shard, pin) in zip(names, captured):
            documents, pins = per_shard.setdefault(shard.shard_id, ([], []))
            documents.append(name)
            pins.append(pin)

        with _span("cluster:fanout", shards=len(per_shard)):
            shard_responses = {
                shard_id: self.shards[shard_id].batch(
                    replace(batch, documents=tuple(documents)), pins
                )
                for shard_id, (documents, pins) in sorted(per_shard.items())
            }

        with _span("cluster:merge"):
            entries: list[BatchEntry] = []
            for query_index, query in enumerate(batch.queries):
                cursors = {
                    shard_id: iter(response.entries[query_index].responses)
                    for shard_id, response in shard_responses.items()
                }
                responses = tuple(next(cursors[owner]).with_shard(owner) for owner in owners)
                seconds = max(
                    (
                        response.entries[query_index].seconds
                        for response in shard_responses.values()
                    ),
                    default=0.0,
                )
                entries.append(
                    BatchEntry(query=query, responses=responses, seconds=seconds)
                )
        return BatchResponse(entries=tuple(entries), documents=tuple(names))

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        return self._execute(self.run_batch, batch)

    # ------------------------------------------------------------------ #
    # document lifecycle
    # ------------------------------------------------------------------ #
    def run_update(self, request: UpdateRequest) -> UpdateResponse:
        """Route a lifecycle request to the owning (or assigned) shard.

        Registered documents update in place on their current shard; new
        documents go where the partitioner places them; removals must name
        a registered document.  The response is stamped with the shard.
        """
        request.validate()
        shard = self.owner_of(request.document)
        if shard is None:
            if request.action == "remove":
                raise self._unknown_document(request.document)
            shard = self._placement_shard(request.document)
        return replace(shard.update(request), shard=shard.shard_id)

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        return self._execute(self.run_update, request)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save_dir(self, directory: str | os.PathLike[str]) -> list[str]:
        """Snapshot the whole cluster under ``directory``.

        Layout: one corpus directory per shard (``shard-<id>/``, each a
        full :meth:`Corpus.save_dir` snapshot) plus the versioned
        ``cluster.manifest``.  The manifest is written **last** — it is
        the commit point, so a crash mid-save leaves a directory that
        :meth:`load_dir` rejects instead of a half-cluster it trusts.
        Re-saving over an existing cluster bumps the manifest version; the
        old manifest is *parked* (``cluster.manifest.prev``) before the
        shard directories are rewritten, so the commit-point guarantee
        holds for re-saves too — a stale manifest can never describe a
        mix of old and new shard state — while a failed re-save still
        loses nothing: the previous manifest (and with it an explicit
        partitioner's operator-pinned assignment map) sits in the parked
        file for inspection or manual restore.
        """
        path = os.fspath(directory)
        os.makedirs(path, exist_ok=True)
        manifest_path = os.path.join(path, CLUSTER_MANIFEST_FILE)
        if os.path.exists(manifest_path):
            # A present-but-unreadable manifest must stop the save: guessing
            # version 1 would silently reset the monotonic update counter
            # that replicas and tooling compare against.
            version = read_cluster_manifest(path).version + 1
        else:
            version = 1
        parked = f"{manifest_path}.prev"
        if os.path.exists(manifest_path):
            try:
                os.replace(manifest_path, parked)
            except OSError as exc:
                raise StorageError(
                    f"failed to retire the previous cluster manifest {manifest_path}: {exc}"
                ) from exc
        shard_dirs = [f"shard-{shard.shard_id}" for shard in self.shards]
        for shard, subdir in zip(self.shards, shard_dirs):
            shard.corpus.save_dir(os.path.join(path, subdir))
        write_cluster_manifest(
            path, manifest_for_partitioner(self.partitioner, shard_dirs, version=version)
        )
        if os.path.exists(parked):
            os.remove(parked)
        return shard_dirs

    @classmethod
    def load_dir(
        cls,
        directory: str | os.PathLike[str],
        algorithm: str | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "ClusterService":
        """Restore a cluster written by :meth:`save_dir`.

        The load is staged like :meth:`Corpus.load_dir`: every shard
        corpus (base snapshots plus its replayed update journal) must
        validate cleanly before the service is constructed — a corrupt
        shard raises :class:`StorageError` and leaves no partial cluster.
        """
        from repro.corpus import Corpus

        path = os.fspath(directory)
        manifest = read_cluster_manifest(path)
        servers = [
            ShardServer(
                shard_id,
                corpus=Corpus.load_dir(
                    os.path.join(path, subdir), algorithm=algorithm, cache_size=cache_size
                ),
            )
            for shard_id, subdir in enumerate(manifest.shard_dirs)
        ]
        service = cls(servers, partitioner=partitioner_from_manifest(manifest))
        service.manifest_version = manifest.version
        return service

    # ------------------------------------------------------------------ #
    # observability & lifecycle
    # ------------------------------------------------------------------ #
    #: manifest version of the loaded cluster (None for in-memory clusters)
    manifest_version: int | None = None

    def cache_stats(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per-document serving-cache counters, merged across shards.

        Same shape as :meth:`SnippetService.cache_stats` — documents are
        unique cluster-wide, so the merge is a plain union.
        """
        stats: dict[str, dict[str, dict[str, float]]] = {}
        for shard in self.shards:
            stats.update(shard.cache_stats())
        return stats

    def capabilities(self) -> dict[str, Any]:
        caps = super().capabilities()
        caps["documents"] = len(self)
        caps["shards"] = len(self.shards)
        caps["partitioner"] = self.partitioner.kind
        return caps

    def stats(self) -> dict[str, Any]:
        return stats_envelope(
            self.backend_name,
            documents=len(self),
            shards=[shard.describe() for shard in self.shards],
            caches=self.cache_stats(),
        )

    def shard_summary(self) -> list[dict[str, object]]:
        """One row per shard: id, document count, document names."""
        return [
            {
                "shard": shard.shard_id,
                "documents": len(shard),
                "names": ", ".join(shard.names()),
            }
            for shard in self.shards
        ]

    def close(self) -> None:
        """Release every shard (idempotent)."""
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} shards={len(self.shards)} documents={len(self)} "
            f"partitioner={self.partitioner.kind}>"
        )
