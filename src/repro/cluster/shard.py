"""One shard of a cluster: a corpus, its service, and replication deltas.

A :class:`ShardServer` owns the per-shard :class:`~repro.corpus.Corpus`
and :class:`~repro.api.SnippetService`; the router delegates the requests
a shard owns to it, and its ``update(request)`` answers the
:class:`~repro.api.UpdateResponse` alone, as a single corpus would.

The **replication primitive** is a :class:`ShardDelta`, which exists
only on the hop that carries it — a primary's ``apply-update`` answer to
its coordinator and the ``apply-delta`` ops fanned on to the replicas
(:mod:`repro.cluster.remote`).  :meth:`ShardDelta.of` spells an operation
in the shapes the on-disk update journal uses, read off the corpus report
(:attr:`~repro.corpus.DocumentUpdate.kind`: node-level text edits for
incremental updates, full XML only for structural changes and additions,
tombstones for removals), and :meth:`ShardServer.apply_delta` replays it
through the exact incremental machinery (:mod:`repro.index.incremental`
via :meth:`repro.corpus.Corpus.replay_label_edits`) the primary used.  A
replica that applies a primary's deltas in order therefore serves
responses byte-identical to the primary: ship journal deltas, not
documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.protocol import (
    BatchRequest,
    BatchResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.api.service import SnippetService
from repro.corpus import Corpus
from repro.errors import ClusterError, UnknownDocumentError
from repro.utils.cache import DEFAULT_CACHE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus import CorpusEntry, DocumentUpdate

#: delta kinds, mirroring the update-journal record kinds
DELTA_KINDS = ("update", "replace", "add", "remove")


@dataclass(frozen=True)
class ShardDelta:
    """One replicated document-lifecycle operation on one shard.

    ``kind`` mirrors the journal record kinds of
    :mod:`repro.index.storage`:

    * ``update`` — text-only edit carried as ``(dewey label, new text)``
      pairs; replicas re-apply it through the incremental-update path;
    * ``replace`` — structural edit, carried as the full new XML;
    * ``add`` — a new document, carried as full XML;
    * ``remove`` — a tombstone.
    """

    shard: int
    document: str
    kind: str
    xml: str | None = None
    edits: tuple[tuple[str, str], ...] = ()

    def to_wire(self) -> dict:
        """The JSON-ready form shipped over ``POST /v1/replicate``.

        Keys with empty defaults are omitted so the wire form is minimal
        and deterministic; :meth:`from_wire` restores the exact dataclass.
        """
        wire: dict = {"shard": self.shard, "document": self.document, "kind": self.kind}
        if self.xml is not None:
            wire["xml"] = self.xml
        if self.edits:
            wire["edits"] = [[label, text] for label, text in self.edits]
        return wire

    @classmethod
    def from_wire(cls, wire: object) -> "ShardDelta":
        """Parse a :meth:`to_wire` dict; malformed input raises ClusterError."""
        if not isinstance(wire, dict):
            raise ClusterError(
                f"a replication delta must be a JSON object, got {type(wire).__name__}"
            )
        shard = wire.get("shard")
        document = wire.get("document")
        kind = wire.get("kind")
        if not isinstance(shard, int) or isinstance(shard, bool) or shard < 0:
            raise ClusterError(f"replication delta has no valid shard id: {shard!r}")
        if not isinstance(document, str) or not document:
            raise ClusterError(f"replication delta has no valid document name: {document!r}")
        if kind not in DELTA_KINDS:
            raise ClusterError(
                f"unknown replication delta kind {kind!r}; expected one of {DELTA_KINDS}"
            )
        xml = wire.get("xml")
        if xml is not None and not isinstance(xml, str):
            raise ClusterError("replication delta 'xml' must be a string when present")
        raw_edits = wire.get("edits", [])
        if not isinstance(raw_edits, (list, tuple)):
            raise ClusterError("replication delta 'edits' must be a list of [label, text] pairs")
        edits: list[tuple[str, str]] = []
        for pair in raw_edits:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(part, str) for part in pair)
            ):
                raise ClusterError(
                    f"replication delta edit {pair!r} is not a [label, text] string pair"
                )
            edits.append((pair[0], pair[1]))
        return cls(shard=shard, document=document, kind=kind, xml=xml, edits=tuple(edits))

    @classmethod
    def of(
        cls, shard_id: int, request: UpdateRequest, report: "DocumentUpdate"
    ) -> "ShardDelta":
        """The delta that replays ``report``, the outcome of ``request`` on
        shard ``shard_id``: its kind and label edits are the report's own
        (:attr:`~repro.corpus.DocumentUpdate.kind`), and an add or a
        replace carries the request's XML.  An update that changed
        nothing is an empty ``update``: a replica applies it to keep its
        sequence in step with the primary's."""
        return cls(
            shard=shard_id,
            document=report.document,
            kind=report.kind,
            xml=request.xml if report.kind in ("add", "replace") else None,
            edits=report.label_edits,
        )

    def __repr__(self) -> str:
        payload = f"edits={len(self.edits)}" if self.kind == "update" else (
            "tombstone" if self.kind == "remove" else f"xml={len(self.xml or '')}B"
        )
        return f"<ShardDelta shard={self.shard} {self.kind} {self.document!r} {payload}>"


class ShardServer:
    """One shard's corpus behind the standard service facade.

    The shard's own service runs a batch in the calling thread, and so
    does the router that calls one shard after another: no thread pool
    sits anywhere between a cluster request and the shard services.
    """

    def __init__(
        self,
        shard_id: int,
        corpus: Corpus | None = None,
        algorithm: str = "slca",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        if not isinstance(shard_id, int) or isinstance(shard_id, bool) or shard_id < 0:
            raise ClusterError(f"shard id must be a non-negative integer, got {shard_id!r}")
        self.shard_id = shard_id
        self.corpus = corpus if corpus is not None else Corpus(
            algorithm=algorithm, cache_size=cache_size
        )
        self.service = SnippetService(self.corpus)

    # ------------------------------------------------------------------ #
    # registry views
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        return self.corpus.names()

    def __contains__(self, document: str) -> bool:
        return document in self.corpus

    def __len__(self) -> int:
        return len(self.corpus)

    # ------------------------------------------------------------------ #
    # the router's shard seam (in process: the pin is the corpus entry)
    # ------------------------------------------------------------------ #
    def capture(self, document: str) -> "CorpusEntry | None":
        """Pin ``document``'s current entry; None when it is not held here.

        The ``Corpus.entry`` lookup is atomic, so there is no
        check-then-resolve window in which a concurrent remove could fail
        a multi-document operation part-way: a request executed against
        the pin is served from the captured state.
        """
        try:
            return self.corpus.entry(document)
        except UnknownDocumentError:
            return None

    def capture_all(self) -> "list[tuple[str, CorpusEntry]]":
        """``(name, pin)`` for every registered document, in name order."""
        return [(entry.name, entry) for entry in self.corpus.entries_snapshot()]

    def search(self, request: SearchRequest, pin: "CorpusEntry") -> SearchResponse:
        return self.service.run(request, entry=pin)

    def batch(self, sub_batch: BatchRequest, pins: "list[CorpusEntry]") -> BatchResponse:
        return self.service.run_batch(sub_batch, entries=pins)

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply a lifecycle request to this shard: exactly what a
        single-corpus :meth:`~repro.api.SnippetService.run_update` does."""
        return self.service.run_update(request)

    def describe(self) -> dict[str, object]:
        """This shard's row in the router's ``stats()``."""
        return {"shard": self.shard_id, "documents": len(self)}

    def cache_stats(self) -> dict[str, dict[str, dict[str, float]]]:
        return self.service.cache_stats()

    def close(self) -> None:
        """Nothing to release: the shard's service holds no resources."""

    # ------------------------------------------------------------------ #
    # the replica side of replication
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: ShardDelta) -> "DocumentUpdate":
        """Apply a primary's delta to this shard (the replica side).

        Text deltas flow through :meth:`Corpus.replay_label_edits` into
        :meth:`Corpus.update_document` — the same incremental path the
        primary took — so the replica's postings,
        caches-to-invalidate decisions and served bytes match the primary
        exactly; full-XML deltas re-register through the upsert path, and
        tombstones remove.  Raises :class:`ClusterError` when the delta
        references a node or document this shard does not have — a replica
        that silently skipped a delta would drift forever.
        """
        from repro.xmltree.parser import parse_xml

        if delta.kind == "remove":
            if delta.document not in self.corpus:
                raise ClusterError(
                    f"replication delta removes unknown document {delta.document!r} "
                    f"on shard {self.shard_id}"
                )
            return self.corpus.remove_document(delta.document)
        if delta.kind == "update":
            if delta.document not in self.corpus:
                raise ClusterError(
                    f"replication delta edits unknown document {delta.document!r} "
                    f"on shard {self.shard_id}"
                )
            return self.corpus.replay_label_edits(
                delta.document,
                delta.edits,
                lambda missing: ClusterError(
                    f"replication delta references {missing} on shard {self.shard_id}"
                ),
            )
        if delta.kind in ("replace", "add"):
            parsed = parse_xml(delta.xml or "", name=delta.document)
            return self.corpus.apply_update(delta.document, parsed.tree, dtd=parsed.dtd())
        raise ClusterError(f"unknown replication delta kind {delta.kind!r}")

    def __repr__(self) -> str:
        return f"<ShardServer id={self.shard_id} documents={len(self.corpus)}>"
