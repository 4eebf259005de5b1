"""One shard of a cluster: a corpus, its service, and replication deltas.

A :class:`ShardServer` owns the per-shard :class:`~repro.corpus.Corpus`
and :class:`~repro.api.SnippetService`; the router delegates the requests
a shard owns to it.  Its contribution beyond plain delegation is the
**replication primitive**: every document-lifecycle operation is described
as a :class:`ShardDelta` — the same shapes the on-disk update journal uses
(node-level text edits for incremental updates, full XML only for
structural changes and additions, tombstones for removals) — and
:meth:`ShardServer.apply_delta` applies such a delta through the exact
incremental machinery (:mod:`repro.index.incremental` via
:meth:`repro.corpus.Corpus.update_document`) the primary used.  A replica
that applies a primary's deltas in order therefore serves responses
byte-identical to the primary: ship journal deltas, not documents.
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
from repro.errors import ClusterError, DeweyError, ExtractError, UnknownDocumentError
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

    def __repr__(self) -> str:
        payload = f"edits={len(self.edits)}" if self.kind == "update" else (
            "tombstone" if self.kind == "remove" else f"xml={len(self.xml or '')}B"
        )
        return f"<ShardDelta shard={self.shard} {self.kind} {self.document!r} {payload}>"


class ShardServer:
    """One shard's corpus behind the standard service facade.

    The shard's own service runs a :class:`~repro.api.executors.
    SerialExecutor` — cross-shard concurrency is the router's job (the
    :class:`~repro.cluster.router.ShardExecutor`), and nesting a thread
    pool per shard would oversubscribe the machine without changing any
    observable result.
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

    def describe(self) -> dict[str, object]:
        """This shard's row in the router's ``stats()``."""
        return {"shard": self.shard_id, "documents": len(self)}

    def cache_stats(self) -> dict[str, dict[str, dict[str, float]]]:
        return self.service.cache_stats()

    def open(self) -> None:
        self.service.__enter__()

    def close(self) -> None:
        self.service.close()

    # ------------------------------------------------------------------ #
    # the replication primitive
    # ------------------------------------------------------------------ #
    def update(self, request: UpdateRequest) -> tuple[UpdateResponse, ShardDelta]:
        """Apply a lifecycle request to this shard; return the replication delta.

        The response is exactly what a single-corpus
        :meth:`~repro.api.SnippetService.run_update` would return; the
        delta describes the operation in journal terms so a replica (or
        the cluster-update journaller) can re-apply it without shipping
        the whole document when a node-level delta suffices.
        """
        response, report = self.service.run_update_with_report(request)
        return response, self._delta_for(request, report)

    def _delta_for(self, request: UpdateRequest, report: "DocumentUpdate") -> ShardDelta:
        if report.action == "removed":
            return ShardDelta(shard=self.shard_id, document=report.document, kind="remove")
        if report.action == "added":
            return ShardDelta(
                shard=self.shard_id, document=report.document, kind="add", xml=request.xml
            )
        if report.incremental:
            edits = tuple((str(edit.label), edit.new_text) for edit in report.text_edits)
            return ShardDelta(
                shard=self.shard_id, document=report.document, kind="update", edits=edits
            )
        return ShardDelta(
            shard=self.shard_id, document=report.document, kind="replace", xml=request.xml
        )

    def apply_delta(self, delta: ShardDelta) -> "DocumentUpdate":
        """Apply a primary's delta to this shard (the replica side).

        Text deltas flow through :meth:`Corpus.update_document` — the same
        incremental path the primary took — so the replica's postings,
        caches-to-invalidate decisions and served bytes match the primary
        exactly; full-XML deltas re-register through the upsert path, and
        tombstones remove.  Raises :class:`ClusterError` when the delta
        references a node or document this shard does not have — a replica
        that silently skipped a delta would drift forever.
        """
        from repro.xmltree.diff import apply_text_edits
        from repro.xmltree.dtd import dtd_for_tree_text
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
            tree = self.corpus.system(delta.document).index.tree
            try:
                edited = apply_text_edits(tree, delta.edits)
            except DeweyError:
                raise  # a malformed label is reported as it is spelled
            except ExtractError as exc:
                raise ClusterError(
                    f"replication delta references {exc} "
                    f"in document {delta.document!r} on shard {self.shard_id}"
                ) from exc
            return self.corpus.update_document(delta.document, edited)
        if delta.kind in ("replace", "add"):
            parsed = parse_xml(delta.xml or "", name=delta.document)
            dtd = dtd_for_tree_text(parsed.dtd_text, root=parsed.doctype_name)
            return self.corpus.apply_update(delta.document, parsed.tree, dtd=dtd)
        raise ClusterError(f"unknown replication delta kind {delta.kind!r}")

    def __repr__(self) -> str:
        return f"<ShardServer id={self.shard_id} documents={len(self.corpus)}>"
