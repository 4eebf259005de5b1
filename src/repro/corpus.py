"""A small corpus manager: several named documents behind one interface.

The demo web UI let users "specify XML data sets and keywords for
retrieval" and pick a document before querying (§4).  :class:`Corpus`
reproduces that workflow programmatically: register documents (from trees,
XML text, files or the built-in dataset generators) and serve them by name
through a :class:`repro.api.SnippetService` built around the corpus.

Serving features (the demo ran as a web service):

* **Persistence** — :meth:`Corpus.save_dir` snapshots every document index
  via :mod:`repro.index.storage`; :meth:`Corpus.load_dir` restores the
  corpus without re-indexing, with byte-identical query results, replaying
  any append-only update journal; :func:`journal_update` is that
  journal's one writer (``corpus-update``, ``cluster-update`` and
  rebalancing call it).
* **Re-registration** — ``add_*(..., replace=True)`` swaps a document in
  place and explicitly invalidates its result cache and root memo.
* **Incremental updates** — :meth:`Corpus.update_document` diffs the new
  version against the registered index and applies posting-level deltas
  (:mod:`repro.index.incremental`) instead of rebuilding, invalidating
  only the cache entries the edit can actually affect;
  :meth:`Corpus.remove_document` completes the document lifecycle.
"""

from __future__ import annotations

import os
import re
import threading
import weakref
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    DatasetError,
    DeweyError,
    DocumentNameError,
    ExtractError,
    StorageError,
    UnknownDocumentError,
)
from repro.index.postings import PostingList
from repro.system import ExtractSystem
from repro.utils.cache import DEFAULT_CACHE_SIZE
from repro.xmltree.diff import TextEdit, apply_text_edits, diff_trees
from repro.xmltree.tree import XMLTree

if TYPE_CHECKING:
    from repro.index.storage import JournalRecord

#: names accepted by :meth:`Corpus.add_builtin` → generator factory
_BUILTIN_FACTORIES = {
    "figure1": lambda: _lazy("repro.datasets.paper_example", "figure1_document")(),
    "figure5-stores": lambda: _lazy("repro.datasets.retail", "figure5_document")(),
    "retail": lambda: _lazy("repro.datasets.retail", "generate_retail_document")(),
    "movies": lambda: _lazy("repro.datasets.movies", "generate_movies_document")(),
    "auctions": lambda: _lazy("repro.datasets.auctions", "generate_auction_document")(),
    "bibliography": lambda: _lazy("repro.datasets.bibliography", "generate_bibliography_document")(),
}

def _lazy(module_name: str, attribute: str):
    """Import a dataset factory lazily (keeps Corpus import light)."""
    module = __import__(module_name, fromlist=[attribute])
    return getattr(module, attribute)


def builtin_dataset_names() -> list[str]:
    """Names accepted by :meth:`Corpus.add_builtin` (and the CLI)."""
    return sorted(_BUILTIN_FACTORIES)


@dataclass
class CorpusEntry:
    """One registered document and its ready-to-query system."""

    name: str
    system: ExtractSystem

    @property
    def node_count(self) -> int:
        return self.system.index.tree.size_nodes

    @property
    def entity_tags(self) -> list[str]:
        return sorted(self.system.analyzer.entity_tags())


@dataclass(frozen=True)
class DocumentUpdate:
    """The report of one document-lifecycle operation.

    ``incremental`` is True when the edit was applied as posting-level
    deltas; ``structural_reason`` explains the full-rebuild fallback when
    it was not.  ``text_edits`` carries the applied edits, and
    :attr:`kind` / :attr:`label_edits` spell the operation the way a
    journal record (:func:`journal_update`) and a replication delta
    (:meth:`repro.cluster.ShardDelta.of`) replay it.
    """

    document: str
    #: "updated", "added" or "removed"
    action: str
    incremental: bool
    #: node count of the document after the operation (0 after removal)
    nodes: int
    changed_nodes: int = 0
    changed_terms: int = 0
    remined_entities: int = 0
    #: cached query outcomes plus memoised roots
    cache_entries_kept: int = 0
    cache_entries_invalidated: int = 0
    structural_reason: str | None = None
    text_edits: tuple[TextEdit, ...] = ()

    @property
    def kind(self) -> str:
        """The record kind that replays this operation: ``"add"``,
        ``"remove"``, ``"update"`` (text-only edits, or none at all) or
        ``"replace"`` (a structural edit, replayed from the full new
        version)."""
        if self.action == "added":
            return "add"
        if self.action == "removed":
            return "remove"
        return "update" if self.incremental else "replace"

    @property
    def label_edits(self) -> tuple[tuple[str, str], ...]:
        """The applied text edits as ``(label text, new text)`` pairs —
        what :meth:`Corpus.replay_label_edits` takes back."""
        return tuple((str(edit.label), edit.new_text) for edit in self.text_edits)

    def __repr__(self) -> str:
        mode = "incremental" if self.incremental else "full"
        return (
            f"<DocumentUpdate {self.action} {self.document!r} {mode} "
            f"changed_nodes={self.changed_nodes} "
            f"cache kept={self.cache_entries_kept} "
            f"invalidated={self.cache_entries_invalidated}>"
        )


class Corpus:
    """A registry of named, indexed documents."""

    def __init__(self, algorithm: str = "slca", cache_size: int = DEFAULT_CACHE_SIZE):
        self.algorithm = algorithm
        self.cache_size = cache_size
        self._entries: dict[str, CorpusEntry] = {}
        #: guards registration swaps against concurrent check-then-set races.
        self._serving_lock = threading.Lock()
        #: serialises document updates (diff → delta → swap) so concurrent
        #: updaters cannot diff against the same base and lose an edit;
        #: readers only contend on the brief swap under _serving_lock.
        #: Re-entrant because apply_update() delegates to update_document().
        self._update_lock = threading.RLock()
        #: per registered document, every tree version published under its
        #: name, held weakly: what :meth:`live_versions` counts
        self._versions: dict[str, weakref.WeakSet[XMLTree]] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add_tree(self, name: str, tree: XMLTree, replace: bool = False) -> CorpusEntry:
        """Register an in-memory document under ``name``."""
        return self._register(
            name,
            ExtractSystem.from_tree(tree, algorithm=self.algorithm, cache_size=self.cache_size),
            replace=replace,
        )

    def add_xml(self, name: str, xml_text: str, replace: bool = False) -> CorpusEntry:
        """Register a document given as XML text."""
        return self._register(
            name,
            ExtractSystem.from_xml(
                xml_text, name=name, algorithm=self.algorithm, cache_size=self.cache_size
            ),
            replace=replace,
        )

    def add_file(
        self, path: str | os.PathLike[str], name: str | None = None, replace: bool = False
    ) -> CorpusEntry:
        """Register a document from an XML file on disk."""
        resolved = name or os.path.splitext(os.path.basename(os.fspath(path)))[0]
        return self._register(
            resolved,
            ExtractSystem.from_file(path, algorithm=self.algorithm, cache_size=self.cache_size),
            replace=replace,
        )

    def add_builtin(
        self, dataset: str, name: str | None = None, replace: bool = False
    ) -> CorpusEntry:
        """Register one of the built-in synthetic datasets by name."""
        factory = _BUILTIN_FACTORIES.get(dataset)
        if factory is None:
            raise DatasetError(
                f"unknown built-in dataset {dataset!r}; available: {', '.join(builtin_dataset_names())}"
            )
        tree = factory()
        return self.add_tree(name or dataset, tree, replace=replace)

    def add_system(self, name: str, system: ExtractSystem, replace: bool = False) -> CorpusEntry:
        """Register an already-built :class:`ExtractSystem` under ``name``.

        The seam the sharding layer (:mod:`repro.cluster`) uses to move a
        document between corpora without re-indexing: the system (index,
        caches, analyzer) is adopted as-is.  The caller must not keep
        serving the system through another corpus — a document belongs to
        exactly one registry at a time.
        """
        return self._register(name, system, replace=replace)

    def _register(self, name: str, system: ExtractSystem, replace: bool = False) -> CorpusEntry:
        if not name or "\n" in name or "\r" in name:
            raise DocumentNameError(
                f"document name {name!r} must be non-empty and hold no line break"
            )
        entry = CorpusEntry(name=name, system=system)
        # Atomic swap: concurrent requests either see the old entry or the
        # new one — never a window where the name is unregistered.
        with self._serving_lock:
            old = self._entries.get(name)
            if old is not None and not replace:
                raise ExtractError(
                    f"a document named {name!r} is already registered "
                    "(pass replace=True to swap it and invalidate its caches)"
                )
            self._entries[name] = entry
            self._versions.setdefault(name, weakref.WeakSet()).add(system.index.tree)
        if old is not None:
            # Explicit invalidation on re-registration: outstanding
            # references to the old system must not keep serving results
            # for a document that was just swapped out.
            old.system.invalidate_cache()
        return entry

    # ------------------------------------------------------------------ #
    # incremental document lifecycle
    # ------------------------------------------------------------------ #
    def update_document(self, name: str, tree: XMLTree) -> DocumentUpdate:
        """Replace the registered document ``name`` with an edited version.

        The new tree is diffed against the registered index
        (:func:`repro.xmltree.diff.diff_trees`):

        * **no difference** — a no-op; every cache entry survives;
        * **text-only edits** — applied as posting-level deltas
          (:func:`repro.index.incremental.apply_text_update`): unchanged
          posting lists, the structure index, the schema and unaffected
          entity keys are shared with the previous index, and the new
          entry *adopts* every cached outcome and memoised root the edit
          provably cannot affect (only entries whose keywords hit a
          changed term, whose result subtree contains an edited node, or —
          when a re-mined entity key moved — all snippet-bearing state are
          invalidated);
        * **structural edits** — full re-index fallback (preserving the
          document's original DTD context) with fresh caches.

        Updates are serialised on an update lock (no lost edits between
        concurrent updaters); the visible swap is atomic under the serving
        lock, so readers observe either the old or the new document, never
        a mix.  The tree adopts the registered document's logical name so
        cache keys stay continuous.  Raises :class:`ExtractError` when the
        name is unknown or the document is replaced/removed mid-update.
        """
        from repro.index.incremental import apply_text_update

        with self._update_lock:
            old_entry = self.entry(name)
            old_system = old_entry.system
            old_index = old_system.index
            tree.name = old_index.tree.name
            diff = diff_trees(old_index.tree, tree)
            if diff.is_empty:
                return DocumentUpdate(
                    document=name,
                    action="updated",
                    incremental=True,
                    nodes=old_index.tree.size_nodes,
                    cache_entries_kept=_cache_entries(old_system),
                )
            if diff.is_text_only:
                update = apply_text_update(old_index, tree, diff)
                new_system = ExtractSystem(
                    update.index, algorithm=self.algorithm, cache_size=self.cache_size
                )
                kept, dropped = _carry_serving_state(old_system, new_system, update)
                self._swap_entry(name, old_entry, CorpusEntry(name=name, system=new_system))
                old_system.invalidate_cache()
                return DocumentUpdate(
                    document=name,
                    action="updated",
                    incremental=True,
                    nodes=update.index.tree.size_nodes,
                    changed_nodes=len(diff.text_edits),
                    changed_terms=len(update.changed_terms),
                    remined_entities=len(update.remined_entity_paths),
                    cache_entries_kept=kept,
                    cache_entries_invalidated=dropped,
                    text_edits=diff.text_edits,
                )
            # Structural fallback: rebuild under the original DTD context so
            # classification semantics cannot silently drift on update.
            from repro.index.builder import IndexBuilder

            new_index = IndexBuilder(dtd=old_index.analyzer.dtd).build(tree)
            new_system = ExtractSystem(
                new_index, algorithm=self.algorithm, cache_size=self.cache_size
            )
            new_entry = CorpusEntry(name=name, system=new_system)
            dropped = _cache_entries(old_system)
            self._swap_entry(name, old_entry, new_entry)
            old_system.invalidate_cache()
            return DocumentUpdate(
                document=name,
                action="updated",
                incremental=False,
                nodes=new_index.tree.size_nodes,
                changed_nodes=new_index.tree.size_nodes,
                cache_entries_invalidated=dropped,
                structural_reason=diff.structural_reason,
            )

    def remove_document(self, name: str) -> DocumentUpdate:
        """Unregister a document, reporting what was dropped (the lifecycle
        counterpart of :meth:`update_document`).  Its caches are
        invalidated, so stale outcomes cannot be served — even if the name
        is later re-registered."""
        with self._update_lock:
            with self._serving_lock:
                entry = self._entries.pop(name, None)
                if entry is None:
                    raise UnknownDocumentError(
                        f"no document named {name!r} in the corpus; registered: "
                        f"{', '.join(sorted(self._entries)) or '(none)'}"
                    )
                self._versions.pop(name, None)
            dropped = _cache_entries(entry.system)
            entry.system.invalidate_cache()
            return DocumentUpdate(
                document=name,
                action="removed",
                incremental=False,
                nodes=0,
                cache_entries_invalidated=dropped,
            )

    def apply_update(self, name: str, tree: XMLTree, dtd=None) -> DocumentUpdate:
        """Upsert: update ``name`` when registered, register it otherwise.

        The check-then-act pair runs under the update lock, so two
        concurrent upserts of the same new document cannot race into the
        "already registered" error.  ``dtd`` only applies to the *add* path
        (updates keep the document's original DTD context).
        """
        from repro.index.builder import IndexBuilder

        with self._update_lock:
            if name in self:
                return self.update_document(name, tree)
            system = ExtractSystem(
                IndexBuilder(dtd=dtd).build(tree),
                algorithm=self.algorithm,
                cache_size=self.cache_size,
            )
            self._register(name, system)
            return DocumentUpdate(
                document=name,
                action="added",
                incremental=False,
                nodes=tree.size_nodes,
                changed_nodes=tree.size_nodes,
            )

    def replay_label_edits(
        self,
        name: str,
        edits: Iterable[tuple[str, str]],
        refuse: Callable[[str], ExtractError],
    ) -> DocumentUpdate:
        """Re-apply ``(label text, new text)`` edits to ``name`` through
        :meth:`update_document`: how a journal ``update`` record and a
        replication ``update`` delta replay :attr:`DocumentUpdate.label_edits`.

        A label that names no node raises ``refuse(message)``, the
        caller's own error; a malformed label raises its
        :class:`~repro.errors.DeweyError` as it is spelled.
        """
        try:
            edited = apply_text_edits(self.system(name).index.tree, edits)
        except DeweyError:
            raise
        except ExtractError as exc:
            raise refuse(f"{exc} in document {name!r}") from exc
        return self.update_document(name, edited)

    def _swap_entry(self, name: str, old_entry: CorpusEntry, new_entry: CorpusEntry) -> None:
        """Atomically publish ``new_entry``, verifying the base is current."""
        with self._serving_lock:
            if self._entries.get(name) is not old_entry:
                raise ExtractError(
                    f"document {name!r} was concurrently replaced or removed "
                    "while an update was being prepared; re-read and retry"
                )
            self._entries[name] = new_entry
            self._versions.setdefault(name, weakref.WeakSet()).add(
                new_entry.system.index.tree
            )

    def live_versions(self) -> dict[str, int]:
        """Per registered document, how many of its tree versions are
        still alive.

        1 once its retired versions are all gone: the caches rebind what
        they keep across a text-only update (:func:`_carry_serving_state`),
        so only a request still running on a retired version — or a leak —
        keeps one alive.  Counted from weak references to the
        :class:`XMLTree` objects, which hold their nodes but are held by
        none of them.  A version holds no reference cycle at all — a
        node's ``parent`` link is weak, its ``children`` links strong — so
        the moment nothing holds a tree, reference counting frees it *and
        its nodes*, without waiting for the cycle collector.
        """
        with self._serving_lock:
            return {name: len(self._versions[name]) for name in sorted(self._entries)}

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        with self._serving_lock:
            return sorted(self._entries)

    def entries_snapshot(self) -> list[CorpusEntry]:
        """A point-in-time copy of the registry, in name order.

        Fan-outs iterate this instead of the live dict, so a concurrent
        remove/add can neither crash the iteration (dict resize) nor make
        an in-flight multi-document operation fail part-way."""
        with self._serving_lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def entry(self, name: str) -> CorpusEntry:
        try:
            return self._entries[name]
        except KeyError as exc:
            raise UnknownDocumentError(
                f"no document named {name!r} in the corpus; registered: {', '.join(self.names()) or '(none)'}"
            ) from exc

    def system(self, name: str) -> ExtractSystem:
        return self.entry(name).system

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CorpusEntry]:
        return iter(self.entries_snapshot())

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save_dir(self, directory: str | os.PathLike[str]) -> list[str]:
        """Snapshot every registered document index under ``directory``.

        Layout: one subdirectory per document holding its ``snapshot.bin``
        (see :mod:`repro.index.storage`) plus a ``corpus.manifest``
        recording the algorithm and the subdirectory ↔ document-name
        mapping.  Any update journal left by earlier ``corpus-update`` runs
        is discarded — the full snapshot supersedes it (replaying it on top
        would double-apply the edits).  Returns the subdirectory names
        written, in document-name order.
        """
        from repro.index.storage import (
            discard_corpus_journal,
            save_index,
            write_corpus_manifest,
        )

        path = os.fspath(directory)
        os.makedirs(path, exist_ok=True)
        subdirs: list[str] = []
        entries: list[tuple[str, str]] = []
        used: set[str] = set()
        for name in self.names():
            subdir = _subdir_for(name, used)
            save_index(self._entries[name].system.index, os.path.join(path, subdir))
            entries.append((subdir, name))
            subdirs.append(subdir)
        write_corpus_manifest(path, self.algorithm, entries)
        discard_corpus_journal(path)
        return subdirs

    @classmethod
    def load_dir(
        cls,
        directory: str | os.PathLike[str],
        algorithm: str | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "Corpus":
        """Restore a corpus written by :meth:`save_dir` without re-indexing
        source XML; queries over the loaded corpus are byte-identical to
        queries over the corpus that was saved.

        The whole load is **staged**: documents are registered into a fresh
        corpus, the update journal (if any) is replayed on top of it, and
        only when everything — base snapshots and every journal record —
        validated cleanly is the corpus handed to the caller.  A corrupt or
        truncated snapshot, or a journal referencing a missing document,
        raises :class:`~repro.errors.StorageError` and leaves no partially-
        registered corpus behind.

        ``algorithm`` overrides the manifest's recorded algorithm.
        """
        return _load_staged(cls, directory, algorithm, cache_size)[0]

    def summary(self) -> list[dict[str, object]]:
        """One row per document: name, nodes, entity tags (for listings)."""
        return [
            {
                "name": entry.name,
                "nodes": entry.node_count,
                "entities": ", ".join(entry.entity_tags),
            }
            for entry in self.entries_snapshot()
        ]

    def __repr__(self) -> str:
        return f"<Corpus documents={len(self._entries)}>"


def _load_staged(
    cls: type[Corpus],
    directory: str | os.PathLike[str],
    algorithm: str | None,
    cache_size: int,
) -> tuple[Corpus, dict[str, str], list[JournalRecord]]:
    """:meth:`Corpus.load_dir`'s staged load into a fresh ``cls``, with what
    it read on the way: the corpus, the subdir → document-name map after
    journal bookkeeping (:func:`~repro.index.storage.resolve_journal`'s
    running map) and the journal records, so compaction reads the
    directory once."""
    from repro.index.storage import (
        load_index,
        read_corpus_journal,
        read_corpus_manifest,
        resolve_journal,
    )

    path = os.fspath(directory)
    manifest = read_corpus_manifest(path)
    records = read_corpus_journal(path)
    documents = dict(manifest.entries)

    staged = cls(algorithm=algorithm or manifest.algorithm, cache_size=cache_size)

    def register(subdir: str, name: str, replace: bool = False) -> None:
        # The tree keeps the document name load_index restores, so cache
        # keys and ResultSet.document_name survive the round trip even
        # under a different registry name.
        index = load_index(os.path.join(path, subdir))
        staged._register(
            name,
            ExtractSystem(index, algorithm=staged.algorithm, cache_size=cache_size),
            replace=replace,
        )

    def missing_node(missing: str) -> StorageError:
        return StorageError(f"update journal references {missing}")

    for subdir, name in manifest.entries:
        register(subdir, name)
    # Replay in order: text-only updates flow through update_document,
    # so a replayed corpus is byte-identical to the corpus the updates
    # were originally applied to.
    for record, name in resolve_journal(documents, records):
        try:
            if record.kind == "update":
                staged.replay_label_edits(name, record.edits, missing_node)
            elif record.kind == "remove":
                staged.remove_document(name)
            else:
                replace = record.kind == "replace"
                register(record.snapshot if replace else record.subdir, name, replace)
        except StorageError:
            raise
        except ExtractError as exc:
            raise StorageError(
                f"replaying journal record {record.kind!r} for directory "
                f"{record.subdir!r} failed: {exc}"
            ) from exc
    return staged, documents, records


def journal_update(
    directory: str | os.PathLike[str],
    corpus: Corpus,
    name: str,
    tree: XMLTree | None = None,
    dtd=None,
) -> tuple[DocumentUpdate, JournalRecord | None]:
    """Apply one lifecycle edit to ``corpus``, loaded from ``directory``,
    and journal it there: the one writer of a corpus directory's journal.

    ``tree`` None removes ``name``; otherwise the edit is
    :meth:`Corpus.apply_update`'s upsert (``dtd`` applies to an add only).
    An add or a structural update saves its snapshot into a fresh
    subdirectory (one no live document and no entry on disk holds) before
    journalling ``add`` / ``replace``; a text-only update journals its
    edits, a remove a tombstone, and an edit that changed nothing writes
    nothing.  Returns the report and the record appended (or None).
    """
    from repro.index.storage import (
        JournalRecord,
        append_journal_record,
        directory_documents,
        save_index,
    )

    path = os.fspath(directory)
    documents = directory_documents(path)
    subdir_of = {document: subdir for subdir, document in documents.items()}

    def save_fresh() -> str:
        used = {entry.lower() for entry in os.listdir(path)}
        used.update(subdir.lower() for subdir in documents)
        subdir = _subdir_for(name, used)
        save_index(corpus.system(name).index, os.path.join(path, subdir))
        return subdir

    if tree is None:
        report = corpus.remove_document(name)
    else:
        report = corpus.apply_update(name, tree, dtd=dtd)
    if report.kind == "update" and not report.text_edits:
        return report, None
    if report.kind == "add":
        record = JournalRecord(kind="add", subdir=save_fresh(), name=name)
    elif report.kind == "replace":
        record = JournalRecord(kind="replace", subdir=subdir_of[name], snapshot=save_fresh())
    else:  # an "update" with its label edits, or a "remove", which has none
        record = JournalRecord(kind=report.kind, subdir=subdir_of[name], edits=report.label_edits)
    append_journal_record(path, record)
    return report, record


@dataclass(frozen=True)
class CompactionReport:
    """What :func:`compact_corpus_dir` folded: journal records absorbed into
    fresh base snapshots, and the resulting document subdirectories."""

    directory: str
    records_folded: int
    documents: int
    subdirs: tuple[str, ...]

    def __repr__(self) -> str:
        return (
            f"<CompactionReport {self.directory!r} folded={self.records_folded} "
            f"documents={self.documents}>"
        )


def compact_corpus_dir(
    directory: str | os.PathLike[str], cache_size: int = DEFAULT_CACHE_SIZE
) -> CompactionReport:
    """Fold a corpus directory's update journal into fresh base snapshots.

    A long-lived corpus accumulates ``corpus.journal`` records (and
    orphaned snapshot subdirectories from structural replacements) that
    every ``load_dir`` must replay; compaction replays them once and
    rewrites the directory as a clean set of base snapshots with no
    journal — the cheap-bootstrap form a new shard replica loads fastest.

    A ``snapshot.bin`` the journal never touched is **copied
    byte-for-byte** instead of being re-serialised; documents with journal
    records get fresh snapshots.  Compacting a journal-free corpus is
    therefore byte-stable: every snapshot and the manifest come out
    identical.

    The compaction is **staged**: the journal-replayed corpus is saved
    into a sibling ``<dir>.compacting`` staging directory, then swapped
    into place by directory rename (old state briefly parked at
    ``<dir>.pre-compact``, removed on success).  The corpus directory is
    never rewritten in place, so no crash can produce a half-compacted
    corpus: any failure before the swap leaves the original untouched, a
    failure during the second rename restores the original from the
    backup, and a hard kill between the two renames — the one unguarded
    window — leaves the full original parked at ``<dir>.pre-compact``
    (rename it back to recover; the next compaction only clears leftovers
    when the corpus directory itself is present).  Search results before
    and after are byte-identical (``load_dir`` replay, snapshot copies and
    rewrites all preserve served bytes).
    """
    import shutil

    from repro.index.storage import BINARY_FILE, save_index, write_corpus_manifest

    path = os.path.normpath(os.fspath(directory))
    corpus, documents, records = _load_staged(Corpus, path, None, cache_size)
    touched = {record.subdir for record in records}
    touched.update(record.snapshot for record in records if record.snapshot)

    subdir_of = {name: subdir for subdir, name in documents.items()}
    staging = f"{path}.compacting"
    backup = f"{path}.pre-compact"
    for leftover in (staging, backup):
        if os.path.exists(leftover):
            shutil.rmtree(leftover)
    try:
        os.makedirs(staging)
        subdirs: list[str] = []
        entries: list[tuple[str, str]] = []
        used = {subdir.lower() for subdir in subdir_of.values() if subdir not in touched}
        for name in corpus.names():
            current = subdir_of.get(name)
            if current is not None and current not in touched:
                subdir = current
                os.makedirs(os.path.join(staging, subdir))
                shutil.copyfile(
                    os.path.join(path, subdir, BINARY_FILE),
                    os.path.join(staging, subdir, BINARY_FILE),
                )
            else:
                subdir = _subdir_for(name, used)
                save_index(corpus.system(name).index, os.path.join(staging, subdir))
            entries.append((subdir, name))
            subdirs.append(subdir)
        write_corpus_manifest(staging, corpus.algorithm, entries)
        os.rename(path, backup)
    except OSError as exc:
        raise StorageError(f"failed to compact corpus directory {path}: {exc}") from exc
    try:
        os.rename(staging, path)
    except OSError as exc:
        # Put the original back: a failed swap must not leave the corpus
        # directory missing with its content stranded in the backup.
        os.rename(backup, path)
        raise StorageError(f"failed to compact corpus directory {path}: {exc}") from exc
    shutil.rmtree(backup)
    return CompactionReport(
        directory=path,
        records_folded=len(records),
        documents=len(corpus),
        subdirs=tuple(subdirs),
    )


def _carry_serving_state(
    old_system: ExtractSystem, new_system: ExtractSystem, update
) -> tuple[int, int]:
    """Adopt every cache entry an incremental update cannot have affected,
    rebound to the new version of the document.

    The precision contract (property-tested against from-scratch
    rebuilds):

    * a cached query outcome is stale iff one of its keywords (or its
      singular form) has a changed posting list, or an edited node lies
      inside one of its result subtrees — every piece of snippet content
      (keyword matches, entity names, key values, dominant features) comes
      from inside the result subtree, so an untouched subtree renders
      byte-identically.  Every result subtree counts, whether its snippet
      has been generated yet or not: a half-generated outcome dies exactly
      when the fully generated one would;
    * a memoised root (:class:`~repro.snippet.ilist.RootStatistics`) is
      stale iff an edited node lies under it: everything it holds is
      counted inside that subtree, for any query;
    * result roots, root-memo keys and edited nodes are all ``pre`` ids,
      compared across the two versions: a text-only update preserves
      the tree's shape (the new tree adopts the old one's tables), so a
      position names the same node in both.  A structural update never
      gets here — it starts from empty caches;
    * when a re-mined entity *key attribute* moved, snippets anywhere in
      the document may name a different key — everything is dropped.

    What is kept is moved onto the new version: an artefact reaches nodes
    only through a :class:`~repro.search.results.QueryResult` or a root's
    :class:`~repro.snippet.features.FeatureStatistics`, so every result a
    kept entry reads is rebound to the new tree
    (:meth:`QueryResult.rebind <repro.search.results.QueryResult.rebind>`),
    so are the statistics of every kept root
    (:meth:`FeatureStatistics.rebind
    <repro.snippet.features.FeatureStatistics.rebind>`), which read their
    feature ids through the new version's key list from then on
    (:meth:`~repro.snippet.features.FeatureStatistics.swap_keys`), and a kept
    half-generated outcome fills its remaining slots with the new version's
    generator — its analyzer, its root memo
    (:meth:`SnippetBatch.rebind <repro.snippet.generator.SnippetBatch.rebind>`).
    Nothing kept points at the old tree any more, so the old version dies
    with the last request still reading it.

    Rebinding is in place — a copy per kept result would make every update
    allocate in proportion to the caches — and that is safe for requests
    still running on the old version, which share these objects:

    * what is read through a rebound result is the same in both versions:
      its subtree holds no edit (or the entry would not be kept), the
      shape is shared, and tags and ordinals are equal;
    * a batch swaps its results and its generator together under its
      lock, which every fill holds, so a slot is generated by the analyzer
      whose tables cover its result;
    * a kept root's statistics are read by requests of both versions
      through the same argument: no edit lies under the root.

    Returns combined (kept, dropped) counts over the result cache and the
    root memo.
    """
    if update.key_attributes_changed:
        def keep_query(key, value):
            return False

        keep_root = keep_query
    else:
        tree = new_system.index.tree
        changed = PostingList(tree.shape, update.changed_pres)
        # The new version is read by nobody yet, so its feature table, if
        # it has one, is the patched copy of the old one's.
        retired = old_system.analyzer.built_feature_table
        live = new_system.analyzer.built_feature_table

        def keep_query(key, outcome):
            # key = (tree name, keywords, algorithm, bound, limit, construction)
            if any(update.touches_keyword(keyword) for keyword in key[1]):
                return False
            if any(
                changed.has_descendant_of(result.root_node.pre)
                for result in outcome.results
            ):
                return False
            outcome.snippets.rebind(new_system.generator)
            return True

        def keep_root(pre, part):
            if changed.has_descendant_of(pre):
                return False
            part.statistics.rebind(tree)
            if live is not None:
                part.statistics.swap_keys(retired.keys, live.keys)
            return True

    kept_q, dropped_q = new_system.cache.adopt(old_system.cache, keep_query)
    kept_r, dropped_r = new_system.generator.ilist_builder.roots.adopt(
        old_system.generator.ilist_builder.roots, keep_root
    )
    return kept_q + kept_r, dropped_q + dropped_r


def _cache_entries(system: ExtractSystem) -> int:
    """What a document's caches hold: cached outcomes plus memoised roots."""
    return len(system.cache) + len(system.generator.ilist_builder.roots)


def _subdir_for(name: str, used: set[str]) -> str:
    """A filesystem-safe, collision-free subdirectory name for a document,
    reserved in ``used`` (lower-cased names).

    Collisions are detected case-insensitively so that documents whose
    names differ only by case ("Doc" vs "doc") get distinct directories on
    case-insensitive filesystems (macOS/Windows defaults) instead of
    silently overwriting each other's snapshots.
    """
    base = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("._") or "document"
    candidate = base
    counter = 1
    while candidate.lower() in used:
        counter += 1
        candidate = f"{base}-{counter}"
    used.add(candidate.lower())
    return candidate
