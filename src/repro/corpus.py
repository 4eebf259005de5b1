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
  any append-only update journal left by ``corpus-update``.
* **Re-registration** — ``add_*(..., replace=True)`` swaps a document in
  place and explicitly invalidates its result/snippet caches.
* **Incremental updates** — :meth:`Corpus.update_document` diffs the new
  version against the registered index and applies posting-level deltas
  (:mod:`repro.index.incremental`) instead of rebuilding, invalidating
  only the cache entries and memoised postings the edit can actually
  affect; :meth:`Corpus.remove_document` completes the document lifecycle.
* **Shared posting lookups** — each entry memoises its keyword → posting
  list lookups (:meth:`Corpus.shared_postings`), so a batch looks every
  distinct keyword up at most once per document.
"""

from __future__ import annotations

import os
import re
import threading
from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import (
    DatasetError,
    DeweyError,
    ExtractError,
    StorageError,
    UnknownDocumentError,
)
from repro.index.postings import PostingList
from repro.system import ExtractSystem, SearchOutcome
from repro.utils.cache import DEFAULT_CACHE_SIZE, LRUCache
from repro.xmltree.diff import TextEdit, apply_text_edits, diff_trees
from repro.xmltree.tree import XMLTree

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
    """One registered document and its ready-to-query system.

    The entry also owns the document's batch-level shared-postings memo
    (:attr:`postings`): binding the memo to the entry means a replaced or
    removed document's memo dies with its entry — stale postings can never
    be paired with a different index, even under concurrent swaps.
    """

    name: str
    system: ExtractSystem

    def __post_init__(self) -> None:
        self.postings = _SharedPostings(self.system.index)

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
    it was not.  ``text_edits`` carries the applied edits so persistence
    (the ``corpus-update`` CLI) can journal exactly what happened.
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
    cache_entries_kept: int = 0
    cache_entries_invalidated: int = 0
    structural_reason: str | None = None
    text_edits: tuple[TextEdit, ...] = ()

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
        entry = CorpusEntry(name=name, system=system)
        # Atomic swap: concurrent requests either see the old entry (with
        # its own index-bound postings memo) or the new one — never a
        # window where the name is unregistered, and never old/new state
        # mixed (system and memo travel together on the entry).
        with self._serving_lock:
            old = self._entries.get(name)
            if old is not None and not replace:
                raise ExtractError(
                    f"a document named {name!r} is already registered "
                    "(pass replace=True to swap it and invalidate its caches)"
                )
            self._entries[name] = entry
        if old is not None:
            # Explicit invalidation on re-registration: outstanding
            # references to the old system must not keep serving results
            # for a document that was just swapped out.
            old.system.invalidate_cache()
        return entry

    def remove(self, name: str) -> None:
        """Unregister a document (no-op error if absent); its caches are
        invalidated and its batch-level memoised postings die with the
        entry, so stale outcomes cannot be served — even if the name is
        later re-registered."""
        with self._serving_lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                raise UnknownDocumentError(f"no document named {name!r} in the corpus")
        entry.system.invalidate_cache()

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
          entry *adopts* every result/snippet cache entry and memoised
          posting lookup the edit provably cannot affect (only entries
          whose keywords hit a changed term, whose result subtree contains
          an edited node, or — when a re-mined entity key moved — all
          snippet-bearing state are invalidated);
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
                    cache_entries_kept=(
                        len(old_system.cache) + len(old_system.generator.cache)
                    ),
                )
            if diff.is_text_only:
                update = apply_text_update(old_index, tree, diff)
                new_system = ExtractSystem(
                    update.index, algorithm=self.algorithm, cache_size=self.cache_size
                )
                new_entry = CorpusEntry(name=name, system=new_system)
                kept, dropped = _carry_serving_state(old_entry, new_entry, update)
                self._swap_entry(name, old_entry, new_entry)
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
            dropped = len(old_system.cache) + len(old_system.generator.cache)
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
        counterpart of :meth:`update_document`; :meth:`remove` remains as
        the report-less original)."""
        with self._update_lock:
            entry = self.entry(name)
            dropped = len(entry.system.cache) + len(entry.system.generator.cache)
            self.remove(name)
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

    def _swap_entry(self, name: str, old_entry: CorpusEntry, new_entry: CorpusEntry) -> None:
        """Atomically publish ``new_entry``, verifying the base is current."""
        with self._serving_lock:
            if self._entries.get(name) is not old_entry:
                raise ExtractError(
                    f"document {name!r} was concurrently replaced or removed "
                    "while an update was being prepared; re-read and retry"
                )
            self._entries[name] = new_entry

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

    def shared_postings(self, name: str) -> "_SharedPostings":
        """The memoised keyword → posting-list mapping of one document.

        At most one posting lookup per (document, distinct keyword) across
        *all* queries and batches served from this corpus.  The memo lives
        on the :class:`CorpusEntry` (always paired with the index it was
        built from), so replacing or removing the document retires it
        atomically with the entry.
        """
        return self.entry(name).postings

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
            used.add(subdir.lower())
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
        from repro.index.storage import (
            load_index,
            read_corpus_journal,
            read_corpus_manifest,
        )

        path = os.fspath(directory)
        manifest = read_corpus_manifest(path)
        journal = read_corpus_journal(path)

        staged = cls(algorithm=algorithm or manifest.algorithm, cache_size=cache_size)
        names_by_subdir: dict[str, str] = {}
        for subdir, name in manifest.entries:
            # The registry name comes from the manifest; the tree keeps the
            # document name restored by load_index, so ResultSet.document_name
            # (and cache keys) are identical before and after the round trip
            # even when a document was registered under a different name.
            index = load_index(os.path.join(path, subdir))
            staged._register(
                name,
                ExtractSystem(index, algorithm=staged.algorithm, cache_size=cache_size),
            )
            names_by_subdir[subdir] = name
        staged._replay_journal(path, journal, names_by_subdir)
        return staged

    def _replay_journal(
        self,
        path: str,
        records: list,
        names_by_subdir: dict[str, str],
    ) -> None:
        """Apply journal records to a freshly staged corpus, in order.

        Text-only updates flow through :meth:`update_document`, so a
        replayed corpus is byte-identical to the corpus the updates were
        originally applied to.  Any inconsistency (unknown document
        directory, missing node, duplicate add) is a :class:`StorageError`.
        """
        from repro.index.storage import load_index

        def resolve(subdir: str) -> str:
            name = names_by_subdir.get(subdir)
            if name is None:
                raise StorageError(
                    f"update journal references unknown document directory {subdir!r}"
                )
            return name

        for record in records:
            try:
                if record.kind == "add":
                    if record.subdir in names_by_subdir:
                        raise StorageError(
                            f"update journal adds duplicate document directory {record.subdir!r}"
                        )
                    index = load_index(os.path.join(path, record.subdir))
                    self._register(
                        record.name,
                        ExtractSystem(
                            index, algorithm=self.algorithm, cache_size=self.cache_size
                        ),
                    )
                    names_by_subdir[record.subdir] = record.name
                elif record.kind == "remove":
                    name = resolve(record.subdir)
                    self.remove(name)
                    del names_by_subdir[record.subdir]
                elif record.kind == "replace":
                    name = resolve(record.subdir)
                    index = load_index(os.path.join(path, record.snapshot))
                    self._register(
                        name,
                        ExtractSystem(
                            index, algorithm=self.algorithm, cache_size=self.cache_size
                        ),
                        replace=True,
                    )
                    del names_by_subdir[record.subdir]
                    names_by_subdir[record.snapshot] = name
                elif record.kind == "update":
                    name = resolve(record.subdir)
                    tree = self.system(name).index.tree
                    try:
                        edited = apply_text_edits(tree, record.edits)
                    except DeweyError:
                        raise  # a malformed label is reported as it is spelled
                    except ExtractError as exc:
                        raise StorageError(
                            f"update journal references {exc} in document {name!r}"
                        ) from exc
                    self.update_document(name, edited)
                else:
                    raise StorageError(
                        f"unknown update journal record kind {record.kind!r}"
                    )
            except StorageError:
                raise
            except ExtractError as exc:
                raise StorageError(
                    f"replaying journal record {record.kind!r} for directory "
                    f"{record.subdir!r} failed: {exc}"
                ) from exc

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
    records, and base snapshots still in the read-only version 3 text
    format, get fresh snapshots.  Compaction is therefore the whole
    migration story for a text corpus, and compacting a journal-free
    binary corpus is byte-stable: every snapshot and the manifest come out
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
    binary rewrites all preserve served bytes).
    """
    import shutil

    from repro.index.storage import (
        BINARY_FILE,
        directory_documents,
        read_corpus_journal,
        save_index,
        write_corpus_manifest,
    )

    path = os.path.normpath(os.fspath(directory))
    records = read_corpus_journal(path)
    corpus = Corpus.load_dir(path, cache_size=cache_size)
    touched: set[str] = set()
    for record in records:
        touched.add(record.subdir)
        if record.snapshot:
            touched.add(record.snapshot)

    def keeps(subdir: str) -> bool:
        """An untouched binary snapshot is copied; anything else is rewritten."""
        return subdir not in touched and os.path.exists(
            os.path.join(path, subdir, BINARY_FILE)
        )

    subdir_of = {name: subdir for subdir, name in directory_documents(path).items()}
    staging = f"{path}.compacting"
    backup = f"{path}.pre-compact"
    for leftover in (staging, backup):
        if os.path.exists(leftover):
            shutil.rmtree(leftover)
    try:
        os.makedirs(staging)
        subdirs: list[str] = []
        entries: list[tuple[str, str]] = []
        used = {subdir.lower() for subdir in subdir_of.values() if keeps(subdir)}
        for name in corpus.names():
            current = subdir_of.get(name)
            if current is not None and keeps(current):
                subdir = current
                os.makedirs(os.path.join(staging, subdir))
                shutil.copyfile(
                    os.path.join(path, subdir, BINARY_FILE),
                    os.path.join(staging, subdir, BINARY_FILE),
                )
            else:
                subdir = _subdir_for(name, used)
                used.add(subdir.lower())
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


#: per-document cap on memoised keyword lookups; large enough that every
#: hot vocabulary fits, small enough that a stream of never-repeated
#: keywords (typos, adversarial queries) cannot grow a long-lived service
#: without bound.
SHARED_POSTINGS_MAXSIZE = 4096


class _SharedPostings:
    """A lazily-memoising keyword → posting-list mapping for one document.

    ``SearchEngine.search`` pulls posting lists via :meth:`get`; the first
    query of a batch that needs a keyword performs the index lookup, every
    later query reuses it.  Queries answered from the result cache never
    call :meth:`get`, so warm batches do no lookups.

    The memo is a bounded :class:`~repro.utils.cache.LRUCache`: unlike the
    one-batch memos of PR 1 it lives as long as its document entry, and an
    unbounded dict would grow with every distinct keyword ever queried —
    LRU eviction keeps the hot vocabulary resident while a stream of
    never-repeated keywords cycles through the tail.  The outer lock makes
    the lookup-compute-store step atomic, so concurrent executors never
    perform duplicate index work.
    """

    __slots__ = ("_index", "_cache", "_lock")

    def __init__(self, index, maxsize: int = SHARED_POSTINGS_MAXSIZE) -> None:
        self._index = index
        self._cache = LRUCache(maxsize)
        self._lock = threading.Lock()

    def get(self, keyword: str, default=None):
        with self._lock:
            postings = self._cache.get(keyword)
            if postings is None:
                postings = self._index.keyword_matches(keyword)
                self._cache.put(keyword, postings)
            return postings

    def adopt(self, source: "_SharedPostings", keep) -> tuple[int, int]:
        """Carry over the memoised lookups of a replaced entry's memo.

        ``keep(keyword)`` decides survival; for keywords an incremental
        update did not touch, the memoised :class:`PostingList` is the very
        object the new index shares with the old one, so re-looking it up
        would be pure waste.  Returns ``(kept, dropped)``.
        """
        with self._lock:
            return self._cache.adopt(source._cache, lambda keyword, _postings: keep(keyword))

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._cache


def _carry_serving_state(
    old_entry: CorpusEntry, new_entry: CorpusEntry, update
) -> tuple[int, int]:
    """Adopt every cache entry an incremental update cannot have affected.

    The precision contract (property-tested against from-scratch
    rebuilds):

    * a cached query outcome is stale iff one of its keywords (or its
      singular form) has a changed posting list, or an edited node lies
      inside one of its result subtrees — every piece of snippet content
      (keyword matches, entity names, key values, dominant features) comes
      from inside the result subtree, so an untouched subtree renders
      byte-identically.  Every result subtree counts, whether its snippet
      has been generated yet or not: a half-generated outcome dies exactly
      when the fully generated one would.  A kept outcome generates its
      remaining snippets with the analyzer its results belong to (they pin
      that tree already; for the new version's analyzer their nodes are
      foreign), through the new version's snippet cache;
    * a cached snippet is stale iff an edited node lies under its result
      root;
    * result roots, snippet-cache keys and edited nodes are all ``pre``
      ids, compared across the two versions: a text-only update preserves
      the tree's shape (the new tree adopts the old one's tables), so a
      position names the same node in both.  A structural update never
      gets here — it starts from empty caches;
    * a memoised posting lookup is stale iff its keyword has a changed
      posting list;
    * when a re-mined entity *key attribute* moved, snippets anywhere in
      the document may name a different key — everything is dropped.

    Returns combined (kept, dropped) counts over the two result caches.
    """
    old_system = old_entry.system
    new_system = new_entry.system
    if update.key_attributes_changed:
        def keep_query(key, value):
            return False

        keep_snippet = keep_query

        def keep_keyword(keyword):
            return False
    else:
        changed = PostingList(new_system.index.tree.shape, update.changed_pres)

        def keep_query(key, value):
            # key = (tree name, kind, keywords, algorithm, bound, limit, construction)
            keywords = key[2]
            if any(update.touches_keyword(keyword) for keyword in keywords):
                return False
            results = value.results if isinstance(value, SearchOutcome) else value
            if any(changed.has_descendant_of(result.root_node.pre) for result in results):
                return False
            if isinstance(value, SearchOutcome):
                # what it has yet to generate goes through the live cache
                value.snippets.serve_from(new_system.generator.cache)
            return True

        def keep_snippet(key, value):
            # key = (tree name, pre of the result root, keywords, bound)
            return not changed.has_descendant_of(key[1])

        def keep_keyword(keyword):
            return not update.touches_keyword(keyword)

    kept_q, dropped_q = new_system.cache.adopt(old_system.cache, keep_query)
    kept_s, dropped_s = new_system.generator.cache.adopt(
        old_system.generator.cache, keep_snippet
    )
    new_entry.postings.adopt(old_entry.postings, keep_keyword)
    return kept_q + kept_s, dropped_q + dropped_s


def _subdir_for(name: str, used: set[str]) -> str:
    """A filesystem-safe, collision-free subdirectory name for a document.

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
    return candidate
