"""On-disk persistence for document indexes and corpus update journals.

The original eXtract demo precomputed its indexes on the server so queries
over the web UI were fast.  This module is the one way to put a
:class:`DocumentIndex` on disk and get it back: :func:`save_index` writes
the binary ``snapshot.bin`` of :mod:`repro.index.binfmt` (format version
4) and nothing else; :func:`load_index` reads it, and also still reads the
version 3 *text* snapshots older builds wrote, as a **read-only migration
input** — re-save the corpus or run ``corpus-compact`` to upgrade a
directory.  :class:`repro.corpus.Corpus` builds on both to round-trip
whole multi-document corpora (``save_dir``/``load_dir``).

The version 3 text format this module reads (``inverted.idx``, UTF-8)::

    #extract-index v3
    #document <name>
    #nodes <count>
    #summary entity=<n> attribute=<n> connection=<n>
    #counts terms=<n> paths=<n>
    T <term> <label> <label> ...
    P <tag-path joined by '/'> <label> <label> ...
    #end

The ``#counts`` header and the ``#end`` sentinel let a truncated file (a
killed writer, a partial copy) be detected *before* any posting list is
trusted.  The tree is stored alongside as regular XML (``document.xml``).
On load the document is re-parsed and re-analyzed, then *validated section
by section* against the stored artefact: node count, analyzer summary,
structure paths and vocabulary must all agree, guarding against a
document/index mismatch on disk.  The stored posting lists are
authoritative for the loaded index.  Versions 1 and 2 lacked the
truncation guards and are rejected by name.

This module also owns the **corpus-level persistence**: the
``corpus.manifest`` written by :meth:`Corpus.save_dir` and the
**append-only update journal** (``corpus.journal``) the ``corpus-update``
CLI appends to.  Journal records describe document-lifecycle operations —
inline text deltas for incremental updates, references to freshly written
snapshot subdirectories for structural replacements and additions, and
removals — and :meth:`Corpus.load_dir` replays them over the base
snapshots through the same incremental machinery the live corpus uses, so
a reloaded corpus is byte-identical to the corpus the updates were
originally applied to.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.errors import ExtractError, StorageError
from repro.index.binfmt import (
    BINARY_FILE,
    BINARY_FORMAT_VERSION,
    load_binary_index,
    write_binary_index,
)
from repro.index.builder import DocumentIndex, IndexBuilder
from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingList
from repro.xmltree.dewey import Dewey
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.tree import XMLTree

#: the one version of the plain-text snapshot format this module still reads
TEXT_FORMAT_VERSION = 3

_MAGIC_V3 = f"#extract-index v{TEXT_FORMAT_VERSION}"

#: file names inside a text snapshot directory
DOCUMENT_FILE = "document.xml"
INDEX_FILE = "inverted.idx"

#: corpus-level files (written next to the per-document subdirectories)
MANIFEST_FILE = "corpus.manifest"
JOURNAL_FILE = "corpus.journal"
MANIFEST_FORMAT_VERSION = 1
JOURNAL_FORMAT_VERSION = 1
_MANIFEST_MAGIC = f"#extract-corpus v{MANIFEST_FORMAT_VERSION}"
_JOURNAL_MAGIC = f"#extract-corpus-journal v{JOURNAL_FORMAT_VERSION}"

_PATH_SEPARATOR = "/"
_END_SENTINEL = "#end"


def save_index(
    index: DocumentIndex,
    directory: str | os.PathLike[str],
    format_version: int = BINARY_FORMAT_VERSION,
) -> None:
    """Persist ``index`` (document + inverted + structure + analyzer state,
    DTD included) into ``directory`` as ``snapshot.bin``.

    A text snapshot already in ``directory`` is removed once the new file
    is complete: re-saving over a version 3 directory is the upgrade path,
    and nothing stale may outlive the fresh snapshot.

    ``format_version`` is a one-valued assertion kept for
    ``benchmarks/e2e`` (which passes ``4``); any other value is a
    :class:`StorageError`.
    """
    if format_version != BINARY_FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format version {format_version}; this build "
            f"writes version {BINARY_FORMAT_VERSION} only"
        )
    write_binary_index(index, directory)
    path = os.fspath(directory)
    try:
        for stale in (DOCUMENT_FILE, INDEX_FILE):
            stale_path = os.path.join(path, stale)
            if os.path.exists(stale_path):
                os.remove(stale_path)
    except OSError as exc:
        raise StorageError(f"failed to remove the text snapshot in {path}: {exc}") from exc


def load_index(directory: str | os.PathLike[str], lazy: bool = True) -> DocumentIndex:
    """Load a :class:`DocumentIndex` from a snapshot directory.

    The snapshot format is detected from the directory contents: a
    ``snapshot.bin`` is loaded through :mod:`repro.index.binfmt` (mmap'd,
    with posting lists materialised lazily unless ``lazy=False``); a
    version 3 text snapshot takes the validate-and-replace path below.

    For the text format, the XML document is re-parsed and re-analyzed;
    every stored section is validated against the freshly built index
    (node count, analyzer summary, structure paths, vocabulary) and the
    stored posting lists then replace the rebuilt ones — they are
    authoritative for the artefact on disk, and queries over the loaded
    index are byte-identical to queries over the index that was saved.
    The text format never stored a DTD: a document whose DTD changed the
    classification fails the summary check instead of silently loading
    with different semantics.
    """
    path = os.fspath(directory)
    if os.path.exists(os.path.join(path, BINARY_FILE)):
        return load_binary_index(path, lazy=lazy)
    document_path = os.path.join(path, DOCUMENT_FILE)
    index_path = os.path.join(path, INDEX_FILE)
    if not os.path.exists(document_path) or not os.path.exists(index_path):
        raise StorageError(f"{path} does not contain a saved eXtract index")

    try:
        parse_result = parse_xml_file(document_path)
    except OSError as exc:
        raise StorageError(f"failed to read stored document: {exc}") from exc

    snapshot = _read_snapshot(index_path, parse_result.tree)

    if snapshot.document_name:
        # The file on disk is always called document.xml; the logical name
        # lives in the snapshot header and must survive the round trip
        # (cache keys and corpus registration key on it).
        parse_result.tree.name = snapshot.document_name

    index = IndexBuilder().build(parse_result.tree)
    if snapshot.nodes is not None and snapshot.nodes != parse_result.tree.size_nodes:
        raise StorageError(
            f"stored index covers {snapshot.nodes} nodes but the stored document has "
            f"{parse_result.tree.size_nodes}; the artefacts are out of sync"
        )
    if snapshot.summary is not None:
        rebuilt_summary = index.analyzer.summary()
        if rebuilt_summary != snapshot.summary:
            raise StorageError(
                f"stored analyzer summary {snapshot.summary} does not match the "
                f"re-analysis {rebuilt_summary}; the index was likely built with a "
                "DTD that is not part of the snapshot"
            )
    if snapshot.structure_paths is not None:
        rebuilt_structure = {
            _PATH_SEPARATOR.join(tag_path): index.structure.instances_of_path(tag_path)
            for tag_path in index.structure.known_paths
        }
        if set(rebuilt_structure) != set(snapshot.structure_paths):
            raise StorageError(
                "stored structure index paths do not match the stored document; "
                "refusing to load inconsistent index"
            )
        for path_text, stored in snapshot.structure_paths.items():
            if stored != rebuilt_structure[path_text]:
                raise StorageError(
                    f"stored structure postings for path {path_text!r} do not match the "
                    "stored document; refusing to load inconsistent index"
                )
    if snapshot.postings:
        stored_terms = set(snapshot.postings)
        rebuilt_vocabulary = set(index.inverted.vocabulary)
        if stored_terms != rebuilt_vocabulary:
            drifted = sorted(stored_terms ^ rebuilt_vocabulary)[:5]
            raise StorageError(
                f"stored inverted index vocabulary does not match the stored document "
                f"(e.g. {', '.join(drifted)}); refusing to load inconsistent index"
            )
    if snapshot.postings:
        index.inverted = InvertedIndex.from_postings(index.tree.shape, snapshot.postings)
    return index


class _Snapshot:
    """Parsed content of one ``inverted.idx`` file."""

    def __init__(self) -> None:
        self.document_name: str | None = None
        self.nodes: int | None = None
        self.summary: dict[str, int] | None = None
        self.postings: dict[str, PostingList] = {}
        self.structure_paths: dict[str, PostingList] | None = None
        self.counts: dict[str, int] | None = None
        self.end_seen = False


def _read_snapshot(index_path: str, tree: XMLTree) -> _Snapshot:
    """Parse ``inverted.idx``; its Dewey label texts become ``pre`` ids of
    ``tree`` (the stored document) here and nowhere else."""
    snapshot = _Snapshot()
    try:
        with open(index_path, "r", encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
            if first != _MAGIC_V3:
                # names the version of a v1/v2 file: it is in the header
                raise StorageError(
                    f"unsupported index file header {first!r} in {index_path}; "
                    f"the only text snapshot this build reads is {_MAGIC_V3!r}"
                )
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line == _END_SENTINEL:
                    # The sentinel *terminates* the snapshot: anything after
                    # it (a concatenated fragment, stray bytes) must not be
                    # able to override the already-read header sections.
                    snapshot.end_seen = True
                    break
                if line.startswith("#document "):
                    snapshot.document_name = line.partition(" ")[2]
                    continue
                if line.startswith("#nodes "):
                    try:
                        snapshot.nodes = int(line.split(" ", 1)[1])
                    except ValueError as exc:
                        raise StorageError(f"malformed #nodes line: {line!r}") from exc
                    continue
                if line.startswith("#summary "):
                    snapshot.summary = _parse_summary(line)
                    continue
                if line.startswith("#counts "):
                    snapshot.counts = _parse_counts(line)
                    continue
                if line.startswith("#"):
                    continue
                kind, _, rest = line.partition(" ")
                name, _, labels_text = rest.partition(" ")
                if kind == "T":
                    snapshot.postings[name] = _stored_postings(labels_text, tree, name)
                elif kind == "P":
                    if snapshot.structure_paths is None:
                        snapshot.structure_paths = {}
                    snapshot.structure_paths[name] = _stored_postings(labels_text, tree, name)
    except OSError as exc:
        raise StorageError(f"failed to read stored index: {exc}") from exc
    _check_snapshot_complete(snapshot, index_path)
    return snapshot


def _stored_postings(labels_text: str, tree: XMLTree, name: str) -> PostingList:
    try:
        return PostingList.from_labels(map(Dewey.parse, labels_text.split()), tree)
    except ExtractError as exc:
        raise StorageError(
            f"stored postings for {name!r} do not fit the stored document: {exc}"
        ) from exc


def _check_snapshot_complete(snapshot: _Snapshot, index_path: str) -> None:
    """Reject truncated v3 snapshots before any section is trusted."""
    if not snapshot.end_seen:
        raise StorageError(
            f"stored index {index_path} is truncated: missing the {_END_SENTINEL!r} sentinel"
        )
    if snapshot.counts is None:
        raise StorageError(f"stored index {index_path} is missing its #counts section")
    stored_paths = len(snapshot.structure_paths or {})
    if snapshot.counts.get("terms") != len(snapshot.postings) or snapshot.counts.get(
        "paths"
    ) != stored_paths:
        raise StorageError(
            f"stored index {index_path} is truncated: #counts declares "
            f"{snapshot.counts.get('terms')} terms / {snapshot.counts.get('paths')} paths "
            f"but {len(snapshot.postings)} / {stored_paths} were read"
        )


def _parse_counts(line: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for piece in line.split(" ")[1:]:
        key, _, value = piece.partition("=")
        try:
            counts[key] = int(value)
        except ValueError as exc:
            raise StorageError(f"malformed #counts line: {line!r}") from exc
    return counts


def _parse_summary(line: str) -> dict[str, int]:
    summary: dict[str, int] = {}
    for piece in line.split(" ")[1:]:
        key, _, value = piece.partition("=")
        try:
            summary[key] = int(value)
        except ValueError as exc:
            raise StorageError(f"malformed #summary line: {line!r}") from exc
    return summary


# ---------------------------------------------------------------------- #
# corpus manifest
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CorpusManifest:
    """The parsed ``corpus.manifest``: algorithm plus (subdir, name) pairs."""

    algorithm: str
    entries: tuple[tuple[str, str], ...]


def write_corpus_manifest(
    directory: str | os.PathLike[str],
    algorithm: str,
    entries: list[tuple[str, str]],
) -> None:
    """Write the corpus manifest mapping snapshot subdirectories to names."""
    path = os.fspath(directory)
    manifest_path = os.path.join(path, MANIFEST_FILE)
    lines = [_MANIFEST_MAGIC, f"#algorithm {algorithm}"]
    lines.extend(f"entry {subdir} {name}" for subdir, name in entries)
    try:
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise StorageError(f"failed to write corpus manifest {manifest_path}: {exc}") from exc


def read_corpus_manifest(directory: str | os.PathLike[str]) -> CorpusManifest:
    """Parse the corpus manifest written by :func:`write_corpus_manifest`."""
    path = os.fspath(directory)
    manifest_path = os.path.join(path, MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        raise StorageError(f"{path} does not contain a saved eXtract corpus")
    algorithm = "slca"
    entries: list[tuple[str, str]] = []
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
            if first != _MANIFEST_MAGIC:
                raise StorageError(f"unrecognised corpus manifest header: {first!r}")
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#algorithm "):
                    algorithm = line.partition(" ")[2]
                    continue
                if line.startswith("#"):
                    continue
                kind, _, rest = line.partition(" ")
                if kind != "entry":
                    continue
                subdir, _, name = rest.partition(" ")
                entries.append((subdir, name or subdir))
    except OSError as exc:
        raise StorageError(f"failed to read corpus manifest {manifest_path}: {exc}") from exc
    return CorpusManifest(algorithm=algorithm, entries=tuple(entries))


# ---------------------------------------------------------------------- #
# the append-only update journal
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class JournalRecord:
    """One document-lifecycle operation in the corpus update journal.

    ``kind`` is one of:

    * ``update`` — text-only edit of the document in ``subdir``; ``edits``
      holds ``(dewey label text, new text)`` pairs applied through the
      incremental-update path on replay;
    * ``replace`` — structural edit: the document in ``subdir`` is now the
      full snapshot stored in the ``snapshot`` subdirectory;
    * ``add`` — a new document, stored as a full snapshot in ``subdir``
      and registered under ``name``;
    * ``remove`` — the document in ``subdir`` was unregistered.
    """

    kind: str
    subdir: str
    name: str | None = None
    snapshot: str | None = None
    edits: tuple[tuple[str, str], ...] = ()


def append_journal_record(
    directory: str | os.PathLike[str], record: JournalRecord
) -> None:
    """Append one record to the corpus update journal (created on first use).

    The journal is strictly append-only: full snapshots stay immutable
    between ``corpus-save`` runs, and every mutation since the last full
    snapshot is replayable in order.
    """
    path = os.fspath(directory)
    journal_path = os.path.join(path, JOURNAL_FILE)
    lines: list[str] = []
    if not os.path.exists(journal_path):
        lines.append(_JOURNAL_MAGIC)
    if record.kind == "update":
        lines.append(f"update {record.subdir} {len(record.edits)}")
        for label_text, new_text in record.edits:
            # JSON string encoding keeps arbitrary text (spaces, newlines,
            # unicode) on one parseable line.
            lines.append(f"t {label_text} {json.dumps(new_text)}")
    elif record.kind == "replace":
        if not record.snapshot:
            raise StorageError("a 'replace' journal record needs a snapshot subdirectory")
        lines.append(f"replace {record.subdir} {record.snapshot}")
    elif record.kind == "add":
        if not record.name:
            raise StorageError("an 'add' journal record needs a document name")
        lines.append(f"add {record.subdir} {record.name}")
    elif record.kind == "remove":
        lines.append(f"remove {record.subdir}")
    else:
        raise StorageError(f"unknown journal record kind {record.kind!r}")
    try:
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise StorageError(f"failed to append to update journal {journal_path}: {exc}") from exc


def read_corpus_journal(directory: str | os.PathLike[str]) -> list[JournalRecord]:
    """Parse the update journal; an absent journal is an empty history.

    Truncated or malformed journals raise :class:`StorageError` — replaying
    half an update would silently desynchronise the corpus from the one the
    journal was recorded against.
    """
    path = os.fspath(directory)
    journal_path = os.path.join(path, JOURNAL_FILE)
    if not os.path.exists(journal_path):
        return []
    try:
        with open(journal_path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
    except OSError as exc:
        raise StorageError(f"failed to read update journal {journal_path}: {exc}") from exc
    if not lines or lines[0] != _JOURNAL_MAGIC:
        raise StorageError(
            f"unrecognised update journal header in {journal_path}: "
            f"{lines[0]!r}" if lines else f"empty update journal {journal_path}"
        )
    records: list[JournalRecord] = []
    position = 1
    while position < len(lines):
        line = lines[position]
        position += 1
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "update":
            subdir, _, count_text = rest.partition(" ")
            try:
                count = int(count_text)
            except ValueError as exc:
                raise StorageError(f"malformed journal update header: {line!r}") from exc
            edits: list[tuple[str, str]] = []
            for _ in range(count):
                if position >= len(lines):
                    raise StorageError(
                        f"truncated update journal {journal_path}: update record for "
                        f"{subdir!r} declares {count} edits but the file ends after "
                        f"{len(edits)}"
                    )
                edit_line = lines[position]
                position += 1
                marker, _, payload = edit_line.partition(" ")
                label_text, _, encoded = payload.partition(" ")
                if marker != "t" or not encoded:
                    raise StorageError(f"malformed journal edit line: {edit_line!r}")
                try:
                    new_text = json.loads(encoded)
                except ValueError as exc:
                    raise StorageError(f"malformed journal edit line: {edit_line!r}") from exc
                if not isinstance(new_text, str):
                    raise StorageError(f"malformed journal edit line: {edit_line!r}")
                edits.append((label_text, new_text))
            records.append(JournalRecord(kind="update", subdir=subdir, edits=tuple(edits)))
        elif kind == "replace":
            subdir, _, snapshot = rest.partition(" ")
            if not subdir or not snapshot:
                raise StorageError(f"malformed journal replace record: {line!r}")
            records.append(JournalRecord(kind="replace", subdir=subdir, snapshot=snapshot))
        elif kind == "add":
            subdir, _, name = rest.partition(" ")
            if not subdir or not name:
                raise StorageError(f"malformed journal add record: {line!r}")
            records.append(JournalRecord(kind="add", subdir=subdir, name=name))
        elif kind == "remove":
            if not rest:
                raise StorageError(f"malformed journal remove record: {line!r}")
            records.append(JournalRecord(kind="remove", subdir=rest))
        else:
            raise StorageError(f"unknown journal record kind in line: {line!r}")
    return records


def discard_corpus_journal(directory: str | os.PathLike[str]) -> bool:
    """Delete the update journal (after a full snapshot superseded it)."""
    journal_path = os.path.join(os.fspath(directory), JOURNAL_FILE)
    if not os.path.exists(journal_path):
        return False
    try:
        os.remove(journal_path)
    except OSError as exc:
        raise StorageError(f"failed to discard update journal {journal_path}: {exc}") from exc
    return True


def directory_documents(directory: str | os.PathLike[str]) -> dict[str, str]:
    """The subdir → document-name mapping after journal bookkeeping.

    Pure bookkeeping (no index is loaded): the manifest entries with every
    journal record's add/remove/replace applied.  The ``corpus-update`` CLI
    uses it to resolve which snapshot subdirectory currently backs a name.
    """
    manifest = read_corpus_manifest(directory)
    mapping: dict[str, str] = dict(manifest.entries)
    for record in read_corpus_journal(directory):
        if record.kind == "add":
            if record.subdir in mapping:
                raise StorageError(
                    f"update journal adds duplicate document directory {record.subdir!r}"
                )
            mapping[record.subdir] = record.name or record.subdir
        elif record.kind == "remove":
            if record.subdir not in mapping:
                raise StorageError(
                    f"update journal references unknown document directory {record.subdir!r}"
                )
            del mapping[record.subdir]
        elif record.kind == "replace":
            if record.subdir not in mapping:
                raise StorageError(
                    f"update journal references unknown document directory {record.subdir!r}"
                )
            mapping[record.snapshot or record.subdir] = mapping.pop(record.subdir)
        elif record.kind == "update":
            if record.subdir not in mapping:
                raise StorageError(
                    f"update journal references unknown document directory {record.subdir!r}"
                )
    return mapping
