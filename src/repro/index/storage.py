"""On-disk persistence for document indexes and corpus update journals.

The original eXtract demo precomputed its indexes on the server so queries
over the web UI were fast.  This module is the one way to put a
:class:`DocumentIndex` on disk and get it back: :func:`save_index` writes
the binary ``snapshot.bin`` of :mod:`repro.index.binfmt` (format version
4) and nothing else, and :func:`load_index` reads it.  A directory that
holds a text snapshot of an older build (``document.xml`` +
``inverted.idx``) is rejected with a :class:`StorageError` naming the last
commit whose ``corpus-compact`` rewrites it.  :class:`repro.corpus.Corpus`
builds on both to round-trip whole multi-document corpora
(``save_dir``/``load_dir``).

This module also owns the **corpus-level persistence**: the
``corpus.manifest`` written by :meth:`Corpus.save_dir` and the
**append-only update journal** (``corpus.journal``) that
:func:`repro.corpus.journal_update`, its one writer, appends to.  Journal
records describe document-lifecycle operations — inline text deltas for
incremental updates, references to freshly written snapshot
subdirectories for structural replacements and additions, and removals.
:func:`resolve_journal` is the one interpreter of a journal: both
:func:`directory_documents` and :meth:`Corpus.load_dir` walk it, and the
load replays each record over the base snapshots through the same
incremental machinery the live corpus uses, so a reloaded corpus is
byte-identical to the corpus the updates were originally applied to.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import StorageError
from repro.index.binfmt import (
    BINARY_FILE,
    BINARY_FORMAT_VERSION,
    load_binary_index,
    write_binary_index,
)
from repro.index.builder import DocumentIndex

#: the index file of the text snapshots builds before format version 4
#: wrote, and the last commit whose loader reads them
_TEXT_INDEX_FILE = "inverted.idx"
_LAST_TEXT_READER = "356af2d"

#: corpus-level files (written next to the per-document subdirectories)
MANIFEST_FILE = "corpus.manifest"
JOURNAL_FILE = "corpus.journal"
MANIFEST_FORMAT_VERSION = 1
JOURNAL_FORMAT_VERSION = 1
_MANIFEST_MAGIC = f"#extract-corpus v{MANIFEST_FORMAT_VERSION}"
_JOURNAL_MAGIC = f"#extract-corpus-journal v{JOURNAL_FORMAT_VERSION}"


def save_index(
    index: DocumentIndex,
    directory: str | os.PathLike[str],
    format_version: int = BINARY_FORMAT_VERSION,
) -> None:
    """Persist ``index`` (document + inverted + structure + analyzer state,
    DTD included) into ``directory`` as ``snapshot.bin``.

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


def load_index(directory: str | os.PathLike[str]) -> DocumentIndex:
    """Load a :class:`DocumentIndex` from the ``snapshot.bin`` in ``directory``
    (read whole, every posting list decoded and checked before it returns).

    A text snapshot (``inverted.idx``, written by builds before format
    version 4) is a :class:`StorageError` that names the last build which
    reads it; a text file beside a ``snapshot.bin`` is never read.
    """
    path = os.fspath(directory)
    if not os.path.exists(os.path.join(path, BINARY_FILE)) and os.path.exists(
        os.path.join(path, _TEXT_INDEX_FILE)
    ):
        raise StorageError(
            f"{path} holds a text snapshot ({_TEXT_INDEX_FILE}), which this build "
            f"no longer reads; run corpus-compact on its corpus directory with "
            f"commit {_LAST_TEXT_READER} (the last build that reads it) to "
            f"rewrite it as {BINARY_FILE}"
        )
    return load_binary_index(path)


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
    for column in zip(*entries):  # the subdirs, then the names
        if len(set(column)) < len(column):
            raise StorageError(f"corpus manifest {manifest_path} lists a directory or name twice")
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


def resolve_journal(
    documents: dict[str, str], records: Iterable[JournalRecord]
) -> Iterator[tuple[JournalRecord, str]]:
    """The one interpreter of a journal: walk ``records`` against the
    running subdir → document-name map ``documents`` (the manifest's
    entries, updated in place), yielding each record with the name of the
    document it acts on once its checks pass.  An ``add`` names a subdir
    and a name no live document holds, any other record a live subdir, and
    a ``replace`` moves its document to a subdir that backs none; anything
    else is a :class:`StorageError`.
    """
    names = set(documents.values())
    for record in records:
        if record.kind == "add":
            if record.subdir in documents:
                raise StorageError(
                    f"update journal adds duplicate document directory {record.subdir!r}"
                )
            if record.name in names:
                raise StorageError(f"update journal adds duplicate document {record.name!r}")
            name = documents[record.subdir] = record.name
            names.add(name)
        elif record.subdir not in documents:
            raise StorageError(
                f"update journal references unknown document directory {record.subdir!r}"
            )
        elif record.kind == "remove":
            name = documents.pop(record.subdir)
            names.discard(name)
        elif record.kind == "replace":
            if record.snapshot in documents:
                raise StorageError(
                    f"update journal replaces {record.subdir!r} with {record.snapshot!r}, "
                    f"which already backs document {documents[record.snapshot]!r}"
                )
            name = documents[record.snapshot] = documents.pop(record.subdir)
        elif record.kind == "update":
            name = documents[record.subdir]
        else:
            raise StorageError(f"unknown update journal record kind {record.kind!r}")
        yield record, name


def directory_documents(directory: str | os.PathLike[str]) -> dict[str, str]:
    """The subdir → document-name mapping after journal bookkeeping: no
    index is loaded, :func:`resolve_journal` runs with its records thrown
    away."""
    documents = dict(read_corpus_manifest(directory).entries)
    for _ in resolve_journal(documents, read_corpus_journal(directory)):
        pass
    return documents
