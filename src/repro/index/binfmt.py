"""The v4 binary, mmap-able snapshot format — the one format written.

The version 3 text snapshots older builds wrote (still readable, see
:mod:`repro.index.storage`) are diff-friendly UTF-8: loading one re-parses
``document.xml``, re-runs the full analysis and rebuilds both indexes just
to validate the stored sections — per document, at every cold shard
bootstrap and replica spin-up.  Version 4 instead persists *everything*
the loaded :class:`~repro.index.builder.DocumentIndex` needs — tree,
pre/post/level order, posting lists, structure index and the full analyzer
state (including the DTD, which the text format could not round-trip) — as
one struct-packed file that is opened via :mod:`mmap` and decoded lazily.

Layout of ``snapshot.bin`` (all integers little-endian)::

    header   magic ``EXIDXBIN`` (8s) · format version (u32) · section count (u32)
    table    section count × (section id u32 · absolute offset u64 · length u64)
    sections META · STRINGS · TREE · ORDER · POSTINGS · STRUCTURE · ANALYZER
    trailer  crc32 of everything above (u32) · end magic ``EXIDXEND`` (8s)

* **META** — JSON: document name and node count.
* **STRINGS** — deduplicated, sorted string table (u32 count, then u32
  byte length + UTF-8 per string); every tag, text value, index term and
  ``/``-joined tag path is referenced by its id.
* **TREE** — one ``<iIi>`` record per node in pre-order: parent pre id
  (−1 for the root), tag string id, text string id (−1 for no text).
  Node identity *is* the pre-order position, so Dewey labels need not be
  stored: they follow from the rebuilt ``children`` lists.
* **ORDER** — per node ``<II>``: post-order rank and level.  ``pre`` is
  implicit.  Validated against the reindexed tree on load.
* **POSTINGS** — u32 term count, a directory of (term string id u32,
  posting count u32, section-relative blob offset u64), then the blobs:
  sorted u32 pre ids — the very array an in-memory
  :class:`~repro.index.postings.PostingList` holds, so decoding a list is
  one ``array.frombytes`` plus its range check.  The directory alone is
  enough to answer vocabulary/containment questions; blobs are only
  decoded when a term is actually looked up (:class:`LazyInvertedIndex`).
* **STRUCTURE** — same shape keyed by ``/``-joined tag-path string ids.
* **ANALYZER** — canonical JSON (sorted keys) of the schema summary, node
  categories, entity types, mined keys and the DTD, rebound on load via
  :meth:`~repro.classify.analyzer.DataAnalyzer.rebound`.

Truncation and corruption are rejected *before any posting is trusted*:
the header magic, format version, end sentinel and whole-file checksum are
all verified at open, and every table/directory offset is bounds-checked
against the actual file size.  Any failure raises
:class:`~repro.errors.StorageError`, matching the staged-load contract of
the text reader.
"""

from __future__ import annotations

import json
import mmap
import operator
import os
import struct
import sys
import threading
import zlib
from array import array
from collections import Counter

from repro.classify.analyzer import DataAnalyzer, EntityType
from repro.classify.categories import NodeCategory
from repro.classify.keys import KeyInfo
from repro.errors import StorageError
from repro.index.builder import DocumentIndex
from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingList
from repro.index.structure import StructureIndex
from repro.utils.text import normalize_token, singularize
from repro.xmltree.dtd import DTD, AttributeDecl, ChildSpec, ElementDecl
from repro.xmltree.node import XMLNode
from repro.xmltree.schema import SchemaNode, SchemaSummary, TagPath
from repro.xmltree.tree import TreeShape, XMLTree

#: the on-disk format version this module reads and writes
BINARY_FORMAT_VERSION = 4

#: file name of a binary snapshot inside its snapshot directory
BINARY_FILE = "snapshot.bin"

_HEADER_MAGIC = b"EXIDXBIN"
_END_MAGIC = b"EXIDXEND"
_HEADER = struct.Struct("<8sII")
_TABLE_ENTRY = struct.Struct("<IQQ")
_TRAILER = struct.Struct("<I8s")
_TREE_RECORD = struct.Struct("<iIi")
_ORDER_RECORD = struct.Struct("<II")
_DIR_ENTRY = struct.Struct("<IIQ")
_U32 = struct.Struct("<I")

#: section ids (order in the file follows this numbering)
_SEC_META = 1
_SEC_STRINGS = 2
_SEC_TREE = 3
_SEC_ORDER = 4
_SEC_POSTINGS = 5
_SEC_STRUCTURE = 6
_SEC_ANALYZER = 7
_REQUIRED_SECTIONS = (
    _SEC_META,
    _SEC_STRINGS,
    _SEC_TREE,
    _SEC_ORDER,
    _SEC_POSTINGS,
    _SEC_STRUCTURE,
    _SEC_ANALYZER,
)

_PATH_SEPARATOR = "/"

_CATEGORY_VALUES = {category.value: category for category in NodeCategory}


# ---------------------------------------------------------------------- #
# writer
# ---------------------------------------------------------------------- #
def write_binary_index(index: DocumentIndex, directory: str | os.PathLike[str]) -> None:
    """Persist ``index`` into ``directory`` as a v4 binary snapshot.

    The snapshot directory holds the single ``snapshot.bin`` file; the
    document, the indexes and the analyzer state all live inside it.
    Output bytes are deterministic: every table and directory is sorted
    and the JSON sections use canonical key order.
    """
    path = os.fspath(directory)
    payload = build_binary_snapshot(index)
    try:
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, BINARY_FILE), "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise StorageError(f"failed to save binary index to {path}: {exc}") from exc


def build_binary_snapshot(index: DocumentIndex) -> bytes:
    """Serialise ``index`` to the v4 byte layout (no filesystem access)."""
    tree = index.tree
    nodes, parent_of, post_of, level_of = _walk(tree.root)

    postings_map = index.inverted.postings_dict()
    structure_paths = {
        _PATH_SEPARATOR.join(tag_path): index.structure.instances_of_path(tag_path)
        for tag_path in index.structure.known_paths
    }

    strings: set[str] = set()
    for node in nodes:
        strings.add(node.tag)
        if node.text is not None:
            strings.add(node.text)
    strings.update(postings_map)
    strings.update(structure_paths)
    string_table = sorted(strings)
    sid = {text: position for position, text in enumerate(string_table)}

    meta = {"name": tree.name, "nodes": len(nodes)}
    sections = {
        _SEC_META: _dump_json(meta),
        _SEC_STRINGS: _pack_strings(string_table),
        _SEC_TREE: _pack_tree(nodes, parent_of, sid),
        _SEC_ORDER: b"".join(
            _ORDER_RECORD.pack(post, level) for post, level in zip(post_of, level_of)
        ),
        _SEC_POSTINGS: _pack_directory(postings_map, sid),
        _SEC_STRUCTURE: _pack_directory(structure_paths, sid),
        _SEC_ANALYZER: _dump_json(_encode_analyzer(index.analyzer)),
    }

    table_end = _HEADER.size + _TABLE_ENTRY.size * len(_REQUIRED_SECTIONS)
    pieces = [_HEADER.pack(_HEADER_MAGIC, BINARY_FORMAT_VERSION, len(_REQUIRED_SECTIONS))]
    offset = table_end
    for section_id in _REQUIRED_SECTIONS:
        length = len(sections[section_id])
        pieces.append(_TABLE_ENTRY.pack(section_id, offset, length))
        offset += length
    pieces.extend(sections[section_id] for section_id in _REQUIRED_SECTIONS)
    body = b"".join(pieces)
    return body + _TRAILER.pack(zlib.crc32(body), _END_MAGIC)


def _walk(root: XMLNode) -> tuple[list[XMLNode], list[int], list[int], list[int]]:
    """The nodes in pre-order with, per position: parent position (−1 for
    the root), post-order rank and level.

    Recomputed here (rather than trusting ``node.pre`` / ``node.post``) so
    the writer is consistent by construction with what
    :meth:`XMLTree._reindex` assigns on load — the reader validates the
    ORDER section against exactly that.
    """
    nodes: list[XMLNode] = []
    parent_of: list[int] = []
    post_of: list[int] = []
    level_of: list[int] = []
    post = 0
    # (node, parent position, level) on the way down; (None, position, 0)
    # marks the way back up through the node at ``position``
    stack: list[tuple[XMLNode | None, int, int]] = [(root, -1, 0)]
    while stack:
        node, position, level = stack.pop()
        if node is None:
            post_of[position] = post
            post += 1
            continue
        parent_of.append(position)
        position = len(nodes)
        nodes.append(node)
        post_of.append(0)
        level_of.append(level)
        stack.append((None, position, 0))
        for child in reversed(node.children):
            stack.append((child, position, level + 1))
    return nodes, parent_of, post_of, level_of


def _pack_strings(string_table: list[str]) -> bytes:
    pieces = [_U32.pack(len(string_table))]
    for text in string_table:
        raw = text.encode("utf-8")
        pieces.append(_U32.pack(len(raw)))
        pieces.append(raw)
    return b"".join(pieces)


def _pack_tree(nodes: list[XMLNode], parent_of: list[int], sid: dict[str, int]) -> bytes:
    pieces = []
    for node, parent in zip(nodes, parent_of):
        text_sid = sid[node.text] if node.text is not None else -1
        pieces.append(_TREE_RECORD.pack(parent, sid[node.tag], text_sid))
    return b"".join(pieces)


def _pack_directory(lists: dict[str, PostingList], sid: dict[str, int]) -> bytes:
    """Directory + blobs for a name → posting-list mapping (sorted by name)."""
    names = sorted(lists)
    directory_size = _U32.size + _DIR_ENTRY.size * len(names)
    entries = []
    blobs = []
    offset = directory_size
    for name in names:
        ids = lists[name].ids
        if sys.byteorder != "little":
            ids.byteswap()
        blob = ids.tobytes()
        entries.append(_DIR_ENTRY.pack(sid[name], len(ids), offset))
        blobs.append(blob)
        offset += len(blob)
    return b"".join([_U32.pack(len(names)), *entries, *blobs])


def _dump_json(payload: object) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


# ---------------------------------------------------------------------- #
# analyzer state codec
# ---------------------------------------------------------------------- #
def _encode_analyzer(analyzer: DataAnalyzer) -> dict:
    schema_nodes = []
    for tag_path in sorted(analyzer.schema.nodes):
        entry = analyzer.schema.nodes[tag_path]
        schema_nodes.append(
            {
                "tag_path": list(tag_path),
                "instance_count": entry.instance_count,
                "max_siblings_per_parent": entry.max_siblings_per_parent,
                "with_text": entry.with_text,
                "with_element_children": entry.with_element_children,
                "child_paths": sorted(list(path) for path in entry.child_paths),
                "value_counts": dict(entry.value_counts),
            }
        )
    entity_types = []
    for tag_path in sorted(analyzer.entity_types):
        entity = analyzer.entity_types[tag_path]
        key = entity.key
        entity_types.append(
            {
                "tag_path": list(tag_path),
                "instance_count": entity.instance_count,
                "attribute_paths": [list(path) for path in entity.attribute_paths],
                "key": None
                if key is None
                else {
                    "entity_path": list(key.entity_path),
                    "attribute_path": list(key.attribute_path),
                    "coverage": key.coverage,
                    "uniqueness": key.uniqueness,
                    "from_dtd": key.from_dtd,
                },
            }
        )
    return {
        "schema": schema_nodes,
        "categories": [
            [list(path), category.value]
            for path, category in sorted(analyzer.categories.items())
        ],
        "entity_types": entity_types,
        "dtd": _encode_dtd(analyzer.dtd),
    }


def _encode_dtd(dtd: DTD | None) -> dict | None:
    if dtd is None:
        return None
    return {
        "root": dtd.root,
        "elements": {
            tag: {
                "content_model": decl.content_model,
                "has_text": decl.has_text,
                "is_empty": decl.is_empty,
                "is_any": decl.is_any,
                "children": {
                    child_tag: [spec.repeatable, spec.optional]
                    for child_tag, spec in decl.children.items()
                },
            }
            for tag, decl in dtd.elements.items()
        },
        "attributes": [
            [attr.element, attr.name, attr.attr_type, attr.default]
            for attr in dtd.attributes
        ],
    }


def _decode_analyzer(tree: XMLTree, payload: dict) -> DataAnalyzer:
    try:
        dtd = _decode_dtd(payload["dtd"])
        schema = SchemaSummary(dtd)
        for entry in payload["schema"]:
            tag_path: TagPath = tuple(entry["tag_path"])
            schema.nodes[tag_path] = SchemaNode(
                tag_path=tag_path,
                tag=tag_path[-1],
                instance_count=entry["instance_count"],
                max_siblings_per_parent=entry["max_siblings_per_parent"],
                with_text=entry["with_text"],
                with_element_children=entry["with_element_children"],
                child_paths={tuple(path) for path in entry["child_paths"]},
                value_counts=Counter(entry["value_counts"]),
            )
        categories = {
            tuple(path): _CATEGORY_VALUES[value]
            for path, value in payload["categories"]
        }
        entity_types: dict[TagPath, EntityType] = {}
        for entry in payload["entity_types"]:
            tag_path = tuple(entry["tag_path"])
            key_data = entry["key"]
            key = (
                None
                if key_data is None
                else KeyInfo(
                    entity_path=tuple(key_data["entity_path"]),
                    attribute_path=tuple(key_data["attribute_path"]),
                    coverage=key_data["coverage"],
                    uniqueness=key_data["uniqueness"],
                    from_dtd=key_data["from_dtd"],
                )
            )
            entity_types[tag_path] = EntityType(
                tag_path=tag_path,
                tag=tag_path[-1],
                instance_count=entry["instance_count"],
                attribute_paths=[tuple(path) for path in entry["attribute_paths"]],
                key=key,
            )
    except (KeyError, IndexError, TypeError) as exc:
        raise StorageError(f"malformed analyzer section: {exc}") from exc
    return DataAnalyzer.rebound(tree, dtd, schema, categories, entity_types)


def _decode_dtd(payload: dict | None) -> DTD | None:
    if payload is None:
        return None
    elements = {
        tag: ElementDecl(
            tag=tag,
            content_model=entry["content_model"],
            children={
                child_tag: ChildSpec(
                    tag=child_tag, repeatable=repeatable, optional=optional
                )
                for child_tag, (repeatable, optional) in entry["children"].items()
            },
            has_text=entry["has_text"],
            is_empty=entry["is_empty"],
            is_any=entry["is_any"],
        )
        for tag, entry in payload["elements"].items()
    }
    attributes = [
        AttributeDecl(element=element, name=name, attr_type=attr_type, default=default)
        for element, name, attr_type, default in payload["attributes"]
    ]
    return DTD(elements, attributes, root=payload["root"])


# ---------------------------------------------------------------------- #
# reader
# ---------------------------------------------------------------------- #
class _SnapshotBuffer:
    """A verified, mmap'd v4 snapshot: section table plus raw bytes.

    Holding a reference to this object keeps the mapping alive for the
    lazily-decoded posting lists; the file descriptor itself is closed as
    soon as the mapping exists.
    """

    def __init__(self, file_path: str):
        try:
            size = os.path.getsize(file_path)
        except OSError as exc:
            raise StorageError(f"failed to read binary index {file_path}: {exc}") from exc
        floor = _HEADER.size + _TRAILER.size
        if size < floor:
            raise StorageError(
                f"binary index {file_path} is truncated: {size} bytes is smaller "
                f"than the {floor}-byte header and trailer"
            )
        try:
            with open(file_path, "rb") as handle:
                self.buffer: mmap.mmap | bytes = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as exc:
            raise StorageError(f"failed to map binary index {file_path}: {exc}") from exc
        self.size = size
        self._verify(file_path)

    def _verify(self, file_path: str) -> None:
        buffer = self.buffer
        magic, version, section_count = _HEADER.unpack_from(buffer, 0)
        if magic != _HEADER_MAGIC:
            raise StorageError(
                f"unrecognised binary index header in {file_path}: {magic!r}"
            )
        if version != BINARY_FORMAT_VERSION:
            raise StorageError(
                f"unsupported binary index format version {version} in {file_path} "
                f"(this build reads version {BINARY_FORMAT_VERSION})"
            )
        crc, end_magic = _TRAILER.unpack_from(buffer, self.size - _TRAILER.size)
        if end_magic != _END_MAGIC:
            raise StorageError(
                f"binary index {file_path} is truncated: missing the end sentinel"
            )
        if zlib.crc32(buffer[: self.size - _TRAILER.size]) != crc:
            raise StorageError(
                f"binary index {file_path} is corrupt: checksum mismatch"
            )
        table_end = _HEADER.size + _TABLE_ENTRY.size * section_count
        if table_end + _TRAILER.size > self.size:
            raise StorageError(
                f"binary index {file_path} is truncated: the offset table for "
                f"{section_count} sections does not fit the file"
            )
        sections: dict[int, tuple[int, int]] = {}
        for position in range(section_count):
            section_id, offset, length = _TABLE_ENTRY.unpack_from(
                buffer, _HEADER.size + _TABLE_ENTRY.size * position
            )
            if offset < table_end or offset + length > self.size - _TRAILER.size:
                raise StorageError(
                    f"binary index {file_path} is corrupt: section {section_id} "
                    f"lies outside the file bounds"
                )
            sections[section_id] = (offset, length)
        missing = [sid for sid in _REQUIRED_SECTIONS if sid not in sections]
        if missing:
            raise StorageError(
                f"binary index {file_path} is corrupt: missing section(s) {missing}"
            )
        self.sections = sections

    def section(self, section_id: int) -> tuple[int, int]:
        return self.sections[section_id]

    def section_bytes(self, section_id: int) -> bytes:
        offset, length = self.sections[section_id]
        return bytes(self.buffer[offset : offset + length])


def _decode_ids(
    buffer: mmap.mmap | bytes, start: int, count: int, node_count: int, what: str
) -> "array[int]":
    """One blob of u32 pre ids as the ``array('I')`` a posting list holds.

    Ids are positions, not labels: nothing downstream would notice one
    that names no node of this document, so a blob is trusted only after
    it proved strictly ascending and below ``node_count`` (the checksum
    covers accidents, not a writer that disagrees).  Raises
    :class:`StorageError` naming ``what``.
    """
    ids = array("I")
    ids.frombytes(buffer[start : start + _U32.size * count])
    if sys.byteorder != "little":
        ids.byteswap()
    if len(ids) != count:
        raise StorageError(f"cannot decode {what}: u32 ids are not this platform's array('I')")
    if count and (ids[-1] >= node_count or any(map(operator.ge, ids, ids[1:]))):
        raise StorageError(
            f"{what} are corrupt: ids must ascend and stay below the node count {node_count}"
        )
    return ids


class _PostingSource:
    """Decodes blobs of the POSTINGS section into the posting lists of the
    tree with ``shape``."""

    __slots__ = ("shape", "_buffer", "_base", "_file_path")

    def __init__(self, snapshot: _SnapshotBuffer, shape: TreeShape, file_path: str):
        self.shape = shape
        self._buffer = snapshot.buffer
        self._base = snapshot.section(_SEC_POSTINGS)[0]
        self._file_path = file_path

    def posting_list(self, term: str, offset: int, count: int) -> PostingList:
        ids = _decode_ids(
            self._buffer,
            self._base + offset,
            count,
            len(self.shape.size),
            f"binary index {self._file_path}: postings for {term!r}",
        )
        return PostingList._trusted(self.shape, ids)


class LazyInvertedIndex(InvertedIndex):
    """An inverted index whose posting lists decode from mmap on first use.

    The term directory (term → blob span) is read eagerly — it is what
    vocabulary and containment questions need — but each posting list is
    only materialised when the term is actually looked up, so a cold shard
    answers its first query after decoding just the lists that query
    touches.  Materialisation is guarded by a lock: the serving layer
    shares one index across executor threads.

    :meth:`apply_delta` keeps incremental updates and journal replay lazy
    too: only the terms the delta touches are materialised; the clone
    shares the mmap source for everything else.
    """

    def __init__(self, source: _PostingSource, pending: dict[str, tuple[int, int]]):
        super().__init__()
        self._source = source
        self._shape = source.shape
        self._pending = dict(pending)
        self._lock = threading.Lock()
        self._built = True

    # -------------------------------------------------------------- #
    # materialisation
    # -------------------------------------------------------------- #
    def _materialize(self, term: str) -> None:
        with self._lock:
            span = self._pending.get(term)
            if span is not None:
                # decoded before it stops being pending: a blob that fails
                # its check fails every lookup, it does not become "absent"
                self._postings[term] = self._source.posting_list(term, *span)
                del self._pending[term]

    def _materialize_all(self) -> None:
        with self._lock:
            for term, span in self._pending.items():
                self._postings[term] = self._source.posting_list(term, *span)
            self._pending = {}

    @property
    def pending_terms(self) -> int:
        """Number of posting lists not yet decoded (observability/tests)."""
        with self._lock:
            return len(self._pending)

    # -------------------------------------------------------------- #
    # overridden lookups
    # -------------------------------------------------------------- #
    def lookup(self, keyword: str) -> PostingList:
        token = normalize_token(keyword)
        self._materialize(token)
        self._materialize(singularize(token))
        return super().lookup(keyword)

    def contains_term(self, keyword: str) -> bool:
        token = normalize_token(keyword)
        forms = {token, singularize(token)}
        with self._lock:
            return any(
                form in self._postings or form in self._pending for form in forms
            )

    @property
    def vocabulary(self) -> list[str]:
        with self._lock:
            return sorted(set(self._postings) | set(self._pending))

    @property
    def vocabulary_size(self) -> int:
        with self._lock:
            return len(self._postings) + len(self._pending)

    def postings_dict(self) -> dict[str, PostingList]:
        self._materialize_all()
        return super().postings_dict()

    def apply_delta(
        self,
        added: dict[str, set[int]],
        removed: dict[str, set[int]],
    ) -> "LazyInvertedIndex":
        touched = set(added) | set(removed)
        for term in touched:
            self._materialize(term)
        with self._lock:
            pending = {
                term: span for term, span in self._pending.items() if term not in touched
            }
            postings = dict(self._postings)
        self._apply_delta_to(postings, added, removed)
        clone = LazyInvertedIndex(self._source, pending)
        clone._postings = postings
        return clone

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<LazyInvertedIndex terms={len(self._postings) + len(self._pending)} "
                f"pending={len(self._pending)}>"
            )


def load_binary_index(
    directory: str | os.PathLike[str], lazy: bool = True
) -> DocumentIndex:
    """Load a :class:`DocumentIndex` from a v4 binary snapshot directory.

    With ``lazy=True`` (the default) the inverted index is a
    :class:`LazyInvertedIndex` backed by the mmap'd file; ``lazy=False``
    materialises every posting list up front and returns a plain
    :class:`InvertedIndex`.  Either way, queries over the loaded index are
    byte-identical to queries over the index that was saved — and to a
    v3 text load of the same corpus.
    """
    path = os.fspath(directory)
    file_path = os.path.join(path, BINARY_FILE)
    if not os.path.exists(file_path):
        raise StorageError(f"{path} does not contain a saved eXtract index")
    snapshot = _SnapshotBuffer(file_path)

    meta = _load_json(snapshot, _SEC_META, file_path)
    strings = _read_strings(snapshot, file_path)
    tree = _rebuild_tree(snapshot, strings, meta, file_path)
    _validate_order(snapshot, tree, file_path)
    shape = tree.shape

    analyzer_payload = _load_json(snapshot, _SEC_ANALYZER, file_path)
    analyzer = _decode_analyzer(tree, analyzer_payload)

    structure = _rebuild_structure(snapshot, strings, shape, analyzer, file_path)

    directory_entries = _read_directory(
        snapshot, _SEC_POSTINGS, strings, file_path
    )
    source = _PostingSource(snapshot, shape, file_path)
    if lazy:
        inverted: InvertedIndex = LazyInvertedIndex(
            source,
            {term: (offset, count) for term, (count, offset) in directory_entries.items()},
        )
    else:
        inverted = InvertedIndex.from_postings(
            shape,
            {
                term: source.posting_list(term, offset, count)
                for term, (count, offset) in directory_entries.items()
            },
        )
    return DocumentIndex(
        tree=tree, analyzer=analyzer, inverted=inverted, structure=structure
    )


def _load_json(snapshot: _SnapshotBuffer, section_id: int, file_path: str) -> dict:
    try:
        payload = json.loads(snapshot.section_bytes(section_id).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(
            f"binary index {file_path} is corrupt: malformed JSON section "
            f"{section_id}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise StorageError(
            f"binary index {file_path} is corrupt: section {section_id} is not an object"
        )
    return payload


def _read_strings(snapshot: _SnapshotBuffer, file_path: str) -> list[str]:
    data = snapshot.section_bytes(_SEC_STRINGS)
    try:
        (count,) = _U32.unpack_from(data, 0)
        strings: list[str] = []
        position = _U32.size
        for _ in range(count):
            (length,) = _U32.unpack_from(data, position)
            position += _U32.size
            if position + length > len(data):
                raise StorageError(
                    f"binary index {file_path} is corrupt: string table overruns "
                    f"its section"
                )
            strings.append(data[position : position + length].decode("utf-8"))
            position += length
    except (struct.error, UnicodeDecodeError) as exc:
        raise StorageError(
            f"binary index {file_path} is corrupt: malformed string table: {exc}"
        ) from exc
    return strings


def _rebuild_tree(
    snapshot: _SnapshotBuffer, strings: list[str], meta: dict, file_path: str
) -> XMLTree:
    data = snapshot.section_bytes(_SEC_TREE)
    if len(data) % _TREE_RECORD.size:
        raise StorageError(
            f"binary index {file_path} is corrupt: tree section is not a whole "
            f"number of records"
        )
    count = len(data) // _TREE_RECORD.size
    declared = meta.get("nodes")
    if declared != count:
        raise StorageError(
            f"binary index {file_path} is corrupt: header declares {declared} "
            f"nodes but the tree section holds {count}"
        )
    if count == 0:
        raise StorageError(f"binary index {file_path} is corrupt: empty tree section")
    nodes: list[XMLNode] = []
    try:
        for position, (parent, tag_sid, text_sid) in enumerate(
            _TREE_RECORD.iter_unpack(data)
        ):
            tag = strings[tag_sid]
            if not tag:
                raise StorageError(
                    f"binary index {file_path} is corrupt: node {position} has an "
                    f"empty tag"
                )
            node = XMLNode(tag)
            if text_sid >= 0:
                node.text = strings[text_sid]
            if parent >= 0:
                if parent >= position:
                    raise StorageError(
                        f"binary index {file_path} is corrupt: node {position} "
                        f"references a parent after itself"
                    )
                nodes[parent]._attach(node)
            elif position != 0:
                raise StorageError(
                    f"binary index {file_path} is corrupt: node {position} is a "
                    f"second root"
                )
            nodes.append(node)
    except IndexError as exc:
        raise StorageError(
            f"binary index {file_path} is corrupt: tree references an unknown "
            f"string id"
        ) from exc
    name = meta.get("name")
    if not isinstance(name, str) or not name:
        raise StorageError(f"binary index {file_path} is corrupt: missing document name")
    return XMLTree(nodes[0], name=name)


def _validate_order(snapshot: _SnapshotBuffer, tree: XMLTree, file_path: str) -> None:
    data = snapshot.section_bytes(_SEC_ORDER)
    if len(data) != _ORDER_RECORD.size * tree.size_nodes:
        raise StorageError(
            f"binary index {file_path} is corrupt: order section size does not "
            f"match the node count"
        )
    for node, (post, level) in zip(tree.iter_nodes(), _ORDER_RECORD.iter_unpack(data)):
        if node.post != post or node.level != level:
            raise StorageError(
                f"binary index {file_path} is corrupt: stored pre/post order "
                f"disagrees with the reconstructed tree at node {node.dewey}"
            )


def _read_directory(
    snapshot: _SnapshotBuffer, section_id: int, strings: list[str], file_path: str
) -> dict[str, tuple[int, int]]:
    """Parse a directory section into name → (count, blob offset).

    Blob spans are bounds-checked against the section length here, so the
    lazy decoder can trust them later without re-validating.
    """
    offset, length = snapshot.section(section_id)
    buffer = snapshot.buffer
    try:
        (count,) = _U32.unpack_from(buffer, offset)
    except struct.error as exc:
        raise StorageError(
            f"binary index {file_path} is corrupt: unreadable directory header"
        ) from exc
    directory_size = _U32.size + _DIR_ENTRY.size * count
    if directory_size > length:
        raise StorageError(
            f"binary index {file_path} is corrupt: directory of {count} entries "
            f"overruns its section"
        )
    entries: dict[str, tuple[int, int]] = {}
    for position in range(count):
        name_sid, list_count, blob_offset = _DIR_ENTRY.unpack_from(
            buffer, offset + _U32.size + _DIR_ENTRY.size * position
        )
        if name_sid >= len(strings):
            raise StorageError(
                f"binary index {file_path} is corrupt: directory references an "
                f"unknown string id"
            )
        if blob_offset + list_count * _U32.size > length:
            raise StorageError(
                f"binary index {file_path} is corrupt: posting blob for "
                f"{strings[name_sid]!r} overruns its section"
            )
        entries[strings[name_sid]] = (list_count, blob_offset)
    return entries


def _rebuild_structure(
    snapshot: _SnapshotBuffer,
    strings: list[str],
    shape: TreeShape,
    analyzer: DataAnalyzer,
    file_path: str,
) -> StructureIndex:
    entries = _read_directory(snapshot, _SEC_STRUCTURE, strings, file_path)
    base, _ = snapshot.section(_SEC_STRUCTURE)
    node_count = len(shape.size)
    by_path: dict[TagPath, PostingList] = {}
    covered: set[int] = set()
    for path_text, (count, blob_offset) in entries.items():
        ids = _decode_ids(
            snapshot.buffer,
            base + blob_offset,
            count,
            node_count,
            f"binary index {file_path}: structure postings for {path_text!r}",
        )
        by_path[tuple(path_text.split(_PATH_SEPARATOR))] = PostingList._trusted(shape, ids)
        covered.update(ids)
    # every node has exactly one tag path: the lists partition the tree
    listed = sum(count for count, _ in entries.values())
    if listed != node_count or len(covered) != node_count:
        raise StorageError(
            f"binary index {file_path} is corrupt: structure postings list "
            f"{listed} nodes ({len(covered)} distinct), expected {node_count}"
        )
    return StructureIndex()._assemble(shape, by_path, analyzer)
