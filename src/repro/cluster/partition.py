"""Document → shard assignment and the persisted cluster manifest.

A partitioner is a pure, deterministic function from a document name to a
shard id.  Determinism is load-bearing twice over: the router uses it to
place *new* documents (updates of registered documents always follow the
registry, so a partitioner change never strands an existing document), and
page-token follow-ups re-route through it, so a continuation token is a
per-shard cursor by construction — the same request always lands on the
same shard.

Two implementations:

* :class:`HashPartitioner` — a stable content hash (SHA-1, *not* Python's
  salted ``hash``) of the document name modulo the shard count, so the
  assignment is identical across processes, machines and restarts;
* :class:`ExplicitPartitioner` — an explicit name → shard map for
  operators that place documents by hand (hot documents on their own
  shard), with an optional default shard for unmapped names.

The **cluster manifest** (``cluster.manifest``) is the root artefact of a
persisted cluster directory: a versioned plain-text file naming the shard
snapshot subdirectories (each one a corpus directory written by
:meth:`repro.corpus.Corpus.save_dir`) and the partitioner that assigned
documents to them.  ``#version`` is a monotonically increasing update
counter — every ``cluster-update`` bumps it — and the ``#end`` sentinel
rejects truncated manifests before any shard directory is trusted, as
the end magic and checksum of a ``snapshot.bin`` do for an index.

Format (UTF-8 text)::

    #extract-cluster v1
    #version <n>
    #partitioner hash|explicit
    #shards <n>
    #default <shard id>            (explicit partitioner only, optional)
    shard <subdirectory>           (one per shard, in shard-id order)
    assign <shard id> <json name>  (explicit partitioner only)
    #end
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ClusterError, StorageError

#: file name of the cluster manifest, beside the shard subdirectories
CLUSTER_MANIFEST_FILE = "cluster.manifest"
CLUSTER_MANIFEST_FORMAT_VERSION = 1
_MANIFEST_MAGIC = f"#extract-cluster v{CLUSTER_MANIFEST_FORMAT_VERSION}"
_END_SENTINEL = "#end"


def _require_shard_count(shards: int) -> int:
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ClusterError(f"shard count must be a positive integer, got {shards!r}")
    return shards


class Partitioner(abc.ABC):
    """Deterministic document-name → shard-id assignment."""

    #: discriminator persisted in the cluster manifest
    kind: str = "abstract"

    def __init__(self, shards: int):
        self.shards = _require_shard_count(shards)

    @abc.abstractmethod
    def shard_of(self, document: str) -> int:
        """The shard id (``0 <= id < shards``) owning ``document``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} shards={self.shards}>"


class HashPartitioner(Partitioner):
    """Stable-hash assignment: SHA-1 of the UTF-8 name modulo shard count.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so it
    cannot place documents consistently across a save/load cycle or across
    router and shard processes; a content hash can.
    """

    kind = "hash"

    def shard_of(self, document: str) -> int:
        digest = hashlib.sha1(document.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.shards


class ExplicitPartitioner(Partitioner):
    """Operator-supplied name → shard map, with an optional default shard.

    Unmapped names go to ``default`` when one is configured and are a
    :class:`ClusterError` otherwise — an explicit map that silently
    hash-placed stragglers would defeat its purpose.
    """

    kind = "explicit"

    def __init__(self, assignments: Mapping[str, int], shards: int, default: int | None = None):
        super().__init__(shards)
        for name, shard_id in assignments.items():
            self._check_shard_id(shard_id, f"assignment for document {name!r}")
        if default is not None:
            self._check_shard_id(default, "default shard")
        self.assignments = dict(assignments)
        self.default = default

    def _check_shard_id(self, shard_id: object, what: str) -> None:
        if not isinstance(shard_id, int) or isinstance(shard_id, bool) or not (
            0 <= shard_id < self.shards
        ):
            raise ClusterError(
                f"{what} must be a shard id in [0, {self.shards}), got {shard_id!r}"
            )

    def shard_of(self, document: str) -> int:
        shard_id = self.assignments.get(document, self.default)
        if shard_id is None:
            raise ClusterError(
                f"document {document!r} has no explicit shard assignment and the "
                "partitioner has no default shard"
            )
        return shard_id

    def __repr__(self) -> str:
        return (
            f"<ExplicitPartitioner shards={self.shards} "
            f"assignments={len(self.assignments)} default={self.default}>"
        )


#: partitioner kinds accepted in a cluster manifest
PARTITIONER_KINDS = {HashPartitioner.kind, ExplicitPartitioner.kind}


# ---------------------------------------------------------------------- #
# the cluster manifest
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClusterManifest:
    """The parsed ``cluster.manifest`` of a persisted cluster directory.

    ``version`` is the cluster's update counter (bumped by every
    ``cluster-update``), not the file-format version — that lives in the
    magic line.  ``shard_dirs`` is ordered by shard id.
    """

    version: int
    partitioner: str
    shard_dirs: tuple[str, ...]
    assignments: tuple[tuple[str, int], ...] = ()
    default_shard: int | None = None

    @property
    def shards(self) -> int:
        return len(self.shard_dirs)

    def validate(self) -> "ClusterManifest":
        if not isinstance(self.version, int) or isinstance(self.version, bool) or self.version < 1:
            raise ClusterError(
                f"cluster manifest version must be a positive integer, got {self.version!r}"
            )
        if self.partitioner not in PARTITIONER_KINDS:
            raise ClusterError(
                f"unknown partitioner kind {self.partitioner!r}; "
                f"expected one of {sorted(PARTITIONER_KINDS)}"
            )
        _require_shard_count(self.shards)
        if len(set(self.shard_dirs)) != len(self.shard_dirs):
            raise ClusterError("cluster manifest lists duplicate shard directories")
        if self.partitioner != ExplicitPartitioner.kind and (
            self.assignments or self.default_shard is not None
        ):
            raise ClusterError(
                "explicit assignments are only valid with the 'explicit' partitioner"
            )
        # Range-check assignment targets here, not first at partitioner
        # construction: a malformed manifest must be rejected while it is
        # being read (as StorageError), before any shard is loaded.
        for name, shard_id in self.assignments:
            if not isinstance(shard_id, int) or isinstance(shard_id, bool) or not (
                0 <= shard_id < self.shards
            ):
                raise ClusterError(
                    f"assignment for document {name!r} names shard {shard_id!r}, "
                    f"outside [0, {self.shards})"
                )
        if self.default_shard is not None and not (
            isinstance(self.default_shard, int)
            and not isinstance(self.default_shard, bool)
            and 0 <= self.default_shard < self.shards
        ):
            raise ClusterError(
                f"default shard {self.default_shard!r} is outside [0, {self.shards})"
            )
        return self

    def bumped(self) -> "ClusterManifest":
        """The manifest for the next cluster version (after an update)."""
        from dataclasses import replace

        return replace(self, version=self.version + 1)


def partitioner_from_manifest(manifest: ClusterManifest) -> Partitioner:
    """Reconstruct the partitioner a manifest describes."""
    manifest.validate()
    if manifest.partitioner == ExplicitPartitioner.kind:
        return ExplicitPartitioner(
            dict(manifest.assignments), manifest.shards, default=manifest.default_shard
        )
    return HashPartitioner(manifest.shards)


def manifest_for_partitioner(
    partitioner: Partitioner, shard_dirs: list[str] | tuple[str, ...], version: int = 1
) -> ClusterManifest:
    """The manifest describing ``partitioner`` over ``shard_dirs``."""
    if len(shard_dirs) != partitioner.shards:
        raise ClusterError(
            f"partitioner covers {partitioner.shards} shard(s) but "
            f"{len(shard_dirs)} shard directories were given"
        )
    assignments: tuple[tuple[str, int], ...] = ()
    default_shard: int | None = None
    if isinstance(partitioner, ExplicitPartitioner):
        assignments = tuple(sorted(partitioner.assignments.items()))
        default_shard = partitioner.default
    return ClusterManifest(
        version=version,
        partitioner=partitioner.kind,
        shard_dirs=tuple(shard_dirs),
        assignments=assignments,
        default_shard=default_shard,
    ).validate()


def write_cluster_manifest(
    directory: str | os.PathLike[str], manifest: ClusterManifest
) -> None:
    """Write ``cluster.manifest`` into ``directory`` (the commit point of a
    cluster save: shard snapshots are written first, the manifest last).

    The write is atomic (temp file + rename): the manifest is the one
    artefact the whole cluster hangs off, so a crash mid-write — e.g.
    during a routine ``cluster-update`` version bump — must leave either
    the old manifest or the new one, never a truncated file that makes an
    intact cluster unloadable.
    """
    manifest.validate()
    path = os.path.join(os.fspath(directory), CLUSTER_MANIFEST_FILE)
    lines = [
        _MANIFEST_MAGIC,
        f"#version {manifest.version}",
        f"#partitioner {manifest.partitioner}",
        f"#shards {manifest.shards}",
    ]
    if manifest.default_shard is not None:
        lines.append(f"#default {manifest.default_shard}")
    lines.extend(f"shard {subdir}" for subdir in manifest.shard_dirs)
    for name, shard_id in manifest.assignments:
        # JSON string encoding keeps arbitrary document names (spaces,
        # unicode) on one parseable line — same trick as the update journal.
        lines.append(f"assign {shard_id} {json.dumps(name)}")
    lines.append(_END_SENTINEL)
    staging = f"{path}.tmp"
    try:
        with open(staging, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(staging, path)
    except OSError as exc:
        raise StorageError(f"failed to write cluster manifest {path}: {exc}") from exc


def read_cluster_manifest(directory: str | os.PathLike[str]) -> ClusterManifest:
    """Parse the cluster manifest written by :func:`write_cluster_manifest`.

    Raises :class:`StorageError` for a missing, truncated or malformed
    manifest — a cluster whose root artefact cannot be trusted must not
    load any shard.
    """
    path = os.path.join(os.fspath(directory), CLUSTER_MANIFEST_FILE)
    if not os.path.exists(path):
        raise StorageError(
            f"{os.fspath(directory)} does not contain a saved eXtract cluster "
            f"(missing {CLUSTER_MANIFEST_FILE})"
        )
    version: int | None = None
    partitioner: str | None = None
    declared_shards: int | None = None
    default_shard: int | None = None
    shard_dirs: list[str] = []
    assignments: list[tuple[str, int]] = []
    end_seen = False
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
            if first != _MANIFEST_MAGIC:
                raise StorageError(f"unrecognised cluster manifest header: {first!r}")
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line == _END_SENTINEL:
                    end_seen = True
                    break
                if line.startswith("#version "):
                    version = _parse_int(line, "version")
                    continue
                if line.startswith("#partitioner "):
                    partitioner = line.partition(" ")[2]
                    continue
                if line.startswith("#shards "):
                    declared_shards = _parse_int(line, "shards")
                    continue
                if line.startswith("#default "):
                    default_shard = _parse_int(line, "default")
                    continue
                if line.startswith("#"):
                    continue
                kind, _, rest = line.partition(" ")
                if kind == "shard":
                    if not rest:
                        raise StorageError(f"malformed cluster manifest shard line: {line!r}")
                    shard_dirs.append(rest)
                elif kind == "assign":
                    shard_text, _, encoded = rest.partition(" ")
                    try:
                        shard_id = int(shard_text)
                        name = json.loads(encoded)
                    except ValueError as exc:
                        raise StorageError(
                            f"malformed cluster manifest assign line: {line!r}"
                        ) from exc
                    if not isinstance(name, str):
                        raise StorageError(f"malformed cluster manifest assign line: {line!r}")
                    assignments.append((name, shard_id))
                else:
                    raise StorageError(f"unknown cluster manifest line: {line!r}")
    except OSError as exc:
        raise StorageError(f"failed to read cluster manifest {path}: {exc}") from exc
    if not end_seen:
        raise StorageError(
            f"cluster manifest {path} is truncated: missing the {_END_SENTINEL!r} sentinel"
        )
    if version is None or partitioner is None:
        raise StorageError(f"cluster manifest {path} is missing its #version/#partitioner header")
    if declared_shards is not None and declared_shards != len(shard_dirs):
        raise StorageError(
            f"cluster manifest {path} declares {declared_shards} shard(s) but lists "
            f"{len(shard_dirs)} shard directories"
        )
    manifest = ClusterManifest(
        version=version,
        partitioner=partitioner,
        shard_dirs=tuple(shard_dirs),
        assignments=tuple(assignments),
        default_shard=default_shard,
    )
    try:
        return manifest.validate()
    except ClusterError as exc:
        raise StorageError(f"invalid cluster manifest {path}: {exc}") from exc


def saved_cluster_documents(
    directory: str | os.PathLike[str], manifest: ClusterManifest
) -> dict[str, tuple[int, str]]:
    """Document name → ``(shard id, snapshot subdirectory)`` of a saved cluster.

    Reads each shard directory's snapshot/journal bookkeeping only — no
    shard index is loaded.  A name present on two shards (a rebalance
    interrupted between its add and its remove) resolves to the lower id.
    """
    from repro.index.storage import directory_documents

    located: dict[str, tuple[int, str]] = {}
    for shard_id, shard_dir in enumerate(manifest.shard_dirs):
        documents = directory_documents(os.path.join(os.fspath(directory), shard_dir))
        for subdir, name in documents.items():
            located.setdefault(name, (shard_id, subdir))
    return located


def _parse_int(line: str, what: str) -> int:
    try:
        return int(line.split(" ", 1)[1])
    except (IndexError, ValueError) as exc:
        raise StorageError(f"malformed cluster manifest #{what} line: {line!r}") from exc
