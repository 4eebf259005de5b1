"""The version 3 text snapshot writer ``repro.index.storage`` had, frozen.

TEST-ONLY REFERENCE.  This is the text branch of ``save_index`` (and the
``Corpus.save_dir`` loop around it) exactly as it stood at commit c3a47f3,
the parent of the change that made v4 the only format anything writes.
It is kept so the read-only v3 *reader* still has real input: the
truncation / count / vocabulary-drift rejections of
``tests/index/test_storage.py``, the "v3-loaded == v4 eager == v4 lazy wire
bytes" oracle of ``tests/index/test_format_identity.py`` and the
compaction-as-migration tests all start from a directory this module
wrote.  Nothing under ``src/`` imports it and nothing should.  Do not fix
it — like the format it writes, it cannot store a DTD.
"""

from __future__ import annotations

import os

from repro.corpus import Corpus, _subdir_for
from repro.index.builder import DocumentIndex
from repro.index.storage import (
    DOCUMENT_FILE,
    INDEX_FILE,
    write_corpus_manifest,
)
from repro.xmltree.serialize import to_xml_string

_MAGIC_V3 = "#extract-index v3"
_PATH_SEPARATOR = "/"
_END_SENTINEL = "#end"


def write_v3_index(index: DocumentIndex, directory: str | os.PathLike[str]) -> None:
    """Write ``index`` into ``directory`` as ``document.xml`` + ``inverted.idx``."""
    path = os.fspath(directory)
    os.makedirs(path, exist_ok=True)
    summary = index.analyzer.summary()
    with open(os.path.join(path, DOCUMENT_FILE), "w", encoding="utf-8") as handle:
        handle.write(to_xml_string(index.tree))
    with open(os.path.join(path, INDEX_FILE), "w", encoding="utf-8") as handle:
        handle.write(f"{_MAGIC_V3}\n")
        handle.write(f"#document {index.tree.name}\n")
        handle.write(f"#nodes {index.tree.size_nodes}\n")
        handle.write(
            "#summary "
            f"entity={summary['entity']} "
            f"attribute={summary['attribute']} "
            f"connection={summary['connection']}\n"
        )
        postings_map = index.inverted.postings_dict()
        known_paths = index.structure.known_paths
        nodes = index.tree.nodes_by_pre

        def label_texts(postings) -> str:
            # in-memory posting lists hold pre ids; this format spells labels
            return " ".join(str(nodes[pre].dewey) for pre in postings)

        handle.write(f"#counts terms={len(postings_map)} paths={len(known_paths)}\n")
        for term in sorted(postings_map):
            # The raw per-term lists, not lookup() results: lookup folds
            # plural forms together, which would inflate the snapshot
            # and drift on repeated save/load cycles.
            handle.write(f"T {term} {label_texts(postings_map[term])}\n")
        for tag_path in sorted(known_paths):
            postings = index.structure.instances_of_path(tag_path)
            handle.write(f"P {_PATH_SEPARATOR.join(tag_path)} {label_texts(postings)}\n")
        handle.write(f"{_END_SENTINEL}\n")


def write_v3_corpus(corpus: Corpus, directory: str | os.PathLike[str]) -> list[str]:
    """``Corpus.save_dir`` as it was with the text default: one v3
    subdirectory per document plus the corpus manifest."""
    path = os.fspath(directory)
    os.makedirs(path, exist_ok=True)
    entries: list[tuple[str, str]] = []
    used: set[str] = set()
    for name in corpus.names():
        subdir = _subdir_for(name, used)
        used.add(subdir.lower())
        write_v3_index(corpus.system(name).index, os.path.join(path, subdir))
        entries.append((subdir, name))
    write_corpus_manifest(path, corpus.algorithm, entries)
    return [subdir for subdir, _ in entries]
