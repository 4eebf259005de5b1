"""Wire byte-identity across snapshot formats.

The acceptance property of the v4 format: the default (meta-free) wire
responses of a corpus are byte-identical whether the documents were
loaded from v3 text snapshots (read-only input, written here by the frozen
``tests/index/v3_writer.py``), eagerly from v4 binary snapshots, lazily
through the v4 mmap loader, or from the v3 directory after
``corpus-compact`` migrated it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.protocol import BatchRequest, SearchRequest
from repro.api.service import SnippetService
from repro.corpus import Corpus, compact_corpus_dir
from repro.index.binfmt import BINARY_FILE, LazyInvertedIndex
from repro.index.storage import load_index, read_corpus_manifest
from repro.system import ExtractSystem
from tests.index.v3_writer import write_v3_corpus

DATASETS = (("figure5-stores", "stores"), ("retail", "retail"))
QUERIES = ("store texas", "retailer apparel", "clothes casual", "nothing-matches")


def build_corpus() -> Corpus:
    corpus = Corpus()
    for dataset, name in DATASETS:
        corpus.add_builtin(dataset, name=name)
    return corpus


def wire(service, payload) -> str:
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return service.handle_json(json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def format_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("format-identity")
    write_v3_corpus(build_corpus(), base / "v3")
    build_corpus().save_dir(base / "v4")
    write_v3_corpus(build_corpus(), base / "migrated")
    compact_corpus_dir(base / "migrated")
    return base


@pytest.fixture(scope="module")
def services(format_dirs):
    """(v3-text, v4-lazy, v4-eager, compacted-v3) services over the same documents."""
    from_text = SnippetService(Corpus.load_dir(format_dirs / "v3"))
    lazy = SnippetService(Corpus.load_dir(format_dirs / "v4"))
    migrated = SnippetService(Corpus.load_dir(format_dirs / "migrated"))

    manifest = read_corpus_manifest(os.fspath(format_dirs / "v4"))
    eager_corpus = Corpus(algorithm=manifest.algorithm)
    for subdir, name in manifest.entries:
        index = load_index(format_dirs / "v4" / subdir, lazy=False)
        eager_corpus.add_system(name, ExtractSystem(index, algorithm=manifest.algorithm))
    eager = SnippetService(eager_corpus)

    yield {"v3": from_text, "v4-lazy": lazy, "v4-eager": eager, "migrated": migrated}
    for service in (from_text, lazy, eager, migrated):
        service.close()


class TestFormatByteIdentity:
    def test_v4_corpus_is_binary_and_lazy(self, format_dirs, services):
        manifest = read_corpus_manifest(os.fspath(format_dirs / "v4"))
        for subdir, name in manifest.entries:
            assert (format_dirs / "v4" / subdir / BINARY_FILE).exists()
            lazy_corpus = services["v4-lazy"].corpus
            assert isinstance(lazy_corpus.system(name).index.inverted, LazyInvertedIndex)

    def test_text_input_is_text_and_compaction_migrates_it(self, format_dirs):
        for subdir, _name in read_corpus_manifest(format_dirs / "v3").entries:
            assert sorted(os.listdir(format_dirs / "v3" / subdir)) == [
                "document.xml",
                "inverted.idx",
            ]
        for subdir, _name in read_corpus_manifest(format_dirs / "migrated").entries:
            assert os.listdir(format_dirs / "migrated" / subdir) == [BINARY_FILE]

    def assert_same_bytes_everywhere(self, services, payload):
        reference = wire(services["v3"], payload)
        for kind in ("v4-lazy", "v4-eager", "migrated"):
            assert wire(services[kind], payload) == reference, kind

    def test_search_bytes_identical(self, services):
        for _dataset, name in DATASETS:
            for query in QUERIES:
                self.assert_same_bytes_everywhere(
                    services, SearchRequest(query=query, document=name, size_bound=6)
                )

    def test_batch_bytes_identical(self, services):
        self.assert_same_bytes_everywhere(
            services, BatchRequest(queries=QUERIES[:3], documents=None)
        )

    def test_error_bytes_identical(self, services):
        self.assert_same_bytes_everywhere(
            services, SearchRequest(query="anything", document="missing-doc")
        )
