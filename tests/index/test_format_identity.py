"""Wire byte-identity across snapshot formats.

The acceptance property of the v4 format: the default (meta-free) wire
responses of a corpus are byte-identical whether the documents were
loaded from v3 text snapshots (read-only input, written here by the frozen
``tests/index/v3_writer.py``), eagerly from v4 binary snapshots, lazily
through the v4 mmap loader, or from the v3 directory after
``corpus-compact`` migrated it.

And the bytes themselves do not move: the ``snapshot.bin`` of a fixed set
of seeded documents is pinned by its SHA-256, so a change to how the index
is built (rather than to the format) cannot change what is written.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api.protocol import BatchRequest, SearchRequest
from repro.api.service import SnippetService
from repro.corpus import Corpus, compact_corpus_dir
from repro.datasets import (
    AuctionConfig,
    BibliographyConfig,
    MoviesConfig,
    RetailConfig,
    figure1_document,
    figure5_document,
    generate_auction_document,
    generate_bibliography_document,
    generate_movies_document,
    generate_retail_document,
)
from repro.index.binfmt import BINARY_FILE, LazyInvertedIndex
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, read_corpus_manifest, save_index
from repro.system import ExtractSystem
from repro.xmltree.dtd import parse_dtd
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


#: declares ``store`` repeatable and its ``name`` an ID, so the DTD routes of
#: classification and key mining both shape the snapshot
RETAIL_DTD = (
    "<!ELEMENT commerce (retailer*)><!ELEMENT retailer (name, product, store*)>"
    "<!ATTLIST store name ID #REQUIRED>"
)

#: name → (document factory, DTD text or None)
GOLDEN_DOCUMENTS = {
    "figure1": (figure1_document, None),
    "figure5": (figure5_document, None),
    "retail": (lambda: generate_retail_document(RetailConfig(seed=3)), None),
    "retail-dtd": (
        lambda: generate_retail_document(
            RetailConfig(retailers=2, stores_per_retailer=1, clothes_per_store=3, seed=5)
        ),
        RETAIL_DTD,
    ),
    "movies": (lambda: generate_movies_document(MoviesConfig(movies=12, seed=5)), None),
    "auctions": (lambda: generate_auction_document(AuctionConfig(scale=2, seed=4)), None),
    "bibliography": (
        lambda: generate_bibliography_document(BibliographyConfig(conferences=2, seed=9)),
        None,
    ),
}

#: SHA-256 of each document's ``snapshot.bin``, recorded before the index
#: build read the tag-path column
GOLDEN_SHA256 = {
    "auctions": "65232d0d5f0ed066731febde151d109534c22aca4ef423462bf1ea8bde6565fa",
    "bibliography": "1073945b9a79e2e9546c442f84790b8f706eadd972a4f46e19c41a4f7e20d436",
    "figure1": "9afd3dcb0ab21c1b4576b7d0a9a5902371f1862b517aa2b2985fbacaeb4fb10b",
    "figure5": "d1b4c454e7af64c4a7723ead0b63ae51679b8ecacd6886891bce924b94cbd0a1",
    "movies": "3cd7758823a65bc545d9cf98ceab85d61e1b55fc491c4c705e8cb66b6d846b96",
    "retail": "59b371cff891a50d95c148d3790de4f483d0e48b96682f555ec950b4a9d3f263",
    "retail-dtd": "470b0aee7c7f9af0859278c6150802d6341dbe734e35d40bd88dfbbe0df7e180",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_snapshot_bytes_are_pinned(name, tmp_path):
    factory, dtd_text = GOLDEN_DOCUMENTS[name]
    dtd = parse_dtd(dtd_text) if dtd_text else None
    save_index(IndexBuilder(dtd=dtd).build(factory()), tmp_path)
    digest = hashlib.sha256((tmp_path / BINARY_FILE).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
