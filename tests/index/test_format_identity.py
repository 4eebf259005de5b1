"""Wire byte-identity between a built corpus and its snapshots.

The acceptance property of the v4 format: the default (meta-free) wire
responses of a corpus loaded from ``snapshot.bin`` files — lazily, through
the mmap loader — are byte-identical to those of the same corpus built in
memory from the same XML; and so are those of a saved corpus after one
journalled edit and ``corpus-compact``, against the in-memory corpus with
the same edit applied.

And the bytes themselves do not move: the ``snapshot.bin`` of a fixed set
of seeded documents is pinned by its SHA-256, so a change to how the index
is built (rather than to the format) cannot change what is written.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.api.protocol import BatchRequest, SearchRequest
from repro.api.service import SnippetService
from repro.cli import main
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
from repro.index.binfmt import BINARY_FILE
from repro.index.inverted import InvertedIndex
from repro.index.builder import IndexBuilder
from repro.index.storage import read_corpus_manifest, save_index
from repro.xmltree.diff import clone_tree
from repro.xmltree.dtd import parse_dtd
from repro.xmltree.serialize import to_xml_string

DATASETS = (("figure5-stores", "stores"), ("retail", "retail"))
QUERIES = (
    "store texas", "store nevada", "retailer apparel", "clothes casual", "nothing-matches",
)


def build_corpus() -> Corpus:
    corpus = Corpus()
    for dataset, name in DATASETS:
        corpus.add_builtin(dataset, name=name)
    return corpus


def edited_stores(corpus: Corpus):
    """The ``stores`` document with every ``Texas`` changed to ``Nevada``."""
    edited = clone_tree(corpus.system("stores").index.tree)
    for node in edited.iter_nodes():
        if node.text == "Texas":
            node.text = "Nevada"
    return edited


def wire(service, payload) -> str:
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return service.handle_json(json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def format_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("format-identity")
    build_corpus().save_dir(base / "v4")
    build_corpus().save_dir(base / "compacted")
    update = base / "stores.xml"
    update.write_text(to_xml_string(edited_stores(build_corpus())), encoding="utf-8")
    argv = ["corpus-update", "--corpus-dir", str(base / "compacted"), "--file", str(update)]
    out = io.StringIO()
    assert main(argv, out=out) == 0, out.getvalue()
    assert "incrementally" in out.getvalue()
    assert compact_corpus_dir(base / "compacted").records_folded == 1
    return base


@pytest.fixture(scope="module")
def services(format_dirs):
    """Per loaded corpus, (in-memory reference, loaded) services."""
    edited = build_corpus()
    edited.update_document("stores", edited_stores(edited))
    pairs = {
        "v4": (SnippetService(build_corpus()), SnippetService(Corpus.load_dir(format_dirs / "v4"))),
        "compacted": (
            SnippetService(edited),
            SnippetService(Corpus.load_dir(format_dirs / "compacted")),
        ),
    }
    yield pairs
    for pair in pairs.values():
        for service in pair:
            service.close()


class TestFormatByteIdentity:
    def test_loaded_corpora_are_binary_and_decoded(self, format_dirs, services):
        for kind in ("v4", "compacted"):
            directory = format_dirs / kind
            assert not (directory / "corpus.journal").exists()
            loaded = services[kind][1].corpus
            for subdir, name in read_corpus_manifest(directory).entries:
                assert os.listdir(directory / subdir) == [BINARY_FILE]
                assert type(loaded.system(name).index.inverted) is InvertedIndex

    def assert_same_bytes_everywhere(self, services, payload):
        for kind, (built, loaded) in services.items():
            assert wire(loaded, payload) == wire(built, payload), kind

    def test_the_edit_is_served(self, services):
        payload = SearchRequest(query="store nevada", document="stores", size_bound=6)
        built, _loaded = services["v4"]
        edited, _compacted = services["compacted"]
        assert json.loads(wire(edited, payload))["results"]
        assert not json.loads(wire(built, payload))["results"]

    def test_search_bytes_identical(self, services):
        for _dataset, name in DATASETS:
            for query in QUERIES:
                self.assert_same_bytes_everywhere(
                    services, SearchRequest(query=query, document=name, size_bound=6)
                )

    def test_batch_bytes_identical(self, services):
        self.assert_same_bytes_everywhere(
            services, BatchRequest(queries=QUERIES[:4], documents=None)
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
