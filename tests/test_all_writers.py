"""Every command that puts a snapshot on disk writes the one format.

``corpus-save``, ``cluster-init``, ``corpus-update`` (add and structural
replace), ``cluster-update``, ``cluster-rebalance`` and ``corpus-compact``
all go through one ``save_index`` call.  The document they are handed here
carries an internal DTD subset that *changes its classification* (a single
``<store>`` is an entity only because the DTD says it repeats) — the case
the old text default could write but never load — so each scenario proves
two things: what comes back from disk serves the bytes of the in-memory
corpus, and every snapshot subdirectory holds ``snapshot.bin`` and nothing
in the text format.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.api import SearchRequest, SnippetService
from repro.cli import main
from repro.cluster import ClusterService
from repro.corpus import Corpus

DTD = (
    "<!DOCTYPE shop [\n"
    "<!ELEMENT shop (store*)>\n"
    "<!ELEMENT store (name, city?)>\n"
    "<!ELEMENT name (#PCDATA)>\n"
    "<!ELEMENT city (#PCDATA)>\n"
    "]>\n"
)
ONE_STORE = DTD + "<shop><store><name>Levis</name></store></shop>"
#: a structural edit of ONE_STORE (the store gains a child)
ONE_STORE_WITH_CITY = DTD + "<shop><store><name>Levis</name><city>Austin</city></store></shop>"
SEED = "<mall><shop><name>Esprit</name></shop><shop><name>Gap</name></shop></mall>"
QUERIES = ("store levis", "levis austin", "shop name", "esprit")


def cli(*argv) -> None:
    buffer = io.StringIO()
    assert main([str(arg) for arg in argv], out=buffer) == 0, buffer.getvalue()


def write(path, xml):
    path.write_text(xml, encoding="utf-8")
    return path


def corpus_save(tmp_path, directory):
    cli("corpus-save", "--file", write(tmp_path / "dtd-doc.xml", ONE_STORE), "--output", directory)
    return Corpus.load_dir, {"dtd-doc": ONE_STORE}


def cluster_init(tmp_path, directory):
    cli(
        "cluster-init", "--shards", 2, "--output", directory,
        "--file", write(tmp_path / "dtd-doc.xml", ONE_STORE),
        "--file", write(tmp_path / "seed.xml", SEED),
    )
    return ClusterService.load_dir, {"dtd-doc": ONE_STORE, "seed": SEED}


def corpus_update_add(tmp_path, directory):
    cli("corpus-save", "--file", write(tmp_path / "seed.xml", SEED), "--output", directory)
    cli("corpus-update", "--corpus-dir", directory, "--file", write(tmp_path / "dtd-doc.xml", ONE_STORE))
    return Corpus.load_dir, {"dtd-doc": ONE_STORE, "seed": SEED}


def corpus_update_replace(tmp_path, directory):
    corpus_save(tmp_path, directory)
    cli(
        "corpus-update", "--corpus-dir", directory,
        "--file", write(tmp_path / "dtd-doc.xml", ONE_STORE_WITH_CITY),
    )
    return Corpus.load_dir, {"dtd-doc": ONE_STORE_WITH_CITY}


def cluster_update(tmp_path, directory):
    cli(
        "cluster-init", "--shards", 2, "--output", directory,
        "--file", write(tmp_path / "seed.xml", SEED),
    )
    cli("cluster-update", "--cluster-dir", directory, "--file", write(tmp_path / "dtd-doc.xml", ONE_STORE))
    return ClusterService.load_dir, {"dtd-doc": ONE_STORE, "seed": SEED}


def cluster_rebalance(tmp_path, directory):
    loader, documents = cluster_init(tmp_path, directory)
    home = ClusterService.load_dir(directory).owner_of("dtd-doc").shard_id
    cli("cluster-rebalance", "--cluster-dir", directory, "--document", "dtd-doc", "--to-shard", 1 - home)
    return loader, documents


def corpus_compact(tmp_path, directory):
    corpus_update_add(tmp_path, directory)
    cli(
        "corpus-update", "--corpus-dir", directory,
        "--file", write(tmp_path / "dtd-doc.xml", ONE_STORE_WITH_CITY),
    )
    cli("corpus-compact", "--corpus-dir", directory)
    return Corpus.load_dir, {"dtd-doc": ONE_STORE_WITH_CITY, "seed": SEED}


WRITERS = (
    corpus_save, cluster_init, corpus_update_add, corpus_update_replace,
    cluster_update, cluster_rebalance, corpus_compact,
)


def wire(backend, names) -> list[str]:
    return [
        backend.handle_json(
            json.dumps(SearchRequest(query=query, document=name, size_bound=6).to_dict())
        )
        for name in names
        for query in QUERIES
    ]


def test_the_dtd_not_the_data_makes_store_an_entity():
    def entities(xml):
        return Corpus().add_xml("doc", xml).system.analyzer.summary()["entity"]

    assert (entities(ONE_STORE), entities(ONE_STORE.replace(DTD, ""))) == (1, 0)


@pytest.mark.parametrize("writer", WRITERS, ids=lambda writer: writer.__name__)
def test_dtd_document_round_trips_and_every_snapshot_is_binary(writer, tmp_path):
    directory = tmp_path / "saved"
    loader, documents = writer(tmp_path, directory)

    snapshot_dirs = [
        (root, names)
        for root, _dirs, names in os.walk(directory)
        if {"snapshot.bin", "inverted.idx", "document.xml"} & set(names)
    ]
    assert len(snapshot_dirs) >= len(documents)
    for root, names in snapshot_dirs:
        assert names == ["snapshot.bin"], root

    in_memory = Corpus()
    for name, xml in documents.items():
        in_memory.add_file(write(tmp_path / f"{name}.xml", xml))
    loaded = loader(directory)
    reference = SnippetService(in_memory)
    served = loaded if isinstance(loaded, ClusterService) else SnippetService(loaded)
    try:
        assert sorted(loaded.names()) == sorted(documents)
        assert wire(served, sorted(documents)) == wire(reference, sorted(documents))
    finally:
        served.close()
        reference.close()
