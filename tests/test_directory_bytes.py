"""The bytes a fixed edit script leaves in a corpus and a cluster directory.

Every command that writes a saved directory runs once, in a fixed order:
``corpus-save``, then ``corpus-update`` four times (a text edit, a
structural edit, an add and a remove), then ``cluster-init``,
``cluster-update`` (a text edit) and ``cluster-rebalance`` (of the edited
document, the DTD-classified one).  What is on disk afterwards is pinned
as literals: the exact ``corpus.journal``, ``corpus.manifest`` and
``cluster.manifest`` text, and the SHA-256 of every ``snapshot.bin`` (so
the sorted snapshot-subdirectory names too).  A change to who writes
these files, or how, must leave every byte where it was.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import pytest

from repro.cli import main

DTD = (
    "<!DOCTYPE shop [\n"
    "<!ELEMENT shop (store*)>\n"
    "<!ELEMENT store (name, city?)>\n"
    "<!ELEMENT name (#PCDATA)>\n"
    "<!ELEMENT city (#PCDATA)>\n"
    "]>\n"
)
DOCUMENTS = {
    "shop": DTD + "<shop><store><name>Levis</name><city>Austin</city></store></shop>",
    "mall": "<mall><shop><name>Esprit</name></shop><shop><name>Gap</name></shop></mall>",
    "books": "<books><book><title>XML</title><year>2008</year></book></books>",
}
#: a text edit of ``shop`` (one city), a structural edit of ``mall`` (a
#: third shop) and a new document whose name differs from ``shop`` by case
EDITS = {
    "shop": DTD + "<shop><store><name>Levis</name><city>Dallas</city></store></shop>",
    "mall": (
        "<mall><shop><name>Esprit</name></shop><shop><name>Gap</name></shop>"
        "<shop><name>Zara</name></shop></mall>"
    ),
    "Shop": "<outlet><store><name>Nike</name></store></outlet>",
}

#: pinned at the commit before corpus-update's journal writer moved into
#: repro.corpus; ``shop`` lands on shard 1 of 2 and is rebalanced to shard 0
CORPUS_BYTES = {
    "Shop-2/snapshot.bin": "e86301b05be117cccf4a67d40ab4e87e1f790963b4a528e388be308356e98b96",
    "books/snapshot.bin": "1fde86594e6de9ea1604ae2026070f8fc7475c8c28eee6cf6871f077a34bdc26",
    "corpus.journal": (
        "#extract-corpus-journal v1\n"
        "update shop 1\n"
        "t 0.1 \"Dallas\"\n"
        "replace mall mall-2\n"
        "add Shop-2 Shop\n"
        "remove books\n"
    ),
    "corpus.manifest": (
        "#extract-corpus v1\n"
        "#algorithm slca\n"
        "entry books books\n"
        "entry mall mall\n"
        "entry shop shop\n"
    ),
    "mall-2/snapshot.bin": "010eb1140fb6a146e7240301bd60e17dd6f491e30205ee9731537767637606a8",
    "mall/snapshot.bin": "b04a79dc299179fba18fe83aa25fc5cdf99177c5181051187ea48dbe1ef4cc07",
    "shop/snapshot.bin": "aac44391851167d9ea0d939314f5089867ef86f18382e2772fef6733f35b3bc1",
}
CLUSTER_BYTES = {
    "cluster.manifest": (
        "#extract-cluster v1\n"
        "#version 3\n"
        "#partitioner hash\n"
        "#shards 2\n"
        "shard shard-0\n"
        "shard shard-1\n"
        "#end\n"
    ),
    "shard-0/books/snapshot.bin": "1fde86594e6de9ea1604ae2026070f8fc7475c8c28eee6cf6871f077a34bdc26",
    "shard-0/corpus.journal": (
        "#extract-corpus-journal v1\n"
        "add shop shop\n"
    ),
    "shard-0/corpus.manifest": (
        "#extract-corpus v1\n"
        "#algorithm slca\n"
        "entry books books\n"
    ),
    "shard-0/shop/snapshot.bin": "4f5a7cccdc1fbe5a793b885b63af9ba37d544aa461b129121c603a5b35a168e8",
    "shard-1/corpus.journal": (
        "#extract-corpus-journal v1\n"
        "update shop 1\n"
        "t 0.1 \"Dallas\"\n"
        "remove shop\n"
    ),
    "shard-1/corpus.manifest": (
        "#extract-corpus v1\n"
        "#algorithm slca\n"
        "entry mall mall\n"
        "entry shop shop\n"
    ),
    "shard-1/mall/snapshot.bin": "b04a79dc299179fba18fe83aa25fc5cdf99177c5181051187ea48dbe1ef4cc07",
    "shard-1/shop/snapshot.bin": "aac44391851167d9ea0d939314f5089867ef86f18382e2772fef6733f35b3bc1",
}


def cli(*argv) -> str:
    buffer = io.StringIO()
    assert main([str(arg) for arg in argv], out=buffer) == 0, buffer.getvalue()
    return buffer.getvalue()


def write(directory, name, xml):
    path = directory / f"{name}.xml"
    path.write_text(xml, encoding="utf-8")
    return path


def directory_bytes(root) -> dict[str, str]:
    """relative path → the text of a manifest / journal, or the SHA-256 of a
    ``snapshot.bin``; nothing else may be on disk."""
    found = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir():
            continue
        relative = path.relative_to(root).as_posix()
        if path.name == "snapshot.bin":
            found[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            assert path.name in ("corpus.journal", "corpus.manifest", "cluster.manifest"), relative
            found[relative] = path.read_text(encoding="utf-8")
    return found


@pytest.fixture()
def sources(tmp_path, monkeypatch):
    """The source files, named by relative paths: a parsed file's tree is
    named after the path it was read from, and a snapshot stores that name."""
    monkeypatch.chdir(tmp_path)
    for folder in ("base", "edits"):
        (tmp_path / folder).mkdir()
    return (
        {name: write(Path("base"), name, xml) for name, xml in DOCUMENTS.items()},
        {name: write(Path("edits"), name, xml) for name, xml in EDITS.items()},
    )


def test_corpus_directory_bytes(sources, tmp_path):
    base, edits = sources
    directory = tmp_path / "corpus"
    cli("corpus-save", *[arg for path in base.values() for arg in ("--file", path)],
        "--output", directory)
    cli("corpus-update", "--corpus-dir", directory, "--file", edits["shop"])
    cli("corpus-update", "--corpus-dir", directory, "--file", edits["mall"])
    cli("corpus-update", "--corpus-dir", directory, "--file", edits["Shop"])
    cli("corpus-update", "--corpus-dir", directory, "--remove", "books")
    assert directory_bytes(directory) == CORPUS_BYTES


def test_cluster_directory_bytes(sources, tmp_path):
    base, edits = sources
    directory = tmp_path / "cluster"
    cli("cluster-init", "--shards", 2,
        *[arg for path in base.values() for arg in ("--file", path)], "--output", directory)
    cli("cluster-update", "--cluster-dir", directory, "--file", edits["shop"])
    cli("cluster-rebalance", "--cluster-dir", directory, "--document", "shop",
        "--to-shard", 0)
    assert directory_bytes(directory) == CLUSTER_BYTES
