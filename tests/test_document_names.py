"""A document name is non-empty and holds no line break.

``corpus.manifest`` writes ``entry <subdir> <name>`` and ``corpus.journal``
writes ``add <subdir> <name>``, one record per line: a name holding a line
break would inject a record (``a\\nremove plain`` unregisters ``plain`` on
the next load), and an empty one saves a snapshot that does not load.
``Corpus`` rejects both before anything is registered or written, the
protocol answers ``bad_request``, and ``corpus-update`` exits 1.
"""

from __future__ import annotations

import json

import pytest

from repro.api.service import SnippetService
from repro.corpus import Corpus
from repro.errors import DocumentNameError
from tests.test_compaction import run_cli, tree_bytes

DOCUMENT = "<shop><name>Levis</name></shop>"
BAD_NAMES = ("", "a\nremove plain", "a\rb", "a\r\nb", "\n")


@pytest.mark.parametrize("name", BAD_NAMES)
def test_the_corpus_registers_nothing(name):
    corpus = Corpus()
    with pytest.raises(DocumentNameError, match="line break"):
        corpus.add_xml(name, DOCUMENT)
    with pytest.raises(DocumentNameError):
        corpus.apply_update(name, Corpus().add_xml("shop", DOCUMENT).system.index.tree)
    assert corpus.names() == []


def test_a_name_with_spaces_and_tabs_still_round_trips(tmp_path):
    corpus = Corpus()
    corpus.add_xml("my\tshop  one", DOCUMENT)
    corpus.save_dir(tmp_path / "corpus")
    assert Corpus.load_dir(tmp_path / "corpus").names() == ["my\tshop  one"]


@pytest.mark.parametrize("name", BAD_NAMES[1:])  # the protocol rejects "" itself
def test_an_add_over_the_protocol_is_a_bad_request(name):
    corpus = Corpus()
    corpus.add_xml("plain", DOCUMENT)
    service = SnippetService(corpus)
    request = {"kind": "update", "schema_version": 1, "document": name, "xml": DOCUMENT}
    response = json.loads(service.handle_json(json.dumps(request)))
    assert (response["kind"], response["code"]) == ("error", "bad_request")
    assert corpus.names() == ["plain"]


def test_corpus_update_exits_1_and_leaves_the_directory_unchanged(tmp_path):
    plain = tmp_path / "plain.xml"
    plain.write_text(DOCUMENT, encoding="utf-8")
    added = tmp_path / "a.xml"
    added.write_text("<shop><name>Esprit</name></shop>", encoding="utf-8")
    directory = tmp_path / "jc"
    assert run_cli("corpus-save", "--file", str(plain), "--output", str(directory))[0] == 0
    before = tree_bytes(directory)

    code, output = run_cli(
        "corpus-update", "--corpus-dir", str(directory), "--file", str(added),
        "--name", "a\nremove plain",
    )
    assert code == 1
    assert output.startswith("error: ")
    assert tree_bytes(directory) == before
    assert not (directory / "corpus.journal").exists()
    assert Corpus.load_dir(directory).names() == ["plain"]
