"""A text snapshot is rejected at every entry point that opens a snapshot.

Builds before format version 4 wrote a document as ``document.xml`` plus an
``inverted.idx`` whose first line is ``#extract-index v<N>``.  Nothing reads
that format any more: ``load_index``, ``Corpus.load_dir``, ``corpus-compact``
and ``serve --corpus-dir`` all fail with a ``StorageError`` that names the
last commit whose ``corpus-compact`` rewrites such a directory, and leave
the directory as it was.  The directories are written here by hand — a
header and a document are all the rejection looks at.
"""

from __future__ import annotations

import os

import pytest

from repro.corpus import Corpus
from repro.errors import StorageError
from repro.index.storage import load_index, save_index, write_corpus_manifest
from tests.cli_process import spawn_cli
from tests.test_compaction import run_cli, tree_bytes

LAST_TEXT_READER = "356af2d"
DOCUMENT = "<shop><store><name>Levis</name><state>Texas</state></store></shop>"
TEXT_VERSIONS = ("v3", "v2", "v1")


def write_text_snapshot(directory, version: str = "v3") -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "document.xml"), "w", encoding="utf-8") as handle:
        handle.write(DOCUMENT)
    with open(os.path.join(directory, "inverted.idx"), "w", encoding="utf-8") as handle:
        handle.write(f"#extract-index {version}\n#document shop\nT levis 0.0.0\n#end\n")


def write_text_corpus(directory, version: str = "v3") -> None:
    """A corpus directory an older build saved: one text snapshot plus the
    manifest (whose format has not changed)."""
    write_text_snapshot(os.path.join(directory, "shop"), version)
    write_corpus_manifest(directory, "slca", [("shop", "shop")])


def assert_names_the_last_reader(message: str) -> None:
    assert "text snapshot" in message
    assert LAST_TEXT_READER in message
    assert "corpus-compact" in message


@pytest.mark.parametrize("version", TEXT_VERSIONS)
def test_load_index_raises(tmp_path, version):
    write_text_snapshot(tmp_path, version)
    with pytest.raises(StorageError) as raised:
        load_index(tmp_path)
    assert_names_the_last_reader(str(raised.value))


@pytest.mark.parametrize("version", TEXT_VERSIONS)
def test_load_dir_registers_nothing(tmp_path, version):
    directory = tmp_path / "corpus"
    write_text_corpus(directory, version)
    with pytest.raises(StorageError) as raised:
        Corpus.load_dir(directory)
    assert_names_the_last_reader(str(raised.value))


def test_a_journalled_text_snapshot_is_rejected_too(tmp_path):
    # a journal record whose snapshot subdirectory holds text fails the
    # same way as a base snapshot does
    directory = tmp_path / "corpus"
    base = Corpus()
    base.add_xml("base", DOCUMENT)
    base.save_dir(directory)
    write_text_snapshot(directory / "shop")
    with open(directory / "corpus.journal", "w", encoding="utf-8") as handle:
        handle.write("#extract-corpus-journal v1\nadd shop shop\n")
    with pytest.raises(StorageError) as raised:
        Corpus.load_dir(directory)
    assert_names_the_last_reader(str(raised.value))


@pytest.mark.parametrize("version", TEXT_VERSIONS)
def test_corpus_compact_exits_1_and_leaves_the_directory_as_it_was(tmp_path, version):
    directory = tmp_path / "corpus"
    write_text_corpus(directory, version)
    before = tree_bytes(directory)
    code, output = run_cli("corpus-compact", "--corpus-dir", str(directory))
    assert code == 1
    assert output.startswith("error: ")
    assert_names_the_last_reader(output)
    assert tree_bytes(directory) == before
    assert sorted(os.listdir(tmp_path)) == ["corpus"]  # no staging or backup


def test_serve_exits_1_with_an_error_line_and_no_traceback(tmp_path):
    directory = tmp_path / "corpus"
    write_text_corpus(directory)
    process = spawn_cli("serve", "--corpus-dir", str(directory), "--port", "0")
    try:
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 1
    assert stdout.startswith("error: ")
    assert_names_the_last_reader(stdout)
    assert "Traceback" not in stderr


def test_a_text_file_beside_a_snapshot_bin_has_no_effect(small_index, tmp_path):
    # saving over a text snapshot leaves its files in place; snapshot.bin
    # is always the file that loads
    write_text_snapshot(tmp_path)
    save_index(small_index, tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["document.xml", "inverted.idx", "snapshot.bin"]
    loaded = load_index(tmp_path)
    assert loaded.tree.name == small_index.tree.name
    assert loaded.keyword_matches("texas") == small_index.keyword_matches("texas")
    assert not loaded.inverted.contains_term("levis")
