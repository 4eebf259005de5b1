"""Tests for journal compaction: fold corpus.journal into base snapshots."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.api import SearchRequest, SnippetService
from repro.cli import main
from repro.corpus import Corpus, compact_corpus_dir
from repro.errors import StorageError
from repro.index.storage import JOURNAL_FILE, read_corpus_journal
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string

QUERIES = ("store texas", "store nevada", "retailer apparel", "alpha")


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


def wire_all(directory) -> list[str]:
    corpus = Corpus.load_dir(directory)
    service = SnippetService(corpus)
    lines = []
    for name in corpus.names():
        for query in QUERIES:
            response = service.run(
                SearchRequest(query=query, document=name, size_bound=6)
            )
            lines.append(json.dumps(response.to_dict(), sort_keys=True))
    return lines


def journal_text_edit(corpus, directory, update_file) -> None:
    """Journal an incremental (text-only) update of ``figure5-stores``."""
    edited = clone_tree(corpus.system("figure5-stores").index.tree)
    for node in edited.iter_nodes():
        if node.text == "Texas":
            node.text = "Nevada"
    update_file.write_text(to_xml_string(edited), encoding="utf-8")
    assert run_cli("corpus-update", "--corpus-dir", str(directory), "--file", str(update_file))[0] == 0


@pytest.fixture()
def journalled_corpus(tmp_path):
    """A saved corpus with a journal holding every record kind: an
    incremental update, a structural replace, an add and a remove."""
    directory = tmp_path / "corpus"
    code, _ = run_cli(
        "corpus-save", "--dataset", "figure5-stores", "--dataset", "retail",
        "--dataset", "movies", "--output", str(directory),
    )
    assert code == 0

    corpus = Corpus.load_dir(directory)
    update_file = tmp_path / "figure5-stores.xml"
    journal_text_edit(corpus, directory, update_file)
    # structural replace
    structural = clone_tree(corpus.system("figure5-stores").index.tree)
    structural.root.append_child(type(structural.root)("annex"))
    update_file.write_text(to_xml_string(structural), encoding="utf-8")
    assert run_cli("corpus-update", "--corpus-dir", str(directory), "--file", str(update_file))[0] == 0
    # add + remove
    added = tmp_path / "extra.xml"
    added.write_text("<root><name>alpha</name></root>", encoding="utf-8")
    assert run_cli("corpus-update", "--corpus-dir", str(directory), "--file", str(added))[0] == 0
    assert run_cli("corpus-update", "--corpus-dir", str(directory), "--remove", "movies")[0] == 0
    assert len(read_corpus_journal(directory)) == 4
    return directory


class TestCompaction:
    def test_results_byte_identical_before_and_after(self, journalled_corpus):
        before = wire_all(journalled_corpus)
        report = compact_corpus_dir(journalled_corpus)
        assert report.records_folded == 4
        assert wire_all(journalled_corpus) == before

    def test_compaction_reads_the_journal_and_manifest_once(
        self, journalled_corpus, monkeypatch
    ):
        # The staged load hands compaction the records and the resolved
        # subdir -> name map it read on the way: nothing is parsed twice.
        from repro.index import storage

        calls = {"read_corpus_journal": 0, "read_corpus_manifest": 0}
        for name in calls:
            def counted(directory, _read=getattr(storage, name), _name=name):
                calls[_name] += 1
                return _read(directory)

            monkeypatch.setattr(storage, name, counted)
        assert compact_corpus_dir(journalled_corpus).records_folded == 4
        assert calls == {"read_corpus_journal": 1, "read_corpus_manifest": 1}

    def test_journal_and_orphan_snapshots_gone(self, journalled_corpus):
        compact_corpus_dir(journalled_corpus)
        assert not os.path.exists(os.path.join(journalled_corpus, JOURNAL_FILE))
        # only the manifest and one subdirectory per live document remain
        corpus = Corpus.load_dir(journalled_corpus)
        subdirs = [
            entry
            for entry in os.listdir(journalled_corpus)
            if os.path.isdir(os.path.join(journalled_corpus, entry))
        ]
        assert len(subdirs) == len(corpus)

    def test_compacted_corpus_loads_without_replay(self, journalled_corpus):
        compact_corpus_dir(journalled_corpus)
        assert read_corpus_journal(journalled_corpus) == []
        corpus = Corpus.load_dir(journalled_corpus)
        assert "movies" not in corpus
        assert "extra" in corpus

    def test_staging_leftovers_are_cleared(self, journalled_corpus):
        # A previous crash can leave the staging/backup siblings behind;
        # the next compaction must clear them, not trip over them.
        staging = f"{os.path.normpath(os.fspath(journalled_corpus))}.compacting"
        backup = f"{os.path.normpath(os.fspath(journalled_corpus))}.pre-compact"
        os.makedirs(os.path.join(staging, "junk"))
        os.makedirs(os.path.join(backup, "junk"))
        before = wire_all(journalled_corpus)
        compact_corpus_dir(journalled_corpus)
        assert not os.path.exists(staging)
        assert not os.path.exists(backup)
        assert wire_all(journalled_corpus) == before

    def test_compacting_a_journal_free_corpus_is_a_noop_fold(self, journalled_corpus):
        compact_corpus_dir(journalled_corpus)
        before = wire_all(journalled_corpus)
        report = compact_corpus_dir(journalled_corpus)
        assert report.records_folded == 0
        assert wire_all(journalled_corpus) == before

    def test_corrupt_corpus_is_refused_untouched(self, journalled_corpus):
        journal = os.path.join(journalled_corpus, JOURNAL_FILE)
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("#extract-corpus-journal v1\nupdate ghost 1\n")
        with pytest.raises(StorageError):
            compact_corpus_dir(journalled_corpus)
        # the broken directory is left exactly as it was for inspection
        assert os.path.exists(journal)

    def test_cli_command(self, journalled_corpus):
        code, output = run_cli("corpus-compact", "--corpus-dir", str(journalled_corpus))
        assert code == 0
        assert "folded 4 journal record(s)" in output
        code, output = run_cli("corpus-compact", "--corpus-dir", str(journalled_corpus))
        assert code == 0
        assert "folded 0 journal record(s)" in output


def tree_bytes(directory) -> dict[str, bytes]:
    """Every file under ``directory``, keyed by relative path."""
    snapshot = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, directory)] = handle.read()
    return snapshot


class TestJournalFreeByteStability:
    """Compacting a journal-free corpus copies its ``snapshot.bin`` files
    verbatim — it must not re-serialise untouched documents."""

    def test_compaction_is_byte_stable(self, tmp_path):
        directory = tmp_path / "corpus"
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        corpus.add_builtin("retail", name="retail")
        corpus.save_dir(directory)

        before = tree_bytes(directory)
        report = compact_corpus_dir(directory)
        assert report.records_folded == 0
        assert tree_bytes(directory) == before

    def test_journalled_compaction_preserves_untouched_documents(self, journalled_corpus):
        # Only the journalled documents are rewritten; 'retail' has no
        # journal record, so its snapshot bytes are carried over verbatim.
        before = tree_bytes(journalled_corpus)
        compact_corpus_dir(journalled_corpus)
        after = tree_bytes(journalled_corpus)
        retail_files = {
            rel: data for rel, data in before.items() if rel.startswith("retail" + os.sep)
        }
        assert retail_files
        for rel, data in retail_files.items():
            assert after.get(rel) == data
