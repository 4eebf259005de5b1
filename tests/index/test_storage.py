"""Tests for index persistence: the one writer and reader (``snapshot.bin``).

A text snapshot of an older build is rejected: see
``tests/index/test_text_snapshot_rejected.py``."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, save_index
from repro.system import ExtractSystem
from repro.xmltree.builder import tree_from_dict


class TestSaveLoad:
    def test_round_trip(self, small_index, tmp_path):
        directory = tmp_path / "idx"
        save_index(small_index, directory)
        assert os.listdir(directory) == ["snapshot.bin"]

        loaded = load_index(directory)
        assert loaded.tree.size_nodes == small_index.tree.size_nodes
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary
        assert len(loaded.keyword_matches("texas")) == 2
        assert loaded.keyword_matches("texas") == small_index.keyword_matches("texas")

    def test_loaded_index_searchable(self, small_index, tmp_path):
        from repro.search.engine import SearchEngine

        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        results = SearchEngine(loaded).search("store texas")
        assert len(results) == 2

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_index(tmp_path / "does-not-exist")

    def test_save_creates_directory(self, small_index, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        save_index(small_index, nested)
        assert nested.exists()

    def test_format_version_is_a_one_valued_assertion(self, small_index, tmp_path):
        # benchmarks/e2e still spells format_version=4; nothing else is writable
        save_index(small_index, tmp_path / "idx", format_version=4)
        assert os.listdir(tmp_path / "idx") == ["snapshot.bin"]
        with pytest.raises(StorageError, match="version 3"):
            save_index(small_index, tmp_path / "text", format_version=3)
        assert not (tmp_path / "text").exists()

    def test_saving_over_a_snapshot_replaces_it(self, small_index, tmp_path):
        directory = tmp_path / "idx"
        save_index(small_index, directory)
        changed = IndexBuilder().build(
            tree_from_dict("retailer", {"name": "Levis"}, name="small-retailer")
        )
        save_index(changed, directory)
        assert os.listdir(directory) == ["snapshot.bin"]
        loaded = load_index(directory)
        assert len(loaded.keyword_matches("levis")) == 1
        assert loaded.keyword_matches("texas").is_empty

    def test_document_name_survives_round_trip(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.tree.name == small_index.tree.name == "small-retailer"

    def test_postings_identical_round_trip(self, small_index, tmp_path):
        # every stored list comes back equal, and over the loaded tree
        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        original = small_index.inverted.postings_dict()
        restored = loaded.inverted.postings_dict()
        assert sorted(original) == sorted(restored)
        for term, postings in original.items():
            assert restored[term] == postings, term
            assert restored[term].shape is loaded.tree.shape, term

    def test_search_results_identical_after_load(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        before = ExtractSystem(small_index).run_query("store texas", size_bound=6)
        after = ExtractSystem(load_index(tmp_path / "idx")).run_query("store texas", size_bound=6)
        assert before.render_text() == after.render_text()
