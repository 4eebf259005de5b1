"""Tests for index persistence."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, save_index


class TestSaveLoad:
    def test_round_trip(self, small_index, tmp_path):
        directory = tmp_path / "idx"
        save_index(small_index, directory)
        assert (directory / "document.xml").exists()
        assert (directory / "inverted.idx").exists()

        loaded = load_index(directory)
        assert loaded.tree.size_nodes == small_index.tree.size_nodes
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary
        assert loaded.keyword_matches("texas").to_strings() == small_index.keyword_matches(
            "texas"
        ).to_strings()

    def test_loaded_index_searchable(self, small_index, tmp_path):
        from repro.search.engine import SearchEngine

        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        results = SearchEngine(loaded).search("store texas")
        assert len(results) == 2

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_index(tmp_path / "does-not-exist")

    def test_missing_index_file_raises(self, small_index, tmp_path):
        directory = tmp_path / "idx"
        save_index(small_index, directory)
        os.remove(directory / "inverted.idx")
        with pytest.raises(StorageError):
            load_index(directory)

    def test_bad_header_raises(self, small_index, tmp_path):
        directory = tmp_path / "idx"
        save_index(small_index, directory)
        (directory / "inverted.idx").write_text("garbage\n", encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(directory)

    def test_node_count_mismatch_raises(self, small_index, tmp_path):
        directory = tmp_path / "idx"
        save_index(small_index, directory)
        index_file = directory / "inverted.idx"
        content = index_file.read_text(encoding="utf-8").replace(
            f"#nodes {small_index.tree.size_nodes}", "#nodes 9999"
        )
        index_file.write_text(content, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(directory)

    def test_save_creates_directory(self, small_index, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        save_index(small_index, nested)
        assert nested.exists()


class TestSnapshotV3:
    def test_document_name_survives_round_trip(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.tree.name == small_index.tree.name == "small-retailer"

    def test_snapshot_contains_all_sections(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        content = (tmp_path / "idx" / "inverted.idx").read_text(encoding="utf-8")
        lines = content.splitlines()
        assert lines[0] == "#extract-index v3"
        assert any(line.startswith("#summary entity=") for line in lines)
        assert any(line.startswith("#counts terms=") for line in lines)
        assert any(line.startswith("T ") for line in lines)
        assert any(line.startswith("P ") for line in lines)
        assert lines[-1] == "#end"

    def test_truncated_snapshot_raises(self, small_index, tmp_path):
        # Cut the file mid-way: the missing #end sentinel (and short
        # section counts) must be rejected before any posting is trusted.
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        cut = len(lines) // 2
        index_file.write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match="truncated"):
            load_index(tmp_path / "idx")

    def test_missing_end_sentinel_raises(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        index_file.write_text(content.replace("#end\n", ""), encoding="utf-8")
        with pytest.raises(StorageError, match="#end"):
            load_index(tmp_path / "idx")

    def test_dropped_posting_line_raises(self, small_index, tmp_path):
        # Remove one T line but keep the sentinel: the #counts section
        # still detects the loss.
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        survivors = [line for line in lines if not line.startswith("T texas")]
        assert len(survivors) == len(lines) - 1
        index_file.write_text("\n".join(survivors) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(tmp_path / "idx")

    def test_content_after_end_sentinel_is_ignored(self, small_index, tmp_path):
        # #end terminates the snapshot: a concatenated fragment must not be
        # able to override the validated header sections.
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        index_file.write_text(
            content + "#counts terms=0 paths=0\n#document hijacked\nT bogus 9.9\n",
            encoding="utf-8",
        )
        loaded = load_index(tmp_path / "idx")
        assert loaded.tree.name == small_index.tree.name
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary

    def test_v2_snapshot_still_loads(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        v2_lines = ["#extract-index v2"] + [
            line
            for line in lines[1:]
            if not line.startswith("#counts") and line != "#end"
        ]
        index_file.write_text("\n".join(v2_lines) + "\n", encoding="utf-8")
        loaded = load_index(tmp_path / "idx")
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary

    def test_structure_paths_round_trip(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.structure.known_paths == small_index.structure.known_paths

    def test_postings_byte_identical_round_trip(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        original = small_index.inverted.postings_dict()
        restored = loaded.inverted.postings_dict()
        assert sorted(original) == sorted(restored)
        for term, postings in original.items():
            assert restored[term].to_strings() == postings.to_strings(), term

    def test_repeated_save_load_is_stable(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "a")
        first = load_index(tmp_path / "a")
        save_index(first, tmp_path / "b")
        second = load_index(tmp_path / "b")
        content_a = (tmp_path / "a" / "inverted.idx").read_text(encoding="utf-8")
        content_b = (tmp_path / "b" / "inverted.idx").read_text(encoding="utf-8")
        assert content_a == content_b
        assert second.inverted.vocabulary == first.inverted.vocabulary

    def test_v1_snapshot_still_loads(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        v1_lines = ["#extract-index v1"] + [
            line
            for line in lines[1:]
            if not line.startswith(("#summary", "#counts", "P ")) and line != "#end"
        ]
        index_file.write_text("\n".join(v1_lines) + "\n", encoding="utf-8")
        loaded = load_index(tmp_path / "idx")
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary

    def test_tampered_summary_raises(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        tampered = content.replace("#summary entity=", "#summary entity=9")
        index_file.write_text(tampered, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(tmp_path / "idx")

    def test_tampered_structure_paths_raise(self, small_index, tmp_path):
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        tampered = content.replace("P retailer ", "P bogus-path ", 1)
        index_file.write_text(tampered, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(tmp_path / "idx")

    def test_search_results_identical_after_load(self, small_index, tmp_path):
        from repro.system import ExtractSystem

        before = ExtractSystem(small_index).run_query("store texas", size_bound=6)
        save_index(small_index, tmp_path / "idx")
        after = ExtractSystem(load_index(tmp_path / "idx")).run_query("store texas", size_bound=6)
        assert before.render_text() == after.render_text()

    def test_vocabulary_term_drift_raises(self, small_index, tmp_path):
        # Same term COUNT but different term names must be rejected: a
        # size-only check would silently serve wrong results.
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        tampered = content.replace("T texas ", "T ztexas ", 1)
        index_file.write_text(tampered, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(tmp_path / "idx")

    def test_tampered_structure_labels_raise(self, small_index, tmp_path):
        # Path names intact but posting labels drifted: also rejected.
        save_index(small_index, tmp_path / "idx")
        index_file = tmp_path / "idx" / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        for position, line in enumerate(lines):
            if line.startswith("P ") and line.count(" ") >= 2:
                prefix, _, labels = line.rpartition(" ")
                lines[position] = f"{prefix} 99.99.99"
                break
        index_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(tmp_path / "idx")
