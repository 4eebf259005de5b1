"""Tests for index persistence: the one writer (``snapshot.bin``) and the
read-only version 3 text reader (input from ``tests/index/v3_writer.py``)."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, save_index
from repro.xmltree.builder import tree_from_dict
from tests.index.v3_writer import write_v3_index


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

    def test_saving_over_a_text_snapshot_replaces_it(self, small_index, tmp_path):
        # Re-saving is the upgrade path: the stale document.xml + inverted.idx
        # must not outlive (or shadow) the fresh snapshot.
        directory = tmp_path / "idx"
        write_v3_index(small_index, directory)
        changed = IndexBuilder().build(
            tree_from_dict("retailer", {"name": "Levis"}, name="small-retailer")
        )
        save_index(changed, directory)
        assert os.listdir(directory) == ["snapshot.bin"]
        loaded = load_index(directory)
        assert len(loaded.keyword_matches("levis")) == 1
        assert loaded.keyword_matches("texas").is_empty


@pytest.fixture()
def v3_dir(small_index, tmp_path):
    """``small_index`` as the frozen v3 writer put it on disk."""
    write_v3_index(small_index, tmp_path / "idx")
    return tmp_path / "idx"


class TestSnapshotV3:
    def test_round_trip(self, small_index, v3_dir):
        assert sorted(os.listdir(v3_dir)) == ["document.xml", "inverted.idx"]
        loaded = load_index(v3_dir)
        assert loaded.tree.size_nodes == small_index.tree.size_nodes
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary

    def test_missing_index_file_raises(self, v3_dir):
        os.remove(v3_dir / "inverted.idx")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    def test_bad_header_raises(self, v3_dir):
        (v3_dir / "inverted.idx").write_text("garbage\n", encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    def test_node_count_mismatch_raises(self, small_index, v3_dir):
        index_file = v3_dir / "inverted.idx"
        content = index_file.read_text(encoding="utf-8").replace(
            f"#nodes {small_index.tree.size_nodes}", "#nodes 9999"
        )
        index_file.write_text(content, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    @pytest.mark.parametrize(
        "version, dropped",
        [(1, ("#summary", "#counts", "P ", "#end")), (2, ("#counts", "#end"))],
    )
    def test_older_text_versions_are_rejected_by_name(
        self, v3_dir, version, dropped
    ):
        # v1 and v2 had no truncation guard; the files are shaped as those
        # versions were written, so only the header can be what rejects them.
        index_file = v3_dir / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        old_lines = [f"#extract-index v{version}"] + [
            line for line in lines[1:] if not line.startswith(dropped)
        ]
        index_file.write_text("\n".join(old_lines) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match=f"#extract-index v{version}"):
            load_index(v3_dir)

    def test_document_name_survives_round_trip(self, small_index, v3_dir):
        loaded = load_index(v3_dir)
        assert loaded.tree.name == small_index.tree.name == "small-retailer"

    def test_snapshot_contains_all_sections(self, small_index, v3_dir):
        content = (v3_dir / "inverted.idx").read_text(encoding="utf-8")
        lines = content.splitlines()
        assert lines[0] == "#extract-index v3"
        assert any(line.startswith("#summary entity=") for line in lines)
        assert any(line.startswith("#counts terms=") for line in lines)
        assert any(line.startswith("T ") for line in lines)
        assert any(line.startswith("P ") for line in lines)
        assert lines[-1] == "#end"

    def test_truncated_snapshot_raises(self, small_index, v3_dir):
        # Cut the file mid-way: the missing #end sentinel (and short
        # section counts) must be rejected before any posting is trusted.
        index_file = v3_dir / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        cut = len(lines) // 2
        index_file.write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match="truncated"):
            load_index(v3_dir)

    def test_missing_end_sentinel_raises(self, small_index, v3_dir):
        index_file = v3_dir / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        index_file.write_text(content.replace("#end\n", ""), encoding="utf-8")
        with pytest.raises(StorageError, match="#end"):
            load_index(v3_dir)

    def test_dropped_posting_line_raises(self, small_index, v3_dir):
        # Remove one T line but keep the sentinel: the #counts section
        # still detects the loss.
        index_file = v3_dir / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        survivors = [line for line in lines if not line.startswith("T texas")]
        assert len(survivors) == len(lines) - 1
        index_file.write_text("\n".join(survivors) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    def test_content_after_end_sentinel_is_ignored(self, small_index, v3_dir):
        # #end terminates the snapshot: a concatenated fragment must not be
        # able to override the validated header sections.
        index_file = v3_dir / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        index_file.write_text(
            content + "#counts terms=0 paths=0\n#document hijacked\nT bogus 9.9\n",
            encoding="utf-8",
        )
        loaded = load_index(v3_dir)
        assert loaded.tree.name == small_index.tree.name
        assert loaded.inverted.vocabulary == small_index.inverted.vocabulary

    def test_structure_paths_round_trip(self, small_index, v3_dir):
        loaded = load_index(v3_dir)
        assert loaded.structure.known_paths == small_index.structure.known_paths

    def test_postings_byte_identical_round_trip(self, small_index, v3_dir):
        loaded = load_index(v3_dir)
        original = small_index.inverted.postings_dict()
        restored = loaded.inverted.postings_dict()
        assert sorted(original) == sorted(restored)
        for term, postings in original.items():
            assert restored[term] == postings, term
            assert restored[term].shape is loaded.tree.shape, term

    def test_repeated_save_load_is_stable(self, small_index, v3_dir, tmp_path):
        # The stored posting lists are authoritative: what the reader hands
        # back writes the same file again.
        first = load_index(v3_dir)
        write_v3_index(first, tmp_path / "again")
        content_a = (v3_dir / "inverted.idx").read_text(encoding="utf-8")
        content_b = (tmp_path / "again" / "inverted.idx").read_text(encoding="utf-8")
        assert content_a == content_b

    def test_tampered_summary_raises(self, small_index, v3_dir):
        index_file = v3_dir / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        tampered = content.replace("#summary entity=", "#summary entity=9")
        index_file.write_text(tampered, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    def test_tampered_structure_paths_raise(self, small_index, v3_dir):
        index_file = v3_dir / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        tampered = content.replace("P retailer ", "P bogus-path ", 1)
        index_file.write_text(tampered, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    def test_search_results_identical_after_load(self, small_index, v3_dir):
        from repro.system import ExtractSystem

        before = ExtractSystem(small_index).run_query("store texas", size_bound=6)
        after = ExtractSystem(load_index(v3_dir)).run_query("store texas", size_bound=6)
        assert before.render_text() == after.render_text()

    def test_vocabulary_term_drift_raises(self, small_index, v3_dir):
        # Same term COUNT but different term names must be rejected: a
        # size-only check would silently serve wrong results.
        index_file = v3_dir / "inverted.idx"
        content = index_file.read_text(encoding="utf-8")
        tampered = content.replace("T texas ", "T ztexas ", 1)
        index_file.write_text(tampered, encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    def test_tampered_structure_labels_raise(self, small_index, v3_dir):
        # Path names intact but posting labels drifted: also rejected.
        index_file = v3_dir / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        for position, line in enumerate(lines):
            if line.startswith("P ") and line.count(" ") >= 2:
                prefix, _, labels = line.rpartition(" ")
                lines[position] = f"{prefix} 99.99.99"
                break
        index_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            load_index(v3_dir)

    @pytest.mark.parametrize("label", ["99.99.99", "0.x"])
    def test_a_keyword_posting_outside_the_document_raises(self, small_index, v3_dir, label):
        # The stored keyword lists replace the rebuilt ones, and their
        # labels become positions in the stored document on the way in: a
        # label that document does not have (or that is no label) cannot.
        index_file = v3_dir / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        position = next(i for i, line in enumerate(lines) if line.startswith("T texas "))
        lines[position] += f" {label}"
        index_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match="stored postings for 'texas'"):
            load_index(v3_dir)
