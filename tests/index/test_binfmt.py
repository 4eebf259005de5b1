"""Tests for the v4 binary snapshot format (repro.index.binfmt).

The contract under test: a v4 snapshot round-trips a built index
bit-for-bit (same postings, same structure, same analyzer), the bytes are
deterministic, corruption anywhere in the file is rejected with
:class:`~repro.errors.StorageError` by the load, before any posting is
trusted, and the loaded index is a plain
:class:`~repro.index.inverted.InvertedIndex` that answers exactly what
the built one answers.
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest

from repro.corpus import Corpus
from repro.errors import StorageError
from repro.index import binfmt
from repro.index.binfmt import (
    BINARY_FILE,
    BINARY_FORMAT_VERSION,
    build_binary_snapshot,
    load_binary_index,
    write_binary_index,
)
from repro.index.inverted import InvertedIndex
from repro.index.storage import load_index, save_index
from tests.cli_process import spawn_cli


def snapshot_path(directory):
    return os.path.join(os.fspath(directory), BINARY_FILE)


def assert_equivalent(loaded, original):
    """The loaded index serves exactly what the original serves."""
    assert loaded.tree.name == original.tree.name
    assert loaded.tree.size_nodes == original.tree.size_nodes
    assert loaded.inverted.vocabulary == original.inverted.vocabulary
    assert loaded.inverted.postings_dict() == original.inverted.postings_dict()
    assert loaded.structure.known_tags == original.structure.known_tags
    assert loaded.structure.known_paths == original.structure.known_paths
    for path in original.structure.known_paths:
        assert loaded.structure.instances_of_path(path) == original.structure.instances_of_path(path)
        assert loaded.structure.instances_of_path(path).shape is loaded.tree.shape
        assert loaded.structure.category_of_path(path) == original.structure.category_of_path(path)


class TestRoundTrip:
    def test_single_file_layout(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        assert os.listdir(tmp_path / "idx") == [BINARY_FILE]

    def test_round_trip(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        loaded = load_binary_index(tmp_path / "idx")
        assert type(loaded.inverted) is InvertedIndex
        assert_equivalent(loaded, small_index)

    def test_loaded_index_searchable(self, small_index, tmp_path):
        from repro.search.engine import SearchEngine

        write_binary_index(small_index, tmp_path / "idx")
        loaded = load_binary_index(tmp_path / "idx")
        results = SearchEngine(loaded).search("store texas")
        assert len(results) == 2

    def test_indexed_nodes_is_the_node_count(self, small_index, tmp_path):
        # indexed_nodes is the document's node count on every path — as
        # built, as loaded, and after an incremental update — not the sum
        # of posting-list lengths the loaders used to report.
        nodes = small_index.tree.size_nodes
        assert small_index.inverted.indexed_nodes == nodes
        assert sum(len(p) for p in small_index.inverted.postings_dict().values()) != nodes
        write_binary_index(small_index, tmp_path / "v4")
        loaded = load_binary_index(tmp_path / "v4").inverted
        assert loaded.indexed_nodes == nodes
        assert loaded.apply_delta({"fresh": {1}}, {}).indexed_nodes == nodes

    def test_deterministic_bytes(self, small_index):
        assert build_binary_snapshot(small_index) == build_binary_snapshot(small_index)

    def test_resave_is_byte_stable(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "a")
        loaded = load_binary_index(tmp_path / "a")
        write_binary_index(loaded, tmp_path / "b")
        with open(snapshot_path(tmp_path / "a"), "rb") as first:
            with open(snapshot_path(tmp_path / "b"), "rb") as second:
                assert first.read() == second.read()

    def test_save_index_rejects_unknown_version(self, small_index, tmp_path):
        with pytest.raises(StorageError):
            save_index(small_index, tmp_path / "idx", format_version=99)

    def test_pre_post_level_survive_round_trip(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        loaded = load_binary_index(tmp_path / "idx")
        original_ids = {
            node.dewey: (node.pre, node.post, node.level)
            for node in small_index.tree.iter_nodes()
        }
        for node in loaded.tree.iter_nodes():
            assert original_ids[node.dewey] == (node.pre, node.post, node.level)

    def test_analyzer_survives_round_trip(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        loaded = load_binary_index(tmp_path / "idx")
        original = small_index.analyzer
        assert loaded.analyzer.categories == original.categories
        assert loaded.analyzer.entity_types == original.entity_types
        assert (loaded.analyzer.dtd is None) == (original.dtd is None)
        if original.dtd is not None:
            assert set(loaded.analyzer.dtd.elements) == set(original.dtd.elements)


class TestCorruption:
    """Every corruption is rejected before any posting is trusted."""

    @pytest.fixture()
    def binary_dir(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        return tmp_path / "idx"

    def corrupt(self, directory, mutate):
        path = snapshot_path(directory)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data = mutate(data)
        with open(path, "wb") as handle:
            handle.write(bytes(data))

    def test_bad_magic(self, binary_dir):
        self.corrupt(binary_dir, lambda d: b"NOTMAGIC" + bytes(d[8:]))
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_wrong_format_version(self, binary_dir):
        def bump_version(data):
            struct.pack_into("<I", data, 8, BINARY_FORMAT_VERSION + 1)
            return data

        self.corrupt(binary_dir, bump_version)
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_truncated_offset_table(self, binary_dir):
        # Header survives, the section table does not.
        self.corrupt(binary_dir, lambda d: d[:20])
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_truncated_tail(self, binary_dir):
        self.corrupt(binary_dir, lambda d: d[:-5])
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_flipped_payload_byte_fails_checksum(self, binary_dir):
        def flip(data):
            data[len(data) // 2] ^= 0xFF
            return data

        self.corrupt(binary_dir, flip)
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_flipped_checksum_byte(self, binary_dir):
        def flip(data):
            data[-12] ^= 0xFF  # first byte of the crc32 trailer
            return data

        self.corrupt(binary_dir, flip)
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_empty_file(self, binary_dir):
        self.corrupt(binary_dir, lambda d: bytearray())
        with pytest.raises(StorageError):
            load_binary_index(binary_dir)

    def test_load_index_dispatch_propagates_corruption(self, binary_dir):
        self.corrupt(binary_dir, lambda d: d[:-5])
        with pytest.raises(StorageError):
            load_index(binary_dir)

    def test_corrupt_snapshot_leaves_no_partial_corpus(self, small_retailer_tree, tmp_path):
        corpus = Corpus()
        corpus.add_tree("alpha", small_retailer_tree)
        corpus.add_builtin("figure5-stores", name="beta")
        corpus.save_dir(tmp_path / "corpus")
        victim = None
        for entry in sorted(os.listdir(tmp_path / "corpus")):
            candidate = tmp_path / "corpus" / entry / BINARY_FILE
            if candidate.exists():
                victim = candidate
                break
        assert victim is not None
        victim.write_bytes(victim.read_bytes()[:-5])
        with pytest.raises(StorageError):
            Corpus.load_dir(tmp_path / "corpus")


def patch_posting_id(data: bytearray, section_id: int, entry: int, position: int, value: int):
    """Overwrite one u32 id of one blob of a directory section and recompute
    the checksum, so that the id check itself is what has to notice."""
    for slot in range(len(binfmt._REQUIRED_SECTIONS)):
        found, section, _ = binfmt._TABLE_ENTRY.unpack_from(
            data, binfmt._HEADER.size + binfmt._TABLE_ENTRY.size * slot
        )
        if found == section_id:
            break
    _, count, blob = binfmt._DIR_ENTRY.unpack_from(
        data, section + binfmt._U32.size + binfmt._DIR_ENTRY.size * entry
    )
    struct.pack_into("<I", data, section + blob + 4 * (position % count), value)
    body = len(data) - binfmt._TRAILER.size
    struct.pack_into("<I", data, body, zlib.crc32(bytes(data[:body])))
    return data


def write_corrupt_texas_corpus(tree, directory) -> None:
    """A one-document corpus directory whose ``texas`` posting blob holds
    an id past the end of the document, under a valid checksum."""
    corpus = Corpus()
    corpus.add_tree("doc", tree)
    (subdir,) = corpus.save_dir(directory)
    entry = corpus.system("doc").index.inverted.vocabulary.index("texas")
    path = snapshot_path(directory / subdir)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    patch_posting_id(data, binfmt._SEC_POSTINGS, entry, -1, 10**6)
    with open(path, "wb") as handle:
        handle.write(bytes(data))


class RegistrationCounter(Corpus):
    """A corpus that records every document it registers."""

    registered: list[str] = []

    def _register(self, name, system, replace=False):
        RegistrationCounter.registered.append(name)
        return super()._register(name, system, replace=replace)


class TestHostileIds:
    """A ``pre`` id names a position, so one that names no node of this
    document — or the wrong one — is a StorageError where the list is
    decoded, never an IndexError or a plausible answer later."""

    corrupt = TestCorruption.corrupt

    @pytest.fixture()
    def binary_dir(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        return tmp_path / "idx"

    @pytest.mark.parametrize(
        "position, value",
        [(-1, 10**6), (-1, None), (0, 2**32 - 1), (1, 0)],
        ids=["past-the-end", "the-node-count", "minus-one-as-u32", "descending"],
    )
    def test_keyword_blob(self, small_index, binary_dir, position, value):
        vocabulary = small_index.inverted.vocabulary  # sorted, like the directory
        entry = vocabulary.index("texas")
        assert len(small_index.inverted.postings_dict()["texas"]) == 2
        if value is None:
            value = small_index.tree.size_nodes  # the smallest id out of range
        self.corrupt(
            binary_dir,
            lambda d: patch_posting_id(d, binfmt._SEC_POSTINGS, entry, position, value),
        )
        # every list is decoded at load: the load fails, naming the term,
        # and no search over the index ever sees the list
        with pytest.raises(StorageError, match="postings for 'texas'") as raised:
            load_binary_index(binary_dir)
        assert "ids must ascend and stay below" in str(raised.value)

    def test_keyword_blob_fails_the_corpus_load(self, small_retailer_tree, tmp_path):
        directory = tmp_path / "corpus"
        write_corrupt_texas_corpus(small_retailer_tree, directory)
        RegistrationCounter.registered = []
        with pytest.raises(StorageError, match="postings for 'texas'"):
            RegistrationCounter.load_dir(directory)
        assert RegistrationCounter.registered == []

    def test_serve_exits_1_with_an_error_line_and_no_traceback(
        self, small_retailer_tree, tmp_path
    ):
        directory = tmp_path / "corpus"
        write_corrupt_texas_corpus(small_retailer_tree, directory)
        process = spawn_cli("serve", "--corpus-dir", str(directory), "--port", "0")
        try:
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 1
        assert stdout.startswith("error: ")
        assert "postings for 'texas'" in stdout
        assert "Traceback" not in stderr

    def test_structure_blob_out_of_range(self, small_index, binary_dir):
        self.corrupt(
            binary_dir,
            lambda d: patch_posting_id(d, binfmt._SEC_STRUCTURE, 0, -1, small_index.tree.size_nodes),
        )
        with pytest.raises(StorageError, match="structure postings"):
            load_binary_index(binary_dir)

    def test_structure_lists_must_cover_every_node_once(self, small_index, binary_dir):
        # the last path's last instance renamed to a node another path
        # already lists: still ascending and in range, the count is right,
        # but one node is listed twice and one not at all
        paths = small_index.structure.known_paths
        instances = small_index.structure.instances_of_path(paths[-1])
        taken = instances[-1] - 1
        assert taken not in instances and (len(instances) < 2 or instances[-2] < taken)
        self.corrupt(
            binary_dir,
            lambda d: patch_posting_id(d, binfmt._SEC_STRUCTURE, len(paths) - 1, -1, taken),
        )
        with pytest.raises(StorageError, match="disagree with the tree"):
            load_binary_index(binary_dir)


class TestLoadedMatchesBuilt:
    """A loaded index is the built one: same class, same answers."""

    @pytest.fixture()
    def loaded(self, small_index, tmp_path):
        write_binary_index(small_index, tmp_path / "idx")
        return load_binary_index(tmp_path / "idx").inverted

    def test_lookup_matches_built(self, small_index, loaded):
        for term in sorted(small_index.inverted.vocabulary):
            assert loaded.lookup(term) == small_index.inverted.lookup(term)
            assert len(loaded.lookup(term)) >= 1

    def test_contains_term_matches_built(self, small_index, loaded):
        for term in ("texas", "stores", "zzz-absent"):
            assert loaded.contains_term(term) == small_index.inverted.contains_term(term)
        assert loaded.contains_term("texas")
        assert not loaded.contains_term("zzz-absent")

    def test_vocabulary_size_matches_built(self, small_index, loaded):
        assert loaded.vocabulary_size == small_index.inverted.vocabulary_size

    def test_apply_delta_matches_built(self, small_index, loaded):
        pre = small_index.inverted.lookup("texas")[0]
        added = {"fresh-term": {pre}}
        removed = {"texas": {pre}}
        loaded_after = loaded.apply_delta(added, removed)
        built_after = small_index.inverted.apply_delta(added, removed)
        assert loaded_after.postings_dict() == built_after.postings_dict()
