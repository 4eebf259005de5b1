"""Tests for the corpus manager."""

from __future__ import annotations

import os

import pytest

from repro.corpus import Corpus, builtin_dataset_names
from repro.errors import DatasetError, ExtractError
from repro.xmltree.serialize import to_xml_string


class TestRegistration:
    def test_add_tree_and_query(self, small_retailer_tree):
        corpus = Corpus()
        entry = corpus.add_tree("retailer", small_retailer_tree)
        assert entry.name == "retailer"
        assert entry.node_count == small_retailer_tree.size_nodes
        assert "store" in entry.entity_tags
        outcome = corpus.system("retailer").run_query("store texas", size_bound=6)
        assert len(outcome) == 2

    def test_add_xml(self):
        corpus = Corpus()
        corpus.add_xml("tiny", "<db><item><name>a</name></item><item><name>b</name></item></db>")
        assert "tiny" in corpus
        assert corpus.entry("tiny").node_count == 5

    def test_add_file(self, small_retailer_tree, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(to_xml_string(small_retailer_tree), encoding="utf-8")
        corpus = Corpus()
        entry = corpus.add_file(path)
        assert entry.name == "doc"
        assert len(corpus) == 1

    def test_add_builtin(self):
        corpus = Corpus()
        entry = corpus.add_builtin("figure5-stores")
        assert entry.node_count > 100
        assert "store" in entry.entity_tags

    def test_builtin_names_stable(self):
        names = builtin_dataset_names()
        assert {"figure1", "figure5-stores", "retail", "movies", "auctions", "bibliography"} <= set(names)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(DatasetError):
            Corpus().add_builtin("not-a-dataset")

    def test_duplicate_name_rejected(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("doc", small_retailer_tree)
        with pytest.raises(ExtractError):
            corpus.add_tree("doc", small_retailer_tree)

    def test_remove(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("doc", small_retailer_tree)
        corpus.remove("doc")
        assert "doc" not in corpus
        with pytest.raises(ExtractError):
            corpus.remove("doc")


class TestAccessAndQuerying:
    @pytest.fixture()
    def corpus(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("retailer", small_retailer_tree)
        corpus.add_builtin("figure5-stores", name="stores")
        return corpus

    def test_names_sorted(self, corpus):
        assert corpus.names() == ["retailer", "stores"]

    def test_unknown_entry_raises_with_hint(self, corpus):
        with pytest.raises(ExtractError) as excinfo:
            corpus.entry("missing")
        assert "registered" in str(excinfo.value)

    def test_summary_rows(self, corpus):
        rows = corpus.summary()
        assert [row["name"] for row in rows] == ["retailer", "stores"]
        assert all(row["nodes"] > 0 for row in rows)

    def test_iteration_and_len(self, corpus):
        assert len(corpus) == 2
        assert {entry.name for entry in corpus} == {"retailer", "stores"}

    def test_repr(self, corpus):
        assert "documents=2" in repr(corpus)


class TestReplaceRegistration:
    def test_duplicate_without_replace_raises(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("doc", small_retailer_tree)
        with pytest.raises(ExtractError):
            corpus.add_tree("doc", small_retailer_tree)

    def test_replace_swaps_document(self, small_retailer_tree):
        from repro.xmltree.builder import tree_from_dict

        corpus = Corpus()
        corpus.add_tree("doc", small_retailer_tree)
        other = tree_from_dict("db", {"item": [{"name": "zeta"}]}, name="doc")
        corpus.add_tree("doc", other, replace=True)
        assert corpus.entry("doc").node_count == other.size_nodes

    def test_replace_invalidates_old_caches(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("doc", small_retailer_tree)
        old_system = corpus.system("doc")
        corpus.system("doc").run_query("store texas")          # populate the cache
        assert len(old_system.cache) > 0
        corpus.add_tree("doc", small_retailer_tree, replace=True)
        assert len(old_system.cache) == 0           # explicitly invalidated
        assert corpus.system("doc") is not old_system
        # Fresh system: first query is a cold (uncached) evaluation.
        assert corpus.system("doc").run_query("store texas").from_cache is False

    def test_remove_invalidates_caches(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("doc", small_retailer_tree)
        system = corpus.system("doc")
        corpus.system("doc").run_query("store texas")
        corpus.remove("doc")
        assert len(system.cache) == 0


class TestCorpusPersistence:
    @pytest.fixture()
    def populated(self, small_retailer_tree):
        corpus = Corpus()
        corpus.add_tree("retailer", small_retailer_tree)
        corpus.add_builtin("figure5-stores", name="stores")
        corpus.add_builtin("movies")
        return corpus

    def test_save_dir_layout(self, populated, tmp_path):
        subdirs = populated.save_dir(tmp_path / "corpus")
        assert sorted(subdirs) == ["movies", "retailer", "stores"]
        assert (tmp_path / "corpus" / "corpus.manifest").exists()
        for subdir in subdirs:
            assert os.listdir(tmp_path / "corpus" / subdir) == ["snapshot.bin"]

    def test_round_trip_restores_names_and_sizes(self, populated, tmp_path):
        populated.save_dir(tmp_path / "corpus")
        loaded = Corpus.load_dir(tmp_path / "corpus")
        assert loaded.names() == populated.names()
        for name in populated.names():
            assert loaded.entry(name).node_count == populated.entry(name).node_count

    def test_round_trip_search_results_byte_identical(self, populated, tmp_path):
        queries = ["store texas", "movie drama", "clothes casual"]
        populated.save_dir(tmp_path / "corpus")
        loaded = Corpus.load_dir(tmp_path / "corpus")
        for query in queries:
            for name in populated.names():
                before = populated.system(name).run_query(query, size_bound=8, use_cache=False)
                after = loaded.system(name).run_query(query, size_bound=8, use_cache=False)
                assert before.render_text() == after.render_text(), (query, name)

    def test_load_dir_preserves_algorithm(self, small_retailer_tree, tmp_path):
        corpus = Corpus(algorithm="elca")
        corpus.add_tree("doc", small_retailer_tree)
        corpus.save_dir(tmp_path / "corpus")
        loaded = Corpus.load_dir(tmp_path / "corpus")
        assert loaded.algorithm == "elca"
        override = Corpus.load_dir(tmp_path / "corpus", algorithm="slca")
        assert override.algorithm == "slca"

    def test_load_missing_directory_raises(self, tmp_path):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            Corpus.load_dir(tmp_path / "nope")

    def test_load_bad_manifest_raises(self, tmp_path):
        from repro.errors import StorageError

        (tmp_path / "corpus.manifest").write_text("garbage\n", encoding="utf-8")
        with pytest.raises(StorageError):
            Corpus.load_dir(tmp_path)

    def test_awkward_document_names(self, small_retailer_tree, tmp_path):
        corpus = Corpus()
        corpus.add_tree("my doc / with ~ chars", small_retailer_tree)
        corpus.save_dir(tmp_path / "corpus")
        loaded = Corpus.load_dir(tmp_path / "corpus")
        assert loaded.names() == ["my doc / with ~ chars"]
        outcome = loaded.system("my doc / with ~ chars").run_query("store texas")
        assert len(outcome) == 2

    def test_round_trip_preserves_document_name(self, tmp_path):
        # Registered under a different name than the tree's own: both must
        # survive the round trip unchanged (ResultSet.document_name comes
        # from the tree, the registry key from the manifest).
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        tree_name = corpus.system("stores").index.tree.name
        before = corpus.system("stores").run_query("store texas", use_cache=False)
        corpus.save_dir(tmp_path / "corpus")
        loaded = Corpus.load_dir(tmp_path / "corpus")
        assert loaded.names() == ["stores"]
        assert loaded.system("stores").index.tree.name == tree_name
        after = loaded.system("stores").run_query("store texas", use_cache=False)
        assert after.results.document_name == before.results.document_name

    def test_case_colliding_names_get_distinct_subdirs(self, small_retailer_tree, tmp_path):
        from repro.xmltree.builder import tree_from_dict

        corpus = Corpus()
        corpus.add_tree("Doc", small_retailer_tree)
        corpus.add_tree("doc", tree_from_dict("db", {"item": [{"name": "zeta"}]}))
        subdirs = corpus.save_dir(tmp_path / "corpus")
        assert len({subdir.lower() for subdir in subdirs}) == 2
        loaded = Corpus.load_dir(tmp_path / "corpus")
        assert loaded.entry("Doc").node_count == small_retailer_tree.size_nodes
        assert loaded.entry("doc").node_count == 3
