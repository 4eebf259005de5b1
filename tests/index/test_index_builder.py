"""Tests for the IndexBuilder façade."""

from __future__ import annotations

from repro.index.builder import DocumentIndex, IndexBuilder
from repro.xmltree.dtd import parse_dtd
from repro.xmltree.builder import tree_from_dict


class TestIndexBuilder:
    def test_build_produces_document_index(self, small_retailer_tree):
        index = IndexBuilder().build(small_retailer_tree)
        assert isinstance(index, DocumentIndex)
        assert index.tree is small_retailer_tree
        assert index.name == small_retailer_tree.name

    def test_keyword_matches_delegates_to_inverted(self, small_index):
        assert len(small_index.keyword_matches("texas")) == 2
        assert small_index.keyword_matches("zzz").is_empty

    def test_analyzer_and_structure_consistent(self, small_index):
        for path, category in small_index.analyzer.categories.items():
            assert small_index.structure.category_of_path(path) == category

    def test_timings_recorded(self, small_retailer_tree):
        builder = IndexBuilder()
        builder.build(small_retailer_tree)
        assert list(builder.timings.phases) == [
            "paths", "schema", "keys", "bind", "inverted_index", "structure_index",
        ]

    def test_dtd_is_used_for_classification(self):
        # one store only; without DTD it would not be an entity
        tree = tree_from_dict("retailer", {"store": [{"name": "Galleria"}]})
        dtd = parse_dtd("<!ELEMENT retailer (store*)>")
        index = IndexBuilder(dtd=dtd).build(tree)
        assert "store" in index.analyzer.entity_tags()

    def test_repr(self, small_index):
        assert "nodes=" in repr(small_index)
