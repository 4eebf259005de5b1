"""Tests for the structure index."""

from __future__ import annotations

import pytest

from repro.classify.analyzer import DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.errors import IndexNotBuiltError
from repro.index.structure import StructureIndex


@pytest.fixture()
def structure(small_retailer_tree):
    analyzer = DataAnalyzer(small_retailer_tree)
    return StructureIndex().build(small_retailer_tree, analyzer)


class TestLookups:
    def test_instances_of_path(self, structure, small_retailer_tree):
        path = ("retailer", "store", "city")
        cities = structure.instances_of_path(path)
        assert [small_retailer_tree.nodes_by_pre[pre] for pre in cities] == (
            small_retailer_tree.find_by_tag("city")
        )
        assert cities.shape is small_retailer_tree.shape
        assert structure.instances_of_path(("nope",)).is_empty

    def test_the_paths_partition_the_document(self, structure, small_retailer_tree):
        listed = sorted(
            pre for path in structure.known_paths for pre in structure.instances_of_path(path)
        )
        assert listed == list(range(small_retailer_tree.size_nodes))

    def test_category_of_path(self, structure):
        assert structure.category_of_path(("retailer", "store")) == NodeCategory.ENTITY
        assert structure.category_of_path(("other",)) == NodeCategory.CONNECTION

    def test_known_tags_and_paths(self, structure, small_retailer_tree):
        assert "store" in structure.known_tags
        assert structure.known_tags == sorted({node.tag for node in small_retailer_tree.iter_nodes()})
        assert ("retailer", "store") in structure.known_paths

    def test_entity_paths(self, structure):
        paths = structure.entity_paths()
        assert paths[0] == ("retailer", "store")

    def test_unbuilt_raises(self):
        with pytest.raises(IndexNotBuiltError):
            StructureIndex().instances_of_path(("x",))

    def test_repr(self, structure):
        assert "paths=" in repr(structure)
        assert "unbuilt" in repr(StructureIndex())
