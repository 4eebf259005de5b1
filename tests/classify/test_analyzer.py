"""Tests for the Data Analyzer façade."""

from __future__ import annotations

import pytest

from repro.classify.analyzer import DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.xmltree.builder import tree_from_dict


@pytest.fixture()
def analyzer(small_retailer_tree):
    return DataAnalyzer(small_retailer_tree)


class TestCategories:
    def test_entity_tags(self, analyzer):
        assert analyzer.entity_tags() == {"store", "clothes"}

    def test_category_of_instances(self, analyzer, small_retailer_tree):
        store = small_retailer_tree.find_by_tag("store")[0]
        city = small_retailer_tree.find_by_tag("city")[0]
        merchandises = small_retailer_tree.find_by_tag("merchandises")[0]
        assert analyzer.is_entity(store)
        assert analyzer.is_attribute(city)
        assert analyzer.is_connection(merchandises)

    def test_unknown_path_defaults_to_connection(self, analyzer):
        assert analyzer.category_of_path(("alien", "path")) == NodeCategory.CONNECTION

    def test_summary_counts(self, analyzer):
        counts = analyzer.summary()
        assert counts["entity"] == 2
        assert counts["attribute"] >= 5
        assert sum(counts.values()) == len(analyzer.categories)

    def test_repr_mentions_counts(self, analyzer):
        assert "entities=2" in repr(analyzer)


class TestEntityTypes:
    def test_entity_type_metadata(self, analyzer):
        store_type = analyzer.entity_type_by_tag("store")
        assert store_type is not None
        assert store_type.instance_count == 2
        assert set(store_type.attribute_tags) == {"name", "state", "city"}
        assert store_type.key is not None and store_type.key.attribute_tag == "name"

    def test_clothes_have_no_key(self, analyzer):
        clothes_type = analyzer.entity_type_by_tag("clothes")
        assert clothes_type is not None
        # category/fitting/situation values repeat, so no key attribute
        assert clothes_type.key is None

    def test_entity_type_by_tag_unknown(self, analyzer):
        assert analyzer.entity_type_by_tag("warehouse") is None

    def test_entity_type_of_node(self, analyzer, small_retailer_tree):
        store = small_retailer_tree.find_by_tag("store")[0]
        assert analyzer.entity_type_of(store).tag == "store"
        name = small_retailer_tree.find_by_tag("name")[0]
        assert analyzer.entity_type_of(name) is None

    def test_key_of_entity_path(self, analyzer):
        store_type = analyzer.entity_type_by_tag("store")
        assert analyzer.key_of_entity_path(store_type.tag_path) is store_type.key
        assert analyzer.key_of_entity_path(("nope",)) is None


class TestOwningEntity:
    def test_attribute_owned_by_nearest_entity(self, analyzer, small_retailer_tree):
        city = small_retailer_tree.find_by_tag("city")[0]
        assert analyzer.owning_entity(city).tag == "store"
        category = small_retailer_tree.find_by_tag("category")[0]
        assert analyzer.owning_entity(category).tag == "clothes"

    def test_entity_owns_itself(self, analyzer, small_retailer_tree):
        store = small_retailer_tree.find_by_tag("store")[0]
        assert analyzer.owning_entity(store) is store

    def test_node_without_entity_ancestor(self, analyzer, small_retailer_tree):
        # retailer-level attributes have no entity ancestor in this document
        name = small_retailer_tree.root.find_child("name")
        assert analyzer.owning_entity(name) is None

    def test_attribute_children(self, analyzer, small_retailer_tree):
        store = small_retailer_tree.find_by_tag("store")[0]
        tags = [child.tag for child in analyzer.attribute_children(store)]
        assert tags == ["name", "state", "city"]


class TestMultipleEntityPathsSameTag:
    def test_highest_path_preferred(self):
        tree = tree_from_dict(
            "db",
            {
                "item": [{"name": "top1"}, {"name": "top2"}],
                "box": {"item": [{"name": "nested1"}, {"name": "nested2"}]},
            },
        )
        analyzer = DataAnalyzer(tree)
        chosen = analyzer.entity_type_by_tag("item")
        assert chosen.tag_path == ("db", "item")

    def test_an_assembled_analyzer_reads_the_entity_types_it_was_given(self):
        from dataclasses import replace

        tree = tree_from_dict(
            "db",
            {
                "item": [{"name": "top1"}, {"name": "top2"}],
                "box": {"item": [{"name": "nested1"}, {"name": "nested2"}]},
            },
        )
        built = DataAnalyzer(tree)
        patched = dict(built.entity_types)
        patched[("db", "item")] = replace(patched[("db", "item")], key=None)
        rebound = DataAnalyzer.rebound(tree, None, built.schema, built.categories, patched)
        assert built.entity_type_by_tag("item").key is not None
        assert rebound.entity_type_by_tag("item") is patched[("db", "item")]
        same_shape = built.rebound_to_same_shape(tree, built.schema, patched, changed_pres=())
        assert same_shape.entity_type_by_tag("item") is patched[("db", "item")]
