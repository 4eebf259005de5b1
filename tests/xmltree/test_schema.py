"""Tests for schema inference and *-node detection from data."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.dtd import parse_dtd
from repro.xmltree.schema import infer_schema


@pytest.fixture()
def retailer_tree():
    return tree_from_dict(
        "retailer",
        {
            "name": "Brook Brothers",
            "store": [
                {"city": "Houston", "merchandises": {"clothes": [{"category": "suit"}, {"category": "outwear"}]}},
                {"city": "Austin", "merchandises": {"clothes": [{"category": "skirt"}]}},
            ],
        },
    )


class TestStarNodeDetection:
    def test_repeated_child_is_star(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        assert schema.is_star_node(("retailer", "store"))
        assert schema.is_star_node(("retailer", "store", "merchandises", "clothes"))

    def test_single_child_is_not_star(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        assert not schema.is_star_node(("retailer", "name"))
        assert not schema.is_star_node(("retailer", "store", "city"))
        assert not schema.is_star_node(("retailer", "store", "merchandises"))

    def test_root_is_never_star(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        assert not schema.is_star_node(("retailer",))

    def test_unknown_path_raises(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        with pytest.raises(SchemaError):
            schema.is_star_node(("retailer", "warehouse"))
        with pytest.raises(SchemaError):
            schema.node_for(("nope",))

    def test_star_node_paths_sorted_by_depth(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        paths = schema.star_node_paths()
        assert paths[0] == ("retailer", "store")
        assert ("retailer", "store", "merchandises", "clothes") in paths


class TestDTDOverride:
    def test_dtd_declares_star_even_if_data_shows_one(self):
        # only one store in the data, but the DTD says store*
        tree = tree_from_dict("retailer", {"store": [{"city": "Houston"}]})
        dtd = parse_dtd("<!ELEMENT retailer (store*)>")
        schema = infer_schema(tree, dtd=dtd)
        assert schema.is_star_node(("retailer", "store"))

    def test_dtd_declares_single_even_if_data_repeats(self):
        tree = tree_from_dict("retailer", {"store": [{"city": "A"}, {"city": "B"}]})
        dtd = parse_dtd("<!ELEMENT retailer (name, store)>")
        schema = infer_schema(tree, dtd=dtd)
        assert not schema.is_star_node(("retailer", "store"))

    def test_dtd_silent_falls_back_to_data(self):
        tree = tree_from_dict("retailer", {"store": [{"city": "A"}, {"city": "B"}]})
        dtd = parse_dtd("<!ELEMENT other (x)>")
        schema = infer_schema(tree, dtd=dtd)
        assert schema.is_star_node(("retailer", "store"))


class TestSchemaNodeStatistics:
    def test_instance_counts(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        assert schema.node_for(("retailer", "store")).instance_count == 2
        assert schema.node_for(("retailer", "store", "merchandises", "clothes")).instance_count == 3

    def test_value_counts(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        node = schema.node_for(("retailer", "store", "merchandises", "clothes", "category"))
        assert node.value_counts == {"suit": 1, "outwear": 1, "skirt": 1}

    def test_child_paths(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        children = schema.child_paths_of(("retailer", "store"))
        tags = {path[-1] for path in children}
        assert tags == {"city", "merchandises"}

    def test_len(self, retailer_tree):
        schema = infer_schema(retailer_tree)
        assert len(schema) == len(schema.nodes)
