"""Tests for the Query Result Key Identifier (§2.2)."""

from __future__ import annotations

import pytest

from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.snippet.result_key import QueryResultKeyIdentifier
from repro.snippet.return_entity import ReturnEntityIdentifier
from repro.xmltree.builder import tree_from_dict


def identify_keys(index, result, query_text):
    query = KeywordQuery.parse(query_text)
    decision = ReturnEntityIdentifier(index.analyzer).identify(query, result)
    return QueryResultKeyIdentifier(index.analyzer).identify(result, decision)


class TestPaperExample:
    def test_brook_brothers_is_the_result_key(self, figure1_idx, figure1_result):
        keys = identify_keys(figure1_idx, figure1_result, "Texas, apparel, retailer")
        assert len(keys) == 1
        key = keys[0]
        assert key.value == "Brook Brothers"
        assert key.entity_tag == "retailer"
        assert key.attribute_tag == "name"
        assert key.mined
        assert str(key) == "Brook Brothers"

    def test_key_instances_inside_result(self, figure1_idx, figure1_result):
        keys = identify_keys(figure1_idx, figure1_result, "Texas, apparel, retailer")
        assert all(figure1_result.contains(pre) for pre in keys[0].instances)


class TestFigure5:
    def test_store_names_are_keys(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        values = set()
        for result in results:
            keys = identify_keys(figure5_idx, result, "store texas")
            assert len(keys) == 1
            values.add(keys[0].value)
        assert values == {"Levis", "ESprit"}


class TestFallbacks:
    def test_fallback_to_first_attribute_when_no_mined_key(self):
        # both attributes repeat their values → no mined key for clothes;
        # fall back to the first attribute of the return-entity instance
        tree = tree_from_dict(
            "catalog",
            {"clothes": [
                {"category": "suit", "fitting": "man"},
                {"category": "suit", "fitting": "man"},
            ]},
        )
        index = IndexBuilder().build(tree)
        results = SearchEngine(index).search("clothes suit")
        keys = identify_keys(index, results[0], "clothes suit")
        assert len(keys) == 1
        assert keys[0].attribute_tag == "category"
        assert not keys[0].mined

    def test_no_key_when_entity_has_no_attributes(self):
        tree = tree_from_dict(
            "db",
            {"group": [{"member": [{"name": "a"}]}, {"member": [{"name": "b"}]}]},
        )
        index = IndexBuilder().build(tree)
        results = SearchEngine(index).search("group")
        keys = identify_keys(index, results[0], "group")
        # group has no attribute children at all → no key
        assert keys == []

    def test_duplicate_key_values_merged(self):
        tree = tree_from_dict(
            "db",
            {
                "shelf": [
                    {"label": "A", "book": [{"title": "X"}]},
                    {"label": "A", "book": [{"title": "Y"}]},
                ]
            },
        )
        index = IndexBuilder().build(tree)
        # query hits the whole db → both shelves are return instances with the
        # same (non-unique → fallback) key value "A"
        results = SearchEngine(index).search("shelf")
        all_keys = identify_keys(index, results[0], "shelf")
        values = [key.value for key in all_keys]
        assert values.count("A") <= 1
