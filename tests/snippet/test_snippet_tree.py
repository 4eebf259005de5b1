"""Tests for the snippet tree (size accounting, growth, materialisation)."""

from __future__ import annotations

import pytest

from repro.errors import SnippetError
from repro.search.engine import SearchEngine
from repro.snippet.ilist import IListItem, ItemKind
from repro.snippet.snippet_tree import Snippet


@pytest.fixture()
def result(small_index):
    return SearchEngine(small_index).search("texas apparel")[0]


def make_item(text: str, instances) -> IListItem:
    return IListItem(kind=ItemKind.KEYWORD, text=text, identity=text, instances=list(instances))


class TestEmptySnippet:
    def test_contains_only_root(self, result):
        snippet = Snippet(result)
        assert snippet.size_edges == 0
        assert snippet.size_nodes == 1
        assert snippet.contains(result.root_node.pre)
        assert snippet.node_labels == {result.root}
        assert snippet.is_connected()

    def test_to_tree_of_empty_snippet(self, result):
        tree = Snippet(result).to_tree()
        assert tree.size_nodes == 1
        assert tree.root.tag == result.root_node.tag


class TestCostAndGrowth:
    def test_cost_is_path_length(self, result, small_retailer_tree):
        snippet = Snippet(result)
        city = small_retailer_tree.find_by_tag("city")[0]
        assert snippet.cost_of(city.pre) == city.dewey.depth - result.root.depth

    def test_cost_of_root_is_zero(self, result):
        assert Snippet(result).cost_of(result.root_node.pre) == 0

    def test_cost_decreases_after_overlap(self, result, small_retailer_tree):
        snippet = Snippet(result)
        store = small_retailer_tree.find_by_tag("store")[0]
        city = store.find_child("city")
        name = store.find_child("name")
        snippet.add_instance(make_item("city", [city.pre]), city.pre)
        # the path to the sibling "name" now shares the store node
        assert snippet.cost_of(name.pre) == 1

    def test_add_instance_updates_everything(self, result, small_retailer_tree):
        snippet = Snippet(result)
        city = small_retailer_tree.find_by_tag("city")[0]
        item = make_item("houston", [city.pre])
        added = snippet.add_instance(item, city.pre)
        assert added == snippet.size_edges == city.dewey.depth - result.root.depth
        assert snippet.covers("houston")
        assert snippet.chosen_instances["houston"] == city.pre
        assert snippet.path_labels(city.pre) == [
            city.dewey.prefix(depth) for depth in range(result.root.depth, city.dewey.depth + 1)
        ]
        assert snippet.node_labels == set(snippet.path_labels(city.pre))
        assert snippet.covered_texts == ["houston"]
        assert snippet.is_connected()

    def test_outside_instance_rejected(self, small_index, small_retailer_tree):
        results = SearchEngine(small_index).search("houston")
        store_result = results[0]  # rooted at the Houston store
        other_store_city = small_retailer_tree.find_by_tag("city")[1]
        snippet = Snippet(store_result)
        with pytest.raises(SnippetError):
            snippet.cost_of(other_store_city.pre)

    def test_would_fit(self, result, small_retailer_tree):
        snippet = Snippet(result)
        city = small_retailer_tree.find_by_tag("city")[0]
        assert snippet.would_fit(city.pre, bound=10)
        assert not snippet.would_fit(city.pre, bound=1)


class TestCheapestInstance:
    def test_prefers_lowest_cost(self, result, small_retailer_tree):
        snippet = Snippet(result)
        store = small_retailer_tree.find_by_tag("store")[0]
        snippet.add_instance(make_item("store", [store.pre]), store.pre)
        # outwear occurs in both stores; the instance inside the already
        # selected store is cheaper
        categories = [
            node.pre
            for node in small_retailer_tree.find_by_tag("category")
            if node.text == "outwear"
        ]
        chosen, cost = snippet.cheapest_instance(categories)
        assert store.dewey.is_ancestor_of(small_retailer_tree.nodes_by_pre[chosen].dewey)
        assert cost < max(snippet.cost_of(pre) for pre in categories)

    def test_tie_broken_by_document_order(self, result, small_retailer_tree):
        snippet = Snippet(result)
        cities = [node.pre for node in small_retailer_tree.find_by_tag("city")]
        chosen, _ = snippet.cheapest_instance(reversed(cities))
        assert chosen == min(cities)

    def test_a_budget_leaves_out_what_costs_more(self, result, small_retailer_tree):
        snippet = Snippet(result)
        store, other = small_retailer_tree.find_by_tag("store")
        city, other_city = store.find_child("city"), other.find_child("city")
        snippet.add_instance(make_item("store", [store.pre]), store.pre)
        cities = [city.pre, other_city.pre]
        assert snippet.cheapest_instance(cities) == (city.pre, 1)
        assert snippet.cheapest_instance(cities, budget=1) == (city.pre, 1)
        assert snippet.cheapest_instance([other_city.pre], budget=1) is None
        # nothing left to spend: only what the snippet already holds
        assert snippet.cheapest_instance(cities, budget=0) is None
        assert snippet.cheapest_instance([other.pre, store.pre], budget=0) == (store.pre, 0)

    def test_ignores_instances_outside_result(self, small_index, small_retailer_tree):
        results = SearchEngine(small_index).search("houston")
        snippet = Snippet(results[0])
        outside = small_retailer_tree.find_by_tag("city")[1].pre
        assert snippet.cheapest_instance([outside]) is None


class TestMaterialisation:
    def test_to_tree_contains_exactly_selected_nodes(self, result, small_retailer_tree):
        snippet = Snippet(result)
        city = small_retailer_tree.find_by_tag("city")[0]
        snippet.add_instance(make_item("houston", [city.pre]), city.pre)
        tree = snippet.to_tree()
        assert tree.size_nodes == snippet.size_nodes
        assert [node.tag for node in tree.iter_nodes()] == ["retailer", "store", "city"]
        assert tree.find_by_tag("city")[0].text == "Houston"

    def test_selected_nodes_in_document_order(self, result, small_retailer_tree):
        snippet = Snippet(result)
        for node in small_retailer_tree.find_by_tag("city"):
            snippet.add_instance(make_item(node.text, [node.pre]), node.pre)
        labels = [node.dewey for node in snippet.selected_nodes()]
        assert labels == sorted(labels)

    def test_repr(self, result):
        assert "edges=0" in repr(Snippet(result))
