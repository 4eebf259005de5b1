"""Tests for the greedy Instance Selector (§2.4)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidSizeBoundError
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.snippet.ilist import IListBuilder, IListItem, ItemKind
from repro.snippet.instance_selector import GreedyInstanceSelector, SelectionStrategy


@pytest.fixture()
def figure1_setup(figure1_idx, figure1_result):
    query = KeywordQuery.parse("Texas, apparel, retailer")
    ilist = IListBuilder(figure1_idx.analyzer).build(query, figure1_result)
    return figure1_result, ilist


class TestSizeBound:
    @pytest.mark.parametrize("bound", [1, 2, 4, 6, 10, 14, 20, 40])
    def test_never_exceeds_bound(self, figure1_setup, bound):
        result, ilist = figure1_setup
        snippet = GreedyInstanceSelector().select(result, ilist, bound)
        assert snippet.size_edges <= bound
        assert snippet.is_connected()

    @pytest.mark.parametrize("bad_bound", [0, -1, 2.5, "10", None, True])
    def test_invalid_bounds_rejected(self, figure1_setup, bad_bound):
        result, ilist = figure1_setup
        with pytest.raises(InvalidSizeBoundError):
            GreedyInstanceSelector().select(result, ilist, bad_bound)

    def test_coverage_monotone_in_bound(self, figure1_setup):
        result, ilist = figure1_setup
        selector = GreedyInstanceSelector()
        covered = [
            len(selector.select(result, ilist, bound).covered_items) for bound in (2, 4, 8, 14, 30)
        ]
        assert covered == sorted(covered)

    def test_large_bound_covers_everything(self, figure1_setup):
        result, ilist = figure1_setup
        snippet = GreedyInstanceSelector().select(result, ilist, 10_000)
        assert len(snippet.covered_items) == len(ilist.coverable_items())


class TestItemOrderAndSkipping:
    def test_items_covered_in_importance_order(self, figure1_setup):
        result, ilist = figure1_setup
        snippet = GreedyInstanceSelector().select(result, ilist, 14)
        order = [item.text for item in snippet.covered_items]
        positions = [ilist.texts().index(text) for text in order]
        assert positions == sorted(positions)

    def test_skip_unfitting_items_continues(self, figure1_setup):
        result, ilist = figure1_setup
        skipping = GreedyInstanceSelector(skip_unfitting_items=True).select(result, ilist, 6)
        stopping = GreedyInstanceSelector(skip_unfitting_items=False).select(result, ilist, 6)
        assert len(skipping.covered_items) >= len(stopping.covered_items)

    def test_items_without_instances_are_ignored(self, figure1_setup):
        result, ilist = figure1_setup
        ilist.items.insert(
            0, IListItem(kind=ItemKind.KEYWORD, text="ghost", identity="ghost", instances=[])
        )
        snippet = GreedyInstanceSelector().select(result, ilist, 8)
        assert "ghost" not in snippet.covered_texts

    def test_duplicate_identity_not_covered_twice(self, figure1_setup):
        result, ilist = figure1_setup
        duplicate = IListItem(
            kind=ItemKind.KEYWORD,
            text="texas",
            identity="texas",
            instances=list(ilist[0].instances),
        )
        ilist.items.append(duplicate)
        snippet = GreedyInstanceSelector().select(result, ilist, 20)
        assert snippet.covered_texts.count("texas") == 1


class TestInstanceChoice:
    def test_closest_instance_chosen(self, small_index):
        # after covering the Houston store, the "outwear" instance inside that
        # store must be preferred over the one in the other store (the paper's
        # outwear3 vs outwear4 example)
        results = SearchEngine(small_index).search("houston outwear")
        result = results[0]
        ilist = IListBuilder(small_index.analyzer).build(KeywordQuery.parse("houston outwear"), result)
        snippet = GreedyInstanceSelector().select(result, ilist, 20)
        outwear_instance = snippet.chosen_instances.get("outwear")
        houston_instance = snippet.chosen_instances.get("houston")
        assert outwear_instance is not None and houston_instance is not None
        # both chosen instances lie under the same store node
        nodes = small_index.tree.nodes_by_pre
        store = nodes[houston_instance].parent
        assert store.tag == "store"
        assert store.dewey.is_ancestor_of(nodes[outwear_instance].dewey)

    def test_first_instance_strategy(self, figure1_setup):
        result, ilist = figure1_setup
        selector = GreedyInstanceSelector(strategy=SelectionStrategy.FIRST_INSTANCE)
        snippet = selector.select(result, ilist, 14)
        for item in snippet.covered_items:
            chosen = snippet.chosen_instances[item.identity]
            assert chosen == min(pre for pre in item.instances if result.contains(pre))

    def test_random_strategy_is_seeded(self, figure1_setup):
        result, ilist = figure1_setup
        first = GreedyInstanceSelector(strategy=SelectionStrategy.RANDOM_INSTANCE, random_seed=7)
        second = GreedyInstanceSelector(strategy=SelectionStrategy.RANDOM_INSTANCE, random_seed=7)
        assert (
            first.select(result, ilist, 10).chosen_instances
            == second.select(result, ilist, 10).chosen_instances
        )

    def test_greedy_no_worse_than_alternatives(self, figure1_setup):
        result, ilist = figure1_setup
        greedy = GreedyInstanceSelector(strategy=SelectionStrategy.GREEDY_CLOSEST)
        first = GreedyInstanceSelector(strategy=SelectionStrategy.FIRST_INSTANCE)
        for bound in (6, 10, 14):
            assert len(greedy.select(result, ilist, bound).covered_items) >= len(
                first.select(result, ilist, bound).covered_items
            ) - 1  # allow a one-item wobble: greedy is not globally optimal

    def test_repr(self):
        assert "greedy_closest" in repr(GreedyInstanceSelector())
