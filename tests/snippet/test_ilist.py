"""Tests for IList construction (§2, Figure 3)."""

from __future__ import annotations

import pytest

from repro.datasets.paper_example import FIGURE1_EXPECTED_ILIST
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.snippet.ilist import IListBuilder, ItemKind


@pytest.fixture()
def figure1_ilist(figure1_idx, figure1_result):
    builder = IListBuilder(figure1_idx.analyzer)
    return builder.build(KeywordQuery.parse("Texas, apparel, retailer"), figure1_result)


class TestFigure3:
    def test_exact_ilist_order(self, figure1_ilist):
        assert tuple(text.lower() for text in figure1_ilist.texts()) == FIGURE1_EXPECTED_ILIST

    def test_item_kinds_in_paper_order(self, figure1_ilist):
        kinds = [item.kind for item in figure1_ilist]
        assert kinds[:3] == [ItemKind.KEYWORD] * 3
        assert kinds[3:5] == [ItemKind.ENTITY_NAME] * 2
        assert kinds[5] == ItemKind.RESULT_KEY
        assert all(kind == ItemKind.DOMINANT_FEATURE for kind in kinds[6:])

    def test_feature_items_sorted_by_score(self, figure1_ilist):
        features = figure1_ilist.items_of_kind(ItemKind.DOMINANT_FEATURE)
        scores = [item.score for item in features]
        assert scores == sorted(scores, reverse=True)

    def test_no_duplicate_identities(self, figure1_ilist):
        identities = figure1_ilist.identities()
        assert len(identities) == len(set(identities))

    def test_retailer_not_repeated_as_entity_name(self, figure1_ilist):
        # "retailer" is a keyword; the entity-name group must not add it again
        assert figure1_ilist.texts().count("retailer") == 1

    def test_texas_not_repeated_as_feature(self, figure1_ilist):
        # (store, state, texas) is trivially dominant but already a keyword
        assert [text.lower() for text in figure1_ilist.texts()].count("texas") == 1

    def test_every_item_has_instances_inside_result(self, figure1_ilist, figure1_result):
        for item in figure1_ilist:
            assert item.has_instances
            assert all(figure1_result.contains(pre) for pre in item.instances)

    def test_entity_names_ordered_by_instance_count(self, figure1_ilist):
        entity_items = figure1_ilist.items_of_kind(ItemKind.ENTITY_NAME)
        counts = [len(item.instances) for item in entity_items]
        assert counts == sorted(counts, reverse=True)
        assert [item.text for item in entity_items] == ["clothes", "store"]


class TestGeneralProperties:
    def test_keywords_without_matches_have_no_instances(self, small_index):
        result = SearchEngine(small_index).search("texas")[0]
        builder = IListBuilder(small_index.analyzer)
        ilist = builder.build(KeywordQuery.parse("texas zebra"), result)
        zebra = next(item for item in ilist if item.text == "zebra")
        assert not zebra.has_instances
        assert zebra not in ilist.coverable_items()

    def test_keyword_instances_fallback_scan(self, small_index):
        # result.matches empty → the builder scans the result itself
        result = SearchEngine(small_index).search("texas")[0]
        result.matches.clear()
        ilist = IListBuilder(small_index.analyzer).build(KeywordQuery.parse("texas"), result)
        texas_item = ilist[0]
        assert texas_item.has_instances

    def test_key_item_for_figure5(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        ilist = IListBuilder(figure5_idx.analyzer).build(KeywordQuery.parse("store texas"), results[0])
        keys = ilist.items_of_kind(ItemKind.RESULT_KEY)
        assert len(keys) == 1
        assert keys[0].text in {"Levis", "ESprit"}

    def test_ilist_dunder_protocol(self, figure1_ilist):
        assert len(figure1_ilist) == 12
        assert figure1_ilist[0].text == "texas"
        assert [item.text for item in figure1_ilist] == figure1_ilist.texts()
        assert "texas" in repr(figure1_ilist)

    def test_statistics_and_decision_attached(self, figure1_ilist):
        assert figure1_ilist.statistics is not None
        assert figure1_ilist.return_entity_decision is not None
        assert figure1_ilist.return_entity_decision.primary == "retailer"
