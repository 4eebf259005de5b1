"""Tests for the Return Entity Identifier (§2.2)."""

from __future__ import annotations

import pytest

from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.snippet.return_entity import ReturnEntityIdentifier


class TestNameMatchRule:
    def test_entity_name_matches_keyword(self, figure1_idx, figure1_result):
        identifier = ReturnEntityIdentifier(figure1_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("Texas, apparel, retailer"), figure1_result)
        assert decision.return_entities == ["retailer"]
        assert decision.reasons["retailer"] == "name-match"
        assert set(decision.supporting_entities) == {"store", "clothes"}

    def test_plural_keyword_matches_entity_name(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("stores texas")
        identifier = ReturnEntityIdentifier(figure5_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("stores texas"), results[0])
        assert decision.primary == "store"

    def test_multiple_entity_names_match(self, figure1_idx, figure1_result):
        identifier = ReturnEntityIdentifier(figure1_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("retailer store"), figure1_result)
        assert set(decision.return_entities) == {"retailer", "store"}


class TestAttributeMatchRule:
    def test_attribute_name_matches_keyword(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("city texas")
        identifier = ReturnEntityIdentifier(figure5_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("city texas"), results[0])
        # no entity is called "city"/"texas", but store has a "city" attribute
        assert decision.primary == "store"
        assert decision.reasons["store"] == "attribute-match"

    def test_attribute_match_only_used_when_no_name_match(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store city")
        identifier = ReturnEntityIdentifier(figure5_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("store city"), results[0])
        assert decision.reasons["store"] == "name-match"


class TestDefaultHighestRule:
    def test_default_highest_entity(self, figure1_idx, figure1_result):
        identifier = ReturnEntityIdentifier(figure1_idx.analyzer)
        # neither "texas" nor "houston" names an entity or attribute
        decision = identifier.identify(KeywordQuery.parse("texas houston"), figure1_result)
        assert decision.primary == "retailer"
        assert decision.reasons["retailer"] == "default-highest"

    def test_result_root_counts_as_entity_even_without_repetition(self, small_index):
        results = SearchEngine(small_index).search("houston suit")
        identifier = ReturnEntityIdentifier(small_index.analyzer)
        decision = identifier.identify(KeywordQuery.parse("houston suit"), results[0])
        assert decision.primary is not None


class TestDecisionContents:
    def test_entities_in_result_document_order(self, figure1_idx, figure1_result):
        identifier = ReturnEntityIdentifier(figure1_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("retailer apparel texas"), figure1_result)
        assert decision.entities_in_result[0] == "retailer"
        assert set(decision.entities_in_result) == {"retailer", "store", "clothes"}

    def test_return_instances_point_into_result(self, figure1_idx, figure1_result):
        identifier = ReturnEntityIdentifier(figure1_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("retailer"), figure1_result)
        for instances in decision.return_instances.values():
            assert all(figure1_result.contains(pre) for pre in instances)

    def test_is_return_entity_and_repr(self, figure1_idx, figure1_result):
        identifier = ReturnEntityIdentifier(figure1_idx.analyzer)
        decision = identifier.identify(KeywordQuery.parse("retailer"), figure1_result)
        assert decision.is_return_entity("retailer")
        assert not decision.is_return_entity("store")
        assert "retailer" in repr(decision)

    def test_primary_none_for_empty_decision(self):
        from repro.snippet.return_entity import ReturnEntityDecision

        assert ReturnEntityDecision().primary is None
