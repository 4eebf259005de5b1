"""Tests for feature extraction and dominance scores (§2.3)."""

from __future__ import annotations

import pytest

from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.xseek import build_result_tree
from repro.snippet.features import Feature, FeatureStatistics, extract_features
from repro.xmltree.builder import tree_from_dict


@pytest.fixture()
def small_result(small_index):
    return SearchEngine(small_index).search("texas apparel")[0]


@pytest.fixture()
def small_stats(small_index, small_result):
    return extract_features(small_index.analyzer, small_result)


class TestFeatureTriples:
    def test_feature_type_and_str(self):
        feature = Feature("store", "city", "houston")
        assert feature.feature_type == ("store", "city")
        assert str(feature) == "(store, city, houston)"

    def test_features_are_hashable_value_objects(self):
        assert Feature("a", "b", "c") == Feature("a", "b", "c")
        assert len({Feature("a", "b", "c"), Feature("a", "b", "c")}) == 1


class TestExtraction:
    def test_attribute_owned_by_nearest_entity(self, small_stats):
        assert Feature("store", "city", "houston") in small_stats
        assert Feature("clothes", "category", "suit") in small_stats

    def test_attribute_without_entity_ancestor_uses_result_root(self, small_stats):
        # retailer name/product hang directly off the (non-repeating) root
        assert Feature("retailer", "name", "brook brothers") in small_stats
        assert Feature("retailer", "product", "apparel") in small_stats

    def test_counts(self, small_stats):
        assert small_stats.value_count(Feature("store", "state", "texas")) == 2
        assert small_stats.type_count("store", "city") == 2
        assert small_stats.domain_size("store", "city") == 2
        assert small_stats.type_count("clothes", "category") == 3
        assert small_stats.domain_size("clothes", "category") == 2

    def test_instances_recorded(self, small_stats, small_result):
        instances = small_stats.instances_of(Feature("clothes", "category", "outwear"))
        assert len(instances) == 2
        assert all(small_result.contains(pre) for pre in instances)
        assert instances == sorted(instances)

    def test_display_value_keeps_original_case(self, small_stats):
        assert small_stats.display_value(Feature("store", "city", "houston")) == "Houston"

    def test_unseen_feature_defaults(self, small_stats):
        ghost = Feature("store", "city", "atlantis")
        assert small_stats.value_count(ghost) == 0
        assert small_stats.dominance_score(ghost) == 0.0
        assert not small_stats.is_dominant(ghost)
        assert small_stats.instances_of(ghost) == []
        assert small_stats.occurrences(ghost) is None
        assert small_stats.display_value(ghost) == "atlantis"

    def test_values_that_normalise_to_nothing_are_ignored(self):
        tree = tree_from_dict("shops", {"store": [{"city": "--"}, {"city": "!?"}]})
        index = IndexBuilder().build(tree)
        statistics = extract_features(
            index.analyzer, build_result_tree(index, KeywordQuery.parse("store"), 0)
        )
        assert isinstance(statistics, FeatureStatistics)
        assert len(statistics) == 0
        assert statistics.feature_types() == []


class TestDominanceScore:
    def test_definition(self, small_stats):
        # outwear occurs 2 of 3 category occurrences over 2 distinct values:
        # DS = 2 / (3/2) = 4/3
        assert small_stats.dominance_score(Feature("clothes", "category", "outwear")) == pytest.approx(4 / 3)
        assert small_stats.dominance_score(Feature("clothes", "category", "suit")) == pytest.approx(2 / 3)

    def test_dominant_iff_score_above_one(self, small_stats):
        assert small_stats.is_dominant(Feature("clothes", "category", "outwear"))
        assert not small_stats.is_dominant(Feature("clothes", "category", "suit"))

    def test_single_value_domain_trivially_dominant(self, small_stats):
        texas = Feature("store", "state", "texas")
        assert small_stats.domain_size("store", "state") == 1
        assert small_stats.dominance_score(texas) == pytest.approx(1.0)
        assert small_stats.is_dominant(texas)

    def test_uniform_distribution_not_dominant(self, small_stats):
        # city: Houston 1, Austin 1 → DS = 1 for both, not dominant (domain 2)
        assert not small_stats.is_dominant(Feature("store", "city", "houston"))


class TestStatisticsTable:
    def test_value_statistics_sorted_by_count(self, small_stats):
        table = small_stats.value_statistics()
        categories = table[("clothes", "category")]
        assert categories[0] == ("outwear", 2)

    def test_features_and_types_listing(self, small_stats):
        assert Feature("store", "name", "galleria") in small_stats.features()
        assert ("store", "city") in small_stats.feature_types()

    def test_repr(self, small_stats):
        assert "features=" in repr(small_stats)


class TestFigure1Statistics:
    def test_paper_counts_hold(self, figure1_idx, figure1_result):
        statistics = extract_features(figure1_idx.analyzer, figure1_result)
        assert statistics.value_count(Feature("store", "city", "houston")) == 6
        assert statistics.type_count("store", "city") == 10
        assert statistics.domain_size("store", "city") == 5
        assert statistics.type_count("clothes", "fitting") == 1000
        assert statistics.domain_size("clothes", "fitting") == 3
        assert statistics.type_count("clothes", "category") == 1070
        assert statistics.domain_size("clothes", "category") == 11

    def test_paper_dominance_scores_hold(self, figure1_idx, figure1_result):
        statistics = extract_features(figure1_idx.analyzer, figure1_result)
        assert statistics.dominance_score(Feature("store", "city", "houston")) == pytest.approx(3.0)
        assert statistics.dominance_score(Feature("clothes", "fitting", "man")) == pytest.approx(1.8)
        assert statistics.dominance_score(Feature("clothes", "situation", "casual")) == pytest.approx(1.4)
        assert statistics.dominance_score(Feature("clothes", "fitting", "woman")) == pytest.approx(1.08)
        assert statistics.dominance_score(Feature("clothes", "category", "outwear")) == pytest.approx(2.262, abs=0.01)
        assert statistics.dominance_score(Feature("clothes", "category", "suit")) == pytest.approx(1.234, abs=0.01)
