"""Holding ``pre`` snippet generation to the frozen label oracle.

``assert_snippet_matches_reference`` runs one result through
:class:`~repro.snippet.ilist.IListBuilder`, the greedy selector and the
text renderer, and through :mod:`tests.snippet.reference_snippet` — which
walks the result subtree and reads nothing of the analyzer's per-node
tables — and requires the same outcome: the IList item by item (kind,
text, identity, score, instance sequence — labels derived from the ids),
the return-entity decision, every §2.3 quantity and display value the
statistics object can be asked for, the ranked features (dominant only and
all), and for every selector configuration the selected node set, the
chosen instances, the covered items, the edge count and the rendered text.
"""

from __future__ import annotations

from repro.classify.analyzer import DataAnalyzer
from repro.search.results import QueryResult
from repro.snippet.dominant import DominantFeatureIdentifier
from repro.snippet.features import Feature, FeatureStatistics
from repro.snippet.generator import GeneratedSnippet
from repro.snippet.ilist import IList, IListBuilder
from repro.snippet.instance_selector import GreedyInstanceSelector, SelectionStrategy
from repro.snippet.render import render_snippet_text
from tests.snippet.reference_snippet import (
    ReferenceIList,
    ReferenceStatistics,
    reference_ilist,
    reference_ranked,
    reference_render_text,
    reference_select,
)

#: (strategy, skip items that do not fit) — what the oracle's selector knows
SELECTORS = (
    (SelectionStrategy.GREEDY_CLOSEST, True),
    (SelectionStrategy.GREEDY_CLOSEST, False),
    (SelectionStrategy.FIRST_INSTANCE, True),
)

GHOST = Feature("no-such-entity", "no-such-attribute", "no such value")


def decoded(analyzer: DataAnalyzer) -> list[tuple | None]:
    """Per node, what its entry of the analyzer's feature table stands for
    — how a carried table is compared with a from-scratch one, whose ids
    need not agree."""
    table = analyzer.feature_table
    return [table.keys[feature_id] if feature_id >= 0 else None for feature_id in table.ids]


def assert_snippet_matches_reference(
    analyzer: DataAnalyzer,
    result: QueryResult,
    size_bounds=(1, 6, 14),
    builder: IListBuilder | None = None,
) -> IList:
    """Hold the IList, the statistics and the selections of ``result`` to
    the oracle; returns the IList built — by ``builder`` when given (one
    whose root memo may already hold ``result``'s root), by a fresh one
    otherwise."""
    context = (result.source.name, result.query.keywords, str(result.root))
    nodes = result.source.nodes_by_pre

    def labels(instances):
        return [nodes[pre].dewey for pre in instances]

    ilist = (builder or IListBuilder(analyzer)).build(result.query, result)
    reference = reference_ilist(analyzer, result.query, result)

    # the IList, item by item
    assert len(ilist.items) == len(reference.items), context
    for item, expected in zip(ilist.items, reference.items):
        assert (item.kind.value, item.text, item.identity, item.score) == (
            expected.kind, expected.text, expected.identity, expected.score
        ), context
        assert labels(item.instances) == list(expected.instances), (context, item.text)
        assert all(isinstance(pre, int) for pre in item.instances), context
        assert (item.feature is None) == (expected.feature is None)
        assert (item.result_key is None) == (expected.result_key is None)
        if item.feature is not None:
            _assert_scored_equal(item.feature, expected.feature, labels, context)
        if item.result_key is not None:
            key, expected_key = item.result_key, expected.result_key
            assert (key.entity_tag, key.attribute_tag, key.value, key.mined) == (
                expected_key.entity_tag, expected_key.attribute_tag,
                expected_key.value, expected_key.mined,
            ), context
            assert labels(key.instances) == expected_key.instances, context

    # the return-entity decision
    decision, expected_decision = ilist.return_entity_decision, reference.return_entity_decision
    assert decision.entities_in_result == expected_decision.entities_in_result, context
    assert decision.return_entities == expected_decision.return_entities, context
    assert decision.supporting_entities == expected_decision.supporting_entities, context
    assert decision.reasons == expected_decision.reasons, context
    assert {
        tag: labels(instances) for tag, instances in decision.return_instances.items()
    } == expected_decision.return_instances, context

    _assert_statistics_equal(ilist.statistics, reference.statistics, labels, context)

    # ranking, dominant only (the IList's) and everything (distinct, baselines)
    identifier = DominantFeatureIdentifier(analyzer)
    for dominant_only in (True, False):
        ranked = (
            identifier.identify(result, ilist.statistics)
            if dominant_only
            else identifier.score_all(result, ilist.statistics)
        )
        expected_ranked = reference_ranked(reference.statistics, dominant_only)
        assert len(ranked) == len(expected_ranked), context
        for scored, expected_scored in zip(ranked, expected_ranked):
            _assert_scored_equal(scored, expected_scored, labels, context)

    # selection and rendering
    for bound in size_bounds:
        for strategy, skip in SELECTORS:
            _assert_selection_equal(
                result, ilist, reference, bound, strategy, skip, labels, context
            )
    return ilist


def _assert_scored_equal(scored, expected, labels, context) -> None:
    assert (
        scored.feature, scored.display_value, scored.score,
        scored.value_count, scored.type_count, scored.domain_size,
    ) == (
        expected.feature, expected.display_value, expected.score,
        expected.value_count, expected.type_count, expected.domain_size,
    ), context
    assert labels(scored.instances) == expected.instances, (context, scored.feature)


def _assert_statistics_equal(
    statistics: FeatureStatistics, expected: ReferenceStatistics, labels, context
) -> None:
    # same features, in the same (first occurrence) order
    assert statistics.features() == expected.features(), context
    assert statistics.feature_types() == expected.feature_types(), context
    assert len(statistics) == len(expected), context
    for feature in expected.features():
        where = (context, feature)
        assert feature in statistics, where
        assert statistics.value_count(feature) == expected.value_count(feature), where
        assert statistics.type_count(*feature.feature_type) == expected.type_count(
            *feature.feature_type
        ), where
        assert statistics.domain_size(*feature.feature_type) == expected.domain_size(
            *feature.feature_type
        ), where
        assert statistics.dominance_score(feature) == expected.dominance_score(feature), where
        assert statistics.is_dominant(feature) == expected.is_dominant(feature), where
        assert statistics.display_value(feature) == expected.display_value(feature), where
        assert labels(statistics.instances_of(feature)) == expected.instances_of(feature), where
        entry, expected_entry = statistics.occurrences(feature), expected.occurrences(feature)
        assert (entry.feature, entry.display_value, entry.count) == (
            expected_entry.feature, expected_entry.display_value, expected_entry.count
        ), where
    assert [
        (entry.feature, entry.display_value, labels(entry.instances))
        for entry in statistics.all_occurrences()
    ] == [
        (entry.feature, entry.display_value, entry.instances)
        for entry in expected.all_occurrences()
    ], context
    # the Figure 1 panel: same types in the same order, same sorted values
    assert list(statistics.value_statistics().items()) == list(
        expected.value_statistics().items()
    ), context
    # a feature the result does not have
    assert GHOST not in statistics
    assert statistics.value_count(GHOST) == 0 and statistics.dominance_score(GHOST) == 0.0
    assert not statistics.is_dominant(GHOST) and statistics.occurrences(GHOST) is None
    assert statistics.instances_of(GHOST) == [] and statistics.display_value(GHOST) == GHOST.value


def _assert_selection_equal(
    result: QueryResult,
    ilist: IList,
    reference: ReferenceIList,
    bound: int,
    strategy: SelectionStrategy,
    skip: bool,
    labels,
    context,
) -> None:
    where = (context, bound, strategy.value, skip)
    selector = GreedyInstanceSelector(strategy=strategy, skip_unfitting_items=skip)
    snippet = selector.select(result, ilist, bound)
    expected = reference_select(result, reference, bound, strategy.value, skip)
    assert snippet.node_labels == expected.node_labels, where
    assert snippet.size_edges == expected.size_edges <= bound, where
    assert list(snippet.chosen_instances) == list(expected.chosen_instances), where
    assert labels(snippet.chosen_instances.values()) == list(
        expected.chosen_instances.values()
    ), where
    assert [item.identity for item in snippet.covered_items] == [
        item.identity for item in expected.covered_items
    ], where
    generated = GeneratedSnippet(result=result, ilist=ilist, snippet=snippet, size_bound=bound)
    assert render_snippet_text(generated) == reference_render_text(
        result, reference, expected
    ), where
