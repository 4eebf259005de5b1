"""Property-based tests for the snippet pipeline invariants.

For random documents, random in-vocabulary queries and random size bounds:

* every snippet respects the bound and is a connected subtree of its result,
* the greedy selector never covers more items than the exact selector,
* feature statistics satisfy the §2.3 identities (the mean dominance score
  of a feature type is exactly 1),
* and everything the ``pre`` pipeline produces — IList, statistics,
  selections, rendered text — is what the frozen label oracle
  (:mod:`tests.snippet.reference_snippet`) produces: under every result
  construction, from an index as built or lazily loaded from a v4 snapshot,
  and after text-only updates, where the carried feature table must decode
  to what a from-scratch bind gives — and through a builder whose root memo
  another query's result with the same root has already filled,
* and a repeated root's return entity and key items, decided over the
  memo's entity tags and read from its key-item memo, are what a fresh
  :class:`ReturnEntityIdentifier` and :class:`QueryResultKeyIdentifier`
  give for the same query and result.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classify.analyzer import DataAnalyzer
from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.storage import load_index, save_index
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.xseek import ResultConstruction, build_result_tree
from repro.snippet.features import extract_features
from repro.snippet.generator import SnippetGenerator
from repro.snippet.ilist import IListBuilder, ItemKind
from repro.snippet.optimal import OptimalInstanceSelector
from repro.snippet.result_key import QueryResultKeyIdentifier
from repro.snippet.return_entity import ReturnEntityIdentifier
from repro.xmltree.diff import clone_tree, diff_trees
from tests.property.strategies import TAGS, VALUES, xml_trees
from tests.snippet.differential import assert_snippet_matches_reference, decoded

COMMON_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@COMMON_SETTINGS
@given(xml_trees(), st.sampled_from(VALUES), st.integers(min_value=1, max_value=12))
def test_snippet_invariants_on_random_documents(tree, keyword, bound):
    index = IndexBuilder().build(tree)
    if index.keyword_matches(keyword).is_empty:
        return
    result_set = SearchEngine(index).search(keyword)
    if not result_set:
        return
    generator = SnippetGenerator(index.analyzer)
    for result in result_set:
        generated = generator.generate(result, size_bound=bound)
        snippet = generated.snippet
        # size bound respected
        assert snippet.size_edges <= bound
        # connected subtree rooted at the result root
        assert snippet.is_connected()
        assert snippet.contains(result.root_node.pre)
        # every selected node belongs to the result subtree
        for node in snippet.selected_nodes():
            assert result.contains(node.pre)
            assert result.root.is_ancestor_or_self(node.dewey)
        # covered items really have their chosen instance inside the snippet
        for item in snippet.covered_items:
            assert snippet.contains(snippet.chosen_instances[item.identity])


@COMMON_SETTINGS
@given(xml_trees(), st.sampled_from(VALUES), st.integers(min_value=1, max_value=8))
def test_greedy_never_beats_optimal(tree, keyword, bound):
    index = IndexBuilder().build(tree)
    if not index.keyword_matches(keyword):
        return
    engine = SearchEngine(index)
    result_set = engine.search(keyword)
    if not result_set:
        return
    generator = SnippetGenerator(index.analyzer)
    optimal = OptimalInstanceSelector(max_instances_per_item=4)
    result = result_set[0]
    generated = generator.generate(result, size_bound=bound)
    best = optimal.select(result, generated.ilist, bound)
    assert len(generated.snippet.covered_items) <= len(best.covered_items)


@COMMON_SETTINGS
@given(xml_trees(), st.sampled_from(VALUES))
def test_mean_dominance_score_per_type_is_one(tree, keyword):
    index = IndexBuilder().build(tree)
    if not index.keyword_matches(keyword):
        return
    result_set = SearchEngine(index).search(keyword)
    if not result_set:
        return
    statistics = extract_features(index.analyzer, result_set[0])
    by_type: dict[tuple[str, str], list[float]] = {}
    for feature in statistics.features():
        by_type.setdefault(feature.feature_type, []).append(statistics.dominance_score(feature))
    for scores in by_type.values():
        assert abs(sum(scores) / len(scores) - 1.0) < 1e-9


@COMMON_SETTINGS
@given(xml_trees(), st.sampled_from(VALUES), st.integers(min_value=2, max_value=20))
def test_coverage_is_monotone_in_bound(tree, keyword, bound):
    index = IndexBuilder().build(tree)
    if not index.keyword_matches(keyword):
        return
    result_set = SearchEngine(index).search(keyword)
    if not result_set:
        return
    generator = SnippetGenerator(index.analyzer)
    result = result_set[0]
    small = generator.generate(result, size_bound=max(1, bound // 2))
    large = generator.generate(result, size_bound=bound)
    assert small.covered_items <= large.covered_items


# ---------------------------------------------------------------------- #
# the pre pipeline against the frozen label oracle
# ---------------------------------------------------------------------- #
_queries = st.lists(
    st.lists(st.sampled_from(TAGS + VALUES), min_size=1, max_size=3, unique=True).map(" ".join),
    min_size=1,
    max_size=3,
)

#: what an edit may write: a value of the vocabulary (a new or an existing
#: feature), a respelling, something that normalises to nothing
_NEW_TEXTS = VALUES + ("HOUSTON ", " Texas", "--", "?!")


def _text_edit(tree, data):
    """A clone of ``tree`` with some text values changed (maybe none)."""
    clone = clone_tree(tree)
    valued = [node for node in clone.iter_nodes() if node.text]
    for node in data.draw(st.lists(st.sampled_from(valued), max_size=3) if valued else st.just([])):
        node.text = data.draw(st.sampled_from(_NEW_TEXTS))
    return clone


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(xml_trees(), _queries, st.booleans(), st.data())
def test_snippets_match_the_label_oracle(tmp_path_factory, tree, queries, lazily_loaded, data):
    index = IndexBuilder().build(tree)
    if lazily_loaded:
        directory = tmp_path_factory.mktemp("snapshot")
        save_index(index, directory)
        index = load_index(directory)
    for _ in range(2):
        for construction in ResultConstruction:
            engine = SearchEngine(index, construction=construction)
            for text in queries:
                for result in engine.search(text):
                    assert_snippet_matches_reference(index.analyzer, result, size_bounds=(1, 5))
        # second round: the same queries after a text-only update, over
        # the feature table the update carried
        edited = _text_edit(index.tree, data)
        diff = diff_trees(index.tree, edited)
        if not diff.is_text_only:
            break
        index.analyzer.feature_table
        index = apply_text_update(index, edited, diff).index
        assert index.analyzer._features is not None
        assert decoded(index.analyzer) == decoded(DataAnalyzer(edited))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(xml_trees(), _queries, st.data())
def test_memo_hits_match_the_label_oracle(tree, queries, data):
    """The same comparison through one builder per version, each result
    built right after every other query's result with the same root: what
    the oracle sees is the scan, statistics, entity names and ranked
    features another query left in the root memo."""
    index = IndexBuilder().build(tree)
    for _ in range(2):
        for construction in ResultConstruction:
            builder = IListBuilder(index.analyzer)
            engine = SearchEngine(index, construction=construction)
            for text in queries:
                for result in engine.search(text):
                    pre = result.root_node.pre
                    for rival in queries:
                        query = KeywordQuery.parse(rival)
                        if query.keywords != result.query.keywords:
                            builder.build(query, build_result_tree(index, query, pre, construction))
                    ilist = assert_snippet_matches_reference(
                        index.analyzer, result, size_bounds=(1, 5), builder=builder
                    )
                    assert ilist.statistics is builder.roots.get(pre).statistics
        # second round on the version a text-only update makes
        edited = _text_edit(index.tree, data)
        diff = diff_trees(index.tree, edited)
        if not diff.is_text_only:
            break
        index.analyzer.feature_table
        index = apply_text_update(index, edited, diff).index


def _key(key) -> tuple:
    return (key.entity_tag, key.attribute_tag, key.value, list(key.instances), key.mined)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    xml_trees(),
    st.sampled_from(VALUES),
    st.lists(
        st.lists(st.sampled_from(TAGS + VALUES + ("stores", "cities")), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(list(ResultConstruction)),
)
def test_memoised_decision_and_key_items_match_a_fresh_identification(
    tree, seed_keyword, keyword_sets, construction
):
    """Random keyword sets over the roots one keyword reaches, each root
    built once per set through one builder: every decision and every set
    of key items after the first build of a root comes out of the memo."""
    index = IndexBuilder().build(tree)
    roots = [result.root_node.pre for result in SearchEngine(index).search(seed_keyword)]
    builder = IListBuilder(index.analyzer)
    identifier = ReturnEntityIdentifier(index.analyzer)
    key_identifier = QueryResultKeyIdentifier(index.analyzer)
    for keywords in keyword_sets:
        query = KeywordQuery.from_keywords(keywords)
        for pre in roots:
            result = build_result_tree(index, query, pre, construction)
            ilist = builder.build(query, result)
            decision = ilist.return_entity_decision
            expected = identifier.identify(query, result)
            assert (
                decision.entities_in_result, decision.return_entities,
                decision.supporting_entities, decision.reasons, decision.return_instances,
            ) == (
                expected.entities_in_result, expected.return_entities,
                expected.supporting_entities, expected.reasons, expected.return_instances,
            )
            part = builder.roots.get(pre)
            memoised = part.key_items[tuple(decision.return_entities)]
            expected_keys = key_identifier.identify(result, expected)
            assert [_key(item.result_key) for item in memoised] == [
                _key(key) for key in expected_keys
            ]
            normalized_value = index.analyzer.normalized_value
            nodes = index.tree.nodes_by_pre
            assert [(item.text, item.identity, list(item.instances)) for item in memoised] == [
                (key.value, normalized_value(nodes[key.instances[0]]), key.instances)
                for key in expected_keys
            ]
            # the IList's key items are the memo's, less those an earlier
            # item already names
            shown = [item for item in ilist.items if item.kind is ItemKind.RESULT_KEY]
            assert all(any(item is kept for kept in memoised) for item in shown)
