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
  to what a from-scratch bind gives.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classify.analyzer import DataAnalyzer
from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.storage import load_index, save_index
from repro.search.engine import SearchEngine
from repro.search.xseek import ResultConstruction
from repro.snippet.features import extract_features
from repro.snippet.generator import SnippetGenerator
from repro.snippet.optimal import OptimalInstanceSelector
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
        index = load_index(directory, lazy=True)
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
