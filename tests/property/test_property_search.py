"""Property-based tests: SLCA/ELCA agree with their brute-force definitions
and, like the rest of the search path, with the frozen label oracle."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.postings import PostingList
from repro.index.storage import load_index, save_index
from repro.search.elca import compute_elca
from repro.search.lca import brute_force_elca, brute_force_slca
from repro.search.slca import compute_slca
from repro.xmltree.diff import clone_tree, diff_trees
from tests.property.strategies import TAGS, VALUES, posting_list_groups, xml_trees
from tests.search.differential import (
    ALGORITHMS,
    CONSTRUCTIONS,
    assert_search_matches_reference,
)
from tests.search.reference_lca import reference_elca, reference_slca

COMMON_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@COMMON_SETTINGS
@given(posting_list_groups())
def test_slca_matches_brute_force_and_the_label_oracle(doc):
    roots = compute_slca(doc.lists)
    assert roots == brute_force_slca(doc.lists)
    assert doc.labels(roots) == reference_slca(doc.label_lists)


@COMMON_SETTINGS
@given(posting_list_groups())
def test_elca_matches_brute_force_and_the_label_oracle(doc):
    roots = compute_elca(doc.lists)
    assert roots == brute_force_elca(doc.lists)
    assert doc.labels(roots) == reference_elca(doc.label_lists)


@COMMON_SETTINGS
@given(posting_list_groups())
def test_slca_subset_of_elca(doc):
    assert set(compute_slca(doc.lists)) <= set(compute_elca(doc.lists))


@COMMON_SETTINGS
@given(posting_list_groups())
def test_slca_is_antichain_and_contains_all_keywords(doc):
    slcas = doc.labels(compute_slca(doc.lists))
    for first in slcas:
        for second in slcas:
            if first != second:
                assert not first.is_ancestor_of(second)
        for postings in doc.label_lists:
            assert postings.has_descendant_of(first)


@COMMON_SETTINGS
@given(posting_list_groups())
def test_every_elca_contains_all_keywords(doc):
    for elca in compute_elca(doc.lists):
        for postings in doc.lists:
            assert postings.has_descendant_of(elca)


@COMMON_SETTINGS
@given(posting_list_groups())
def test_closest_match_is_the_oracles(doc):
    merged = PostingList.union_all(doc.lists)
    nodes = doc.tree.nodes_by_pre
    for postings, label_postings in zip(doc.lists, doc.label_lists):
        for pre in merged:
            closest = postings.closest_match(pre)
            expected = label_postings.closest_match(nodes[pre].dewey)
            assert (None if closest is None else nodes[closest].dewey) == expected


# ---------------------------------------------------------------------- #
# the whole pipeline on hypothesis trees
# ---------------------------------------------------------------------- #
# tags and values of the tree strategy, the plural of a tag that occurs
# only in the singular (a two-form lookup), and a keyword nothing matches
_KEYWORDS = TAGS + VALUES + ("stores", "boxes", "nowhere")

_queries = st.lists(
    st.lists(st.sampled_from(_KEYWORDS), min_size=1, max_size=4, unique=True).map(tuple),
    min_size=1,
    max_size=4,
)


def _text_edit(tree, data):
    """A clone of ``tree`` with some text values changed (maybe none)."""
    clone = clone_tree(tree)
    valued = [node for node in clone.iter_nodes() if node.text]
    for node in data.draw(st.lists(st.sampled_from(valued), max_size=3) if valued else st.just([])):
        node.text = data.draw(st.sampled_from(VALUES))
    return clone


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(xml_trees(), _queries, st.booleans(), st.data())
def test_pipeline_matches_the_label_oracle(tmp_path_factory, tree, queries, lazily_loaded, data):
    index = IndexBuilder().build(tree)
    if lazily_loaded:
        directory = tmp_path_factory.mktemp("snapshot")
        save_index(index, directory)
        index = load_index(directory)
    for _ in range(2):
        for keywords in queries:
            for algorithm in ALGORITHMS:
                for construction in CONSTRUCTIONS:
                    assert_search_matches_reference(index, keywords, algorithm, construction)
        # second round: the same queries after a text-only update
        edited = _text_edit(index.tree, data)
        diff = diff_trees(index.tree, edited)
        if not diff.is_text_only:
            break
        index = apply_text_update(index, edited, diff).index
