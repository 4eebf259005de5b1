"""Property-based tests for Dewey label algebra."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree.dewey import Dewey
from tests.property.strategies import dewey_labels, label_sets
from tests.search.reference_lca import remove_ancestors


@given(dewey_labels(), dewey_labels())
def test_common_ancestor_is_commutative(a, b):
    assert Dewey.common_ancestor(a, b) == Dewey.common_ancestor(b, a)


@given(dewey_labels(), dewey_labels())
def test_common_ancestor_is_ancestor_or_self_of_both(a, b):
    lca = Dewey.common_ancestor(a, b)
    assert lca.is_ancestor_or_self(a)
    assert lca.is_ancestor_or_self(b)


@given(dewey_labels(), dewey_labels())
def test_common_ancestor_is_deepest(a, b):
    lca = Dewey.common_ancestor(a, b)
    # any strictly deeper prefix of `a` must not be an ancestor-or-self of `b`
    if lca.depth < a.depth:
        deeper = a.prefix(lca.depth + 1)
        assert not deeper.is_ancestor_or_self(b)


@given(dewey_labels())
def test_parse_str_round_trip(label):
    assert Dewey.parse(str(label)) == label


@given(dewey_labels(), dewey_labels())
def test_document_order_matches_prefix_semantics(a, b):
    if a.is_ancestor_of(b):
        assert a < b
    if a < b and a.is_ancestor_or_self(b):
        assert a.is_ancestor_of(b)


@given(dewey_labels(), dewey_labels())
def test_tree_distance_symmetric_and_triangle_with_zero(a, b):
    assert a.tree_distance(b) == b.tree_distance(a)
    assert a.tree_distance(a) == 0
    assert a.tree_distance(b) >= 0


@given(label_sets())
def test_remove_ancestors_returns_antichain_preserving_maximal_elements(labels):
    result = remove_ancestors(labels)
    as_set = set(result)
    assert as_set <= set(labels)
    # no pair is in ancestor/descendant relation
    for first in result:
        for second in result:
            if first != second:
                assert not first.is_ancestor_of(second)
    # every dropped label has a descendant that was kept
    for label in labels:
        if label not in as_set:
            assert any(label.is_ancestor_of(kept) for kept in result)


@given(label_sets())
def test_sorted_labels_are_preorder(labels):
    ordered = sorted(labels)
    # ancestors always precede their descendants in the sorted order
    for index, label in enumerate(ordered):
        for later in ordered[index + 1 :]:
            assert not later.is_ancestor_of(label)
