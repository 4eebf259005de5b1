"""Property-based tests for Dewey label algebra, and for the label a tree
derives for a node (``XMLNode.dewey``) and resolves back (``XMLTree.node``)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExtractError
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree
from tests.property.strategies import dewey_labels, label_sets, xml_trees
from tests.search.reference_lca import remove_ancestors

#: example count left to the profile (``--hypothesis-profile=fuzz``)
TREE_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


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


# ---------------------------------------------------------------------- #
# the derived label
# ---------------------------------------------------------------------- #
def reference_labels(root: XMLNode) -> dict[int, Dewey]:
    """Top-down labelling by ``id(node)``: the root is ``()``, a child is
    its parent's label plus its position in ``children`` — what a tree
    used to store on every node."""
    labels = {id(root): Dewey(())}
    pending = [root]
    while pending:
        node = pending.pop()
        for ordinal, child in enumerate(node.children):
            labels[id(child)] = Dewey(labels[id(node)].components + (ordinal,))
            pending.append(child)
    return labels


@TREE_SETTINGS
@given(xml_trees())
def test_derived_labels_equal_the_top_down_labelling_and_resolve_back(tree):
    expected = reference_labels(tree.root)
    labels = [node.dewey for node in tree.nodes_by_pre]
    assert labels == [expected[id(node)] for node in tree.nodes_by_pre]
    assert all(earlier < later for earlier, later in zip(labels, labels[1:]))
    for node, label in zip(tree.nodes_by_pre, labels):
        assert tree.node(label) is tree.find_node(label) is node
        assert tree.has_node(label) and label in tree
        assert node.depth == label.depth == node.level
    assert tree.max_depth == max(label.depth for label in labels)


@TREE_SETTINGS
@given(xml_trees(), st.data())
def test_a_label_that_names_no_node_is_missing_on_all_four_routes(tree, data):
    node = data.draw(st.sampled_from(tree.nodes_by_pre))
    components = node.dewey.components
    beyond = data.draw(st.integers(min_value=0, max_value=3))
    # an ordinal past the last child — at the node itself, or (cutting the
    # label short and running past a sibling) at any depth above it
    cut = data.draw(st.integers(min_value=0, max_value=len(components)))
    holder = tree.node(Dewey(components[:cut]))
    missing = [Dewey(components[:cut] + (len(holder.children) + beyond,))]
    # ... and a path that goes on below it: below a leaf, or too long
    missing.append(Dewey(missing[0].components + (0,)))
    leaf = next(n for n in tree.nodes_by_pre[node.pre :] if n.is_leaf)
    missing.append(Dewey(leaf.dewey.components + (beyond,)))
    missing.append(Dewey(leaf.dewey.components + (0,) * (beyond + 2)))
    for label in missing:
        assert tree.find_node(label) is None
        assert not tree.has_node(label) and label not in tree
        with pytest.raises(ExtractError, match=f"no node with Dewey label {label} in tree"):
            tree.node(label)
        with pytest.raises(ExtractError):
            tree.extract_projection([tree.root.dewey, label])


@TREE_SETTINGS
@given(xml_trees(), st.data())
def test_labels_move_with_the_nodes_when_an_edit_is_refreshed(tree, data):
    parent = data.draw(st.sampled_from(tree.nodes_by_pre))
    position = data.draw(st.integers(min_value=0, max_value=len(parent.children)))
    shifted = parent.children[position:]
    inserted = XMLNode("inserted")
    inserted.append_child(XMLNode("below", "value"))
    parent.children.insert(position, inserted)
    tree.refresh()

    expected = reference_labels(tree.root)
    assert inserted.parent is parent and inserted.ordinal == position
    assert inserted.dewey == parent.dewey.child(position)
    assert [node.ordinal for node in shifted] == list(
        range(position + 1, len(parent.children))
    )
    for node in tree.nodes_by_pre:
        assert node.dewey == expected[id(node)] and tree.node(node.dewey) is node


#: a subtree shape: the list of the shapes of a node's children
SHAPES = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=4), max_leaves=20
)


def build_detached(shape: list) -> XMLNode:
    """Bottom-up with the public ``append_child``: every child subtree is
    complete — and readable by label on its own — before it is grafted."""
    node = XMLNode("n")
    for child_shape in shape:
        child = build_detached(child_shape)
        assert child.dewey == Dewey(()) and child.depth == 0
        node.append_child(child)
    return node


@TREE_SETTINGS
@given(SHAPES)
def test_a_detached_subtree_reads_labels_relative_to_its_own_root(shape):
    subtree = build_detached(shape)
    expected = reference_labels(subtree)
    for node in subtree.iter_subtree():
        assert node.dewey == expected[id(node)]
        assert node.depth == expected[id(node)].depth
    # grafting it shifts every label below the new parent, nothing else to do
    root = XMLNode("root")
    root.append_child(XMLNode("first"))
    root.append_child(subtree)
    for node in subtree.iter_subtree():
        assert node.dewey == Dewey((1,) + expected[id(node)].components)
    with pytest.raises(ValueError, match="already attached"):
        XMLNode("other").append_child(subtree)
    tree = XMLTree(root)
    for node in subtree.iter_subtree():
        assert tree.node(node.dewey) is node
