"""``TreeShape``: the parent / level / size tables the search path reads.

The tables are the int counterpart of what Dewey labels answer by prefix
arithmetic, so every answer is checked against the labels: ancestry
(``a <= b < a + size[a]``), lowest common ancestor (``parent`` hops) and
the deepest-antichain filter.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import ExtractError
from repro.xmltree.dewey import Dewey
from repro.xmltree.diff import clone_tree
from repro.xmltree.parser import parse_xml
from tests.search.reference_lca import remove_ancestors


class TestTablesAgreeWithLabels:
    def test_one_entry_per_node(self, figure1_tree):
        parent, level, size = figure1_tree.shape
        assert len(parent) == len(level) == len(size) == figure1_tree.size_nodes
        for node in figure1_tree.nodes_by_pre:
            assert parent[node.pre] == (node.parent.pre if node.parent else -1)
            assert level[node.pre] == node.dewey.depth
            assert size[node.pre] == node.subtree_size_nodes()

    def test_ancestry_agrees_with_dewey_on_every_pair(self, figure1_tree):
        size = figure1_tree.shape.size
        labels = [node.dewey for node in figure1_tree.nodes_by_pre]
        for (a, label_a), (b, label_b) in itertools.product(enumerate(labels), repeat=2):
            contained = a <= b < a + size[a]
            assert contained == label_a.is_ancestor_or_self(label_b)

    def test_lca_agrees_with_dewey_on_every_pair(self, figure1_tree):
        shape = figure1_tree.shape
        labels = [node.dewey for node in figure1_tree.nodes_by_pre]
        for (a, label_a), (b, label_b) in itertools.product(enumerate(labels), repeat=2):
            assert labels[shape.lca(a, b)] == Dewey.common_ancestor(label_a, label_b)

    def test_spans_are_properly_nested(self, figure1_tree):
        # A child's (pre, post) interval sits strictly inside its parent's.
        for node in figure1_tree.iter_nodes():
            for child in node.children:
                assert node.pre < child.pre
                assert child.post < node.post

    def test_remove_ancestors_matches_the_label_oracle(self, figure1_tree):
        nodes = figure1_tree.nodes_by_pre
        for step in (2, 3, 5):
            ids = [node.pre for node in nodes[::step]]
            kept = figure1_tree.shape.remove_ancestors(ids + ids)  # duplicates too
            assert [nodes[pre].dewey for pre in kept] == remove_ancestors(
                nodes[pre].dewey for pre in ids
            )
        assert figure1_tree.shape.remove_ancestors([]) == []


class TestLifetime:
    def test_built_on_first_use_and_dropped_by_a_reindex(self):
        tree = parse_xml("<r><a><b/></a><c/></r>").tree
        assert tree._shape is None  # parsing alone builds no tables
        shape = tree.shape
        assert tree.shape is shape
        assert shape.size == [4, 2, 1, 1]
        tree.root.children[1].append_child(type(tree.root)("d"))
        tree.refresh()
        assert tree.shape is not shape
        assert tree.shape.size == [5, 2, 1, 2, 1]

    def test_a_text_only_version_adopts_the_tables(self, figure1_tree):
        edited = clone_tree(figure1_tree)
        next(node for node in edited.iter_nodes() if node.text).text = "changed"
        edited.adopt_shape(figure1_tree.shape)
        assert edited.shape is figure1_tree.shape

    def test_a_tree_of_another_size_cannot_adopt_them(self, figure1_tree):
        other = parse_xml("<r><a/></r>").tree
        with pytest.raises(ExtractError, match="cannot adopt the shape"):
            other.adopt_shape(figure1_tree.shape)
