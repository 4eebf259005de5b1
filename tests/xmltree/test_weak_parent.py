"""A node holds its parent weakly: it keeps its subtree alive, not its
ancestors.

``XMLNode.parent`` reads a ``weakref.ref`` (one per parent, shared by its
children) and ``children`` holds strong links, so a document version has
no reference cycle.  While anything holds the root, every upward read —
``parent``, ``dewey``, ``iter_ancestors`` — answers as a strong link did;
once a node's parent is gone, every upward read raises
``DeadParentError`` rather than answer as if the node were a root.
"""

from __future__ import annotations

import gc

import pytest

from repro.datasets import RetailConfig, generate_retail_document
from repro.errors import DeadParentError
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, save_index
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import XMLTree


def retail() -> XMLTree:
    return generate_retail_document(
        RetailConfig(retailers=2, stores_per_retailer=3, clothes_per_store=3, seed=4)
    )


def assert_upward_reads_hold(tree: XMLTree) -> None:
    """Every node's ``parent``, ``dewey`` and ancestors agree with the
    shape table, which is computed from the ``children`` lists alone."""
    nodes = tree.nodes_by_pre
    parents = tree.shape.parent
    for node in nodes:
        if node.pre == 0:
            assert node.parent is None and node.is_root
            assert node.dewey == Dewey(())
            assert list(node.iter_ancestors()) == []
            continue
        assert node.parent is nodes[parents[node.pre]]
        assert tree.node(node.dewey) is node
        expected = []
        pre = parents[node.pre]
        while pre >= 0:
            expected.append(nodes[pre])
            pre = parents[pre]
        assert list(node.iter_ancestors()) == expected
        assert node.depth == node.level == len(expected)


def built_trees() -> dict[str, XMLTree]:
    """The same document from every construction route."""
    built = retail()
    return {
        "builder": built,
        "parser": parse_xml(to_xml_string(built), name="retail").tree,
        "copy": built.copy(),
    }


class TestWhileTheRootIsHeld:
    @pytest.mark.parametrize("route", ["builder", "parser", "copy"])
    def test_upward_reads_are_unchanged(self, route):
        tree = built_trees()[route]
        gc.collect()
        assert_upward_reads_hold(tree)

    def test_a_snapshot_read_back_has_its_parents(self, tmp_path):
        save_index(IndexBuilder().build(retail()), str(tmp_path))
        tree = load_index(str(tmp_path)).tree
        gc.collect()
        assert_upward_reads_hold(tree)

    def test_a_refresh_after_a_manual_edit_rewires_the_parents(self):
        tree = retail()
        first, last = tree.find_by_tag("store")[0], tree.find_by_tag("store")[-1]
        moved = first.children.pop()
        last.children.append(moved)
        tree.refresh()
        assert moved.parent is last
        assert_upward_reads_hold(tree)


class TestAppendChild:
    def test_an_attached_node_is_refused(self):
        tree = retail()
        store = tree.root.children[1]
        with pytest.raises(ValueError, match="already attached"):
            XMLNode("elsewhere").append_child(store)
        assert store.parent is tree.root

    def test_a_detached_node_is_attached(self):
        parent, child = XMLNode("a"), XMLNode("b")
        assert parent.append_child(child) is child
        assert child.parent is parent and child.ordinal == 0
        with pytest.raises(ValueError, match="already attached"):
            XMLNode("c").append_child(child)


class TestCopiesKeepTheirOwnParents:
    def test_a_subtree_copy(self):
        tree = retail()
        store = tree.find_by_tag("store")[1]
        copy = tree.copy_nodes(store.subtree_ids())
        del tree, store
        gc.collect()
        assert copy.root.tag == "store" and copy.root.parent is None
        assert_upward_reads_hold(copy)

    def test_a_projection(self):
        tree = retail()
        cities = [node.dewey for node in tree.find_by_tag("city")[:2]]
        projection, provenance = tree.extract_projection(cities)
        nodes = set(map(id, tree.nodes_by_pre))
        assert not any(id(node.parent) in nodes for node in projection.nodes_by_pre)
        del tree
        gc.collect()
        assert_upward_reads_hold(projection)
        assert all(projection.has_node(label) for label in provenance)


class TestOnceTheAncestorsAreDropped:
    def test_every_upward_read_raises(self):
        tree = retail()
        store = tree.find_by_tag("store")[0]
        city = store.find_child("city")
        assert store.parent is not None and city.dewey != Dewey((0,))
        del tree
        # no collection needed: nothing but ``store`` held the ancestors
        for read in ("parent", "dewey", "is_root", "depth", "tag_path"):
            with pytest.raises(DeadParentError, match="<store> was freed"):
                getattr(store, read)
        with pytest.raises(DeadParentError):
            list(store.iter_ancestors())
        # it still keeps its own subtree, parents included; a repr names
        # the node without its label
        assert city.parent is store and city in store.children
        assert repr(store) == "<XMLNode store@(parent freed)>"

    def test_a_label_read_mid_expression_raises(self):
        # the label used to read as the root's, ``r``
        with pytest.raises(DeadParentError, match="<c> was freed"):
            parse_xml("<a><b><c/></b></a>").tree.root.children[0].children[0].dewey

    def test_a_node_with_a_dead_parent_is_refused(self):
        tree = retail()
        store = tree.find_by_tag("store")[0]
        del tree
        holder = XMLNode("holder")
        with pytest.raises(DeadParentError):
            holder.append_child(store)
        assert holder.children == []

    def test_a_root_reads_as_a_root(self):
        tree = retail()
        root = tree.root
        del tree
        assert root.parent is None and root.is_root and root.dewey == Dewey(())
