"""Tests for the XMLNode model."""

from __future__ import annotations

import pytest

from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode


def build_sample() -> XMLNode:
    root = XMLNode("retailer")
    name = XMLNode("name", "Brook Brothers")
    store = XMLNode("store")
    city = XMLNode("city", "Houston")
    root.append_child(name)
    root.append_child(store)
    store.append_child(city)
    return root


class TestConstruction:
    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            XMLNode("")

    def test_non_string_tag_rejected(self):
        with pytest.raises(ValueError):
            XMLNode(None)  # type: ignore[arg-type]

    def test_blank_text_becomes_none(self):
        assert XMLNode("a", "").text is None

    def test_append_child_sets_parent_and_dewey(self):
        root = build_sample()
        store = root.children[1]
        assert store.parent is root
        assert store.dewey == Dewey((1,))
        assert store.children[0].dewey == Dewey((1, 0))

    def test_append_attached_child_rejected(self):
        root = build_sample()
        other = XMLNode("other")
        with pytest.raises(ValueError):
            other.append_child(root.children[0])

    def test_relabel_after_graft(self):
        root = XMLNode("a")
        subtree = XMLNode("b")
        subtree.append_child(XMLNode("c"))
        root.append_child(subtree)
        assert subtree.dewey == Dewey((0,))
        assert subtree.children[0].dewey == Dewey((0, 0))


class TestProperties:
    def test_is_leaf_and_root(self):
        root = build_sample()
        assert root.is_root and not root.is_leaf
        assert root.children[0].is_leaf

    def test_depth(self):
        root = build_sample()
        assert root.depth == 0
        assert root.children[1].children[0].depth == 2

    def test_has_text_value(self):
        root = build_sample()
        assert root.children[0].has_text_value
        assert not root.children[1].has_text_value

    def test_tag_path(self):
        root = build_sample()
        city = root.children[1].children[0]
        assert city.tag_path == ("retailer", "store", "city")


class TestTraversal:
    def test_iter_subtree_preorder(self):
        root = build_sample()
        tags = [node.tag for node in root.iter_subtree()]
        assert tags == ["retailer", "name", "store", "city"]

    def test_iter_descendants_excludes_self(self):
        root = build_sample()
        tags = [node.tag for node in root.iter_descendants()]
        assert tags == ["name", "store", "city"]

    def test_iter_ancestors(self):
        root = build_sample()
        city = root.children[1].children[0]
        assert [node.tag for node in city.iter_ancestors()] == ["store", "retailer"]
        assert [node.tag for node in city.iter_ancestors(include_self=True)][0] == "city"

    def test_find_children(self):
        root = build_sample()
        assert [node.tag for node in root.find_children("store")] == ["store"]
        assert root.find_children("missing") == []

    def test_find_child(self):
        root = build_sample()
        assert root.find_child("name").text == "Brook Brothers"
        assert root.find_child("missing") is None

    def test_find_descendants(self):
        root = build_sample()
        assert [node.text for node in root.find_descendants("city")] == ["Houston"]


class TestContent:
    def test_full_text(self):
        root = build_sample()
        assert root.full_text() == "Brook Brothers Houston"

    def test_subtree_sizes(self):
        root = build_sample()
        assert root.subtree_size_nodes() == 4
        assert root.subtree_size_edges() == 3
        assert root.children[0].subtree_size_edges() == 0

    def test_dunder_iter_and_len(self):
        root = build_sample()
        assert len(root) == 2
        assert [child.tag for child in root] == ["name", "store"]

    def test_repr_contains_tag_and_dewey(self):
        root = build_sample()
        assert "retailer" in repr(root)
        assert "Houston" in repr(root.children[1].children[0])
