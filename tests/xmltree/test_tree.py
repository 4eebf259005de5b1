"""Tests for the XMLTree container."""

from __future__ import annotations

import gc

import pytest

from repro.errors import ExtractError
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


@pytest.fixture()
def sample_tree():
    return tree_from_dict(
        "retailer",
        {
            "name": "Brook Brothers",
            "store": [
                {"city": "Houston", "name": "Galleria"},
                {"city": "Austin", "name": "West Village"},
            ],
        },
        name="sample",
    )


class TestConstruction:
    def test_rejects_attached_root(self):
        parent = XMLNode("a")
        child = XMLNode("b")
        parent.append_child(child)
        with pytest.raises(ExtractError):
            XMLTree(child)

    def test_registry_covers_all_nodes(self, sample_tree):
        assert sample_tree.size_nodes == 8
        for node in sample_tree.iter_nodes():
            assert sample_tree.node(node.dewey) is node

    def test_size_edges(self, sample_tree):
        assert sample_tree.size_edges == sample_tree.size_nodes - 1

    def test_max_depth(self, sample_tree):
        assert sample_tree.max_depth == 2

    def test_refresh_after_manual_edit(self, sample_tree):
        extra = XMLNode("product", "apparel")
        sample_tree.root.append_child(extra)
        sample_tree.refresh()
        assert sample_tree.node(extra.dewey) is extra
        assert sample_tree.size_nodes == 9


class TestLookup:
    def test_node_by_label(self, sample_tree):
        root = sample_tree.node(Dewey.root())
        assert root.tag == "retailer"

    def test_unknown_label_raises(self, sample_tree):
        with pytest.raises(ExtractError):
            sample_tree.node(Dewey((9, 9)))

    def test_has_node_and_contains(self, sample_tree):
        assert sample_tree.has_node(Dewey((0,)))
        assert Dewey((0,)) in sample_tree
        assert Dewey((42,)) not in sample_tree

    def test_a_lookup_walks_the_children_and_keeps_no_label(self, sample_tree):
        def live_labels() -> set[int]:
            gc.collect()
            return {id(obj) for obj in gc.get_objects() if type(obj) is Dewey}

        label = Dewey((1,))
        before = live_labels()
        assert id(label) in before  # the probe sees a label that is held
        assert len(sample_tree) == len(sample_tree.nodes_by_pre)
        found = sample_tree.find_node(label)
        assert found is sample_tree.node(label) is sample_tree.root.children[1]
        assert found is sample_tree.nodes_by_pre[found.pre] and found.dewey == label
        # labels move with the nodes once a manual edit is refreshed
        sample_tree.root.children.insert(0, XMLNode("motto", "be bold"))
        sample_tree.refresh()
        assert sample_tree.node(label) is sample_tree.root.children[1] is not found
        assert found.dewey == Dewey((2,)) and sample_tree.node(found.dewey) is found
        # ... and nothing the tree did left a label behind
        assert live_labels() <= before

    def test_find_by_tag(self, sample_tree):
        stores = sample_tree.find_by_tag("store")
        assert len(stores) == 2
        assert all(node.tag == "store" for node in stores)

    def test_paths_column(self, sample_tree):
        paths = sample_tree.paths
        nodes = sample_tree.nodes_by_pre
        cities = paths.instances_of(("retailer", "store", "city"))
        assert sorted(nodes[pre].text for pre in cities) == ["Austin", "Houston"]
        assert list(paths.instances_of(("retailer", "nothing"))) == []
        for node in nodes:
            path_id = paths.ids[node.pre]
            assert paths.paths[path_id] == node.tag_path
            assert node.pre in paths.instances[path_id]
        assert sorted(pre for ids in paths.instances for pre in ids) == list(range(len(nodes)))
        # built once, dropped when the tree renumbers
        assert sample_tree.paths is paths
        sample_tree.refresh()
        assert sample_tree.paths is not paths and sample_tree.paths == paths

    def test_adopt_paths_requires_the_same_size(self, sample_tree):
        other = tree_from_dict("retailer", {"name": "x"})
        with pytest.raises(ExtractError):
            other.adopt_paths(sample_tree.paths)
        copy = sample_tree.copy()
        copy.adopt_paths(sample_tree.paths)
        assert copy.paths is sample_tree.paths


class TestSubtreeExtraction:
    def test_extract_subtree_copies(self, sample_tree):
        store_label = sample_tree.find_by_tag("store")[0].dewey
        subtree = sample_tree.extract_subtree(store_label)
        assert subtree.root.tag == "store"
        assert subtree.size_nodes == 3
        # the copy is independent of the original
        subtree.root.children[0].text = "CHANGED"
        assert sample_tree.node(store_label).children[0].text != "CHANGED"

    def test_extract_projection_minimal_connected(self, sample_tree):
        cities = sample_tree.find_by_tag("city")
        projection, mapping = sample_tree.extract_projection([cities[0].dewey, cities[1].dewey])
        # root of the projection is the LCA (the retailer)
        assert projection.root.tag == "retailer"
        tags = sorted(node.tag for node in projection.iter_nodes())
        assert tags == ["city", "city", "retailer", "store", "store"]
        # mapping points back to original labels
        assert set(mapping.values()) <= {node.dewey for node in sample_tree.iter_nodes()}

    def test_extract_projection_includes_full_subtree_of_requested(self, sample_tree):
        store_label = sample_tree.find_by_tag("store")[0].dewey
        projection, _ = sample_tree.extract_projection([store_label])
        assert projection.size_nodes == 3  # store + its two attribute children

    def test_extract_projection_empty_raises(self, sample_tree):
        with pytest.raises(ExtractError):
            sample_tree.extract_projection([])

    def test_extract_projection_foreign_label_raises(self, sample_tree):
        with pytest.raises(ExtractError):
            sample_tree.extract_projection([Dewey((7, 7, 7))])

    def test_copy_equals_structure(self, sample_tree):
        duplicate = sample_tree.copy()
        assert duplicate.size_nodes == sample_tree.size_nodes
        assert [n.tag for n in duplicate.iter_nodes()] == [n.tag for n in sample_tree.iter_nodes()]

    def test_repr_and_len(self, sample_tree):
        assert "sample" in repr(sample_tree)
        assert len(sample_tree) == sample_tree.size_nodes
