"""Building a tree constructs no labels.

A Dewey label is not stored: ``XMLNode.dewey`` computes it from ``parent``
/ ``ordinal`` when somebody reads it.  So the parser, the v4 snapshot
reader, ``Snippet.to_tree()``, ``clone_tree`` and a ``diff_trees`` of two
same-shape trees construct no ``Dewey`` at all, and ``extract_projection``
constructs only what its signature spells: the labels it is handed come
from the caller, the mapping it returns costs two per copied node.
"""

from __future__ import annotations

import pytest

from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.index.binfmt import load_binary_index, write_binary_index
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.generator import SnippetGenerator
from repro.xmltree.dewey import Dewey
from repro.xmltree.diff import clone_tree, diff_trees
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml_string

#: the shape of the benchmark's ``medium`` corpus (3,199 nodes)
MEDIUM = RetailConfig(retailers=6, stores_per_retailer=10, clothes_per_store=12, seed=100)


@pytest.fixture(scope="module")
def medium_tree():
    return generate_retail_document(MEDIUM, name="retail-0")


@pytest.fixture(scope="module")
def medium_xml(medium_tree):
    return to_xml_string(medium_tree)


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the label-construction and label-comparison routes,
    by name."""
    counts = {"dewey": 0, "compare": 0}
    init = Dewey.__init__
    trusted = Dewey._trusted.__func__
    equal = Dewey.__eq__
    less = Dewey.__lt__

    def counted_init(self, components=()):
        counts["dewey"] += 1
        init(self, components)

    def counted_trusted(cls, components):
        counts["dewey"] += 1
        return trusted(cls, components)

    def counted_equal(self, other):
        counts["compare"] += 1
        return equal(self, other)

    def counted_less(self, other):
        counts["compare"] += 1
        return less(self, other)

    monkeypatch.setattr(Dewey, "__init__", counted_init)
    monkeypatch.setattr(Dewey, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Dewey, "__eq__", counted_equal)
    monkeypatch.setattr(Dewey, "__lt__", counted_less)
    return counts


def test_parse_xml_builds_no_labels(medium_xml, calls):
    tree = parse_xml(medium_xml).tree

    assert tree.size_nodes == 3199
    assert calls == {"dewey": 0, "compare": 0}


def test_parse_xml_with_attributes_builds_no_labels(calls):
    tree = parse_xml('<a x="1" y="2"><b z="3">t</b><b/></a>').tree

    assert tree.size_nodes == 6
    assert calls == {"dewey": 0, "compare": 0}


def test_v4_load_builds_no_labels(medium_tree, tmp_path, calls):
    write_binary_index(IndexBuilder().build(medium_tree), tmp_path)
    # the build and the save construct none either
    assert calls == {"dewey": 0, "compare": 0}

    loaded = load_binary_index(tmp_path)

    assert loaded.tree.size_nodes == medium_tree.size_nodes
    assert calls == {"dewey": 0, "compare": 0}


def test_snippet_to_tree_builds_no_labels(medium_tree, calls):
    index = IndexBuilder().build(medium_tree)
    results = SearchEngine(index).search("store texas")
    batch = SnippetGenerator(index.analyzer).generate_all(results, size_bound=10)
    assert len(batch) > 0
    for generated in batch:
        rendered = generated.snippet.to_tree()

        assert rendered.size_edges == generated.snippet.size_edges > 0
    # nor did the build, the search or the generation
    assert calls == {"dewey": 0, "compare": 0}


def test_extract_projection_builds_the_labels_it_returns(medium_tree, calls):
    stores = [node.dewey for node in medium_tree.find_by_tag("store")]
    cities = [node.dewey for node in medium_tree.find_by_tag("city")]
    for labels in ([stores[3]], [stores[0], cities[7], cities[-1]], [medium_tree.root.dewey]):
        for name in calls:
            calls[name] = 0

        projection, mapping = medium_tree.extract_projection(labels)

        assert set(labels) <= set(mapping.values())
        assert len(mapping) == projection.size_nodes
        # a key and a value of the mapping per copied node
        assert calls["dewey"] == 2 * projection.size_nodes


def test_subtree_copies_build_no_labels(medium_tree, calls):
    store = medium_tree.find_by_tag("store")[3]
    label = store.dewey
    calls["dewey"] = 0

    assert medium_tree.extract_subtree(label).size_nodes == store.subtree_size_nodes()
    assert medium_tree.copy().size_nodes == medium_tree.size_nodes
    clone = clone_tree(medium_tree)

    assert clone.name == medium_tree.name and clone.size_nodes == medium_tree.size_nodes
    assert calls["dewey"] == 0


def test_diff_of_same_shape_trees_builds_and_compares_no_labels(medium_xml, calls):
    old = parse_xml(medium_xml).tree
    new = parse_xml(medium_xml.replace("<city>", "<city>New ")).tree

    diff = diff_trees(old, new)

    assert diff.is_text_only and len(diff.text_edits) == len(old.find_by_tag("city"))
    assert calls == {"dewey": 0, "compare": 0}


def test_the_counters_see_a_label_being_read(calls):
    """Sanity check on the fixture: reading ``.dewey`` builds a label, and
    that does trip the counters."""
    root = XMLNode("a")
    subtree = XMLNode("b")
    subtree.append_child(XMLNode("c"))
    root.append_child(subtree)
    assert calls == {"dewey": 0, "compare": 0}

    assert subtree.children[0].dewey == Dewey((0, 0))
    assert calls == {"dewey": 2, "compare": 1}
