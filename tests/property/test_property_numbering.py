"""Numbering oracle: a parse and a copy number a tree as a reindex would.

The parser numbers each node as it makes it, and :meth:`XMLTree.copy`
takes its source's ids, so neither runs ``XMLTree._reindex``.  The
reindex stays the definition: on every generated document
(:func:`tests.property.strategies.xml_documents` — attributes, CDATA,
comments, deep nesting) and on every copy, an identical tree that *is*
reindexed must agree node for node — ``pre`` / ``post`` / ``level`` /
``ordinal``, an equal :attr:`XMLTree.shape`, and a ``parent`` that is the
node's parent, one weak link per parent shared by its children.

CI runs this file under ``--hypothesis-profile=fuzz`` (see
``tests/conftest.py``); tier-1 runs hypothesis' default example count.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_xml
from repro.xmltree.tree import XMLTree
from tests.property.strategies import xml_documents

# No max_examples here: the active hypothesis profile decides.
FUZZ_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

SLOTS = tuple(slot for slot in XMLNode.__slots__ if slot != "__weakref__")


def numbering(tree: XMLTree) -> list[tuple]:
    """What the tree says about each node, in ``nodes_by_pre`` order."""
    return [
        (node.tag, node.text, node.pre, node.post, node.level, node.ordinal)
        for node in tree.nodes_by_pre
    ]


def assert_numbered_like_a_reindex(tree: XMLTree, twin: XMLTree) -> None:
    """``tree`` (numbered by its maker) against ``twin``, an identical
    tree numbered by ``_reindex``."""
    nodes = tree.nodes_by_pre
    assert all(hasattr(node, slot) for node in nodes for slot in SLOTS)
    assert list(tree.iter_nodes()) == nodes  # document order, by identity
    assert tree.root is nodes[0] and tree.root._parent is None
    twin._reindex()
    assert numbering(tree) == numbering(twin)
    assert tree.shape == twin.shape
    parents = tree.shape.parent
    for pre, node in enumerate(nodes):
        if pre:
            parent = nodes[parents[pre]]
            assert node.parent is parent
            assert parent.children[node.ordinal] is node
        links = {id(child._parent) for child in node.children}
        assert len(links) <= 1  # one weak link per parent, shared


@FUZZ_SETTINGS
@given(xml_documents())
def test_a_parse_numbers_the_tree_as_a_reindex_would(text):
    assert_numbered_like_a_reindex(parse_xml(text).tree, parse_xml(text).tree)


@FUZZ_SETTINGS
@given(xml_documents())
def test_a_copy_numbers_the_tree_as_a_reindex_would(text):
    source = parse_xml(text).tree
    copy = source.copy()
    assert copy.shape is not source.shape  # posting lists name their tree by it
    assert not set(map(id, copy.nodes_by_pre)) & set(map(id, source.nodes_by_pre))
    assert_numbered_like_a_reindex(copy, parse_xml(text).tree)
    # a copy of a copy: attached through a shape built from the copy's ids
    assert_numbered_like_a_reindex(copy.copy(), parse_xml(text).tree)

