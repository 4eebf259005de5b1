"""Diff oracle: the column diff against the frozen node-by-node walk.

``tests/xmltree/reference_diff.py`` is the walk :func:`diff_trees` used to
be, minus its comparison of the start tags' attribute records.  On
generated (old, edited) pairs — text edits, ``""`` for a value, presence
flips, tag renames, reshapes at an equal node count and count changes,
one to three of them in one version — both must give an equal
:class:`~repro.xmltree.diff.TreeDiff`: the same text edits and the same
``structural_reason`` text, which an ``UpdateResponse`` carries on the
wire.  The edited version is either the edited copy itself or, as an
update request delivers it, that copy written out and parsed again.

CI runs this file under ``--hypothesis-profile=fuzz`` (see
``tests/conftest.py``); tier-1 runs hypothesis' default example count.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.xmltree.diff import clone_tree, diff_trees
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import XMLTree
from tests.property.strategies import TAGS, VALUES, xml_documents
from tests.xmltree import reference_diff

# No max_examples here: the active hypothesis profile decides.
FUZZ_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

EDITS = ("text", "empty", "presence", "rename", "reshape", "add", "drop")


def _edit(tree: XMLTree, kind: str, rng) -> None:
    """Apply one edit of ``kind`` to ``tree`` in place (then renumber)."""
    nodes = tree.nodes_by_pre
    node = nodes[rng.randrange(len(nodes))]
    if kind == "text":
        node.text = rng.choice([value for value in VALUES if value != node.text])
    elif kind == "empty":
        node.text = "" if node.text is None else node.text
    elif kind == "presence":
        node.text = None if node.text else rng.choice(VALUES)
    elif kind == "rename":
        node.tag = rng.choice([tag for tag in TAGS if tag != node.tag])
    elif kind == "add":
        node.children.insert(rng.randrange(len(node.children) + 1), XMLNode("box", "alpha"))
    else:
        leaves = [leaf for leaf in nodes[1:] if not leaf.children]
        if not leaves:
            return
        leaf = rng.choice(leaves)
        leaf.parent.children.remove(leaf)
        if kind == "reshape":  # the same node count, another shape (or the same)
            home = rng.choice([other for other in nodes if other is not leaf])
            home.children.insert(rng.randrange(len(home.children) + 1), leaf)
    tree.refresh()


@st.composite
def versions(draw) -> tuple[XMLTree, XMLTree]:
    """An old version, parsed, and an edited version of it."""
    old = parse_xml(draw(xml_documents(max_nesting=3))).tree
    new = clone_tree(old)
    rng = draw(st.randoms(use_true_random=False))
    for kind in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3)):
        _edit(new, kind, rng)
    if draw(st.booleans()):
        new = parse_xml(to_xml_string(new)).tree
    return old, new


@FUZZ_SETTINGS
@given(versions())
def test_the_column_diff_equals_the_node_walk(pair):
    old, new = pair
    expected = reference_diff.diff_trees(old, new)
    actual = diff_trees(old, new)
    assert actual == expected
    assert [repr(edit) for edit in actual.text_edits] == [
        repr(edit) for edit in expected.text_edits
    ]


@FUZZ_SETTINGS
@given(xml_documents(max_nesting=3))
def test_a_reparsed_copy_diffs_empty(text):
    old = parse_xml(text).tree
    assert diff_trees(old, parse_xml(text).tree).is_empty
    assert diff_trees(old, old.copy()).is_empty
