"""Hypothesis strategies shared by the property-based tests.

Random XML documents are drawn from a small tag/value vocabulary so that
tags repeat (producing entities) and values collide (producing non-trivial
feature statistics), which is the regime the algorithms care about.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

TAGS = ("store", "item", "clothes", "name", "city", "category", "info", "box")
VALUES = ("texas", "houston", "austin", "suit", "outwear", "alpha", "beta", "gamma")


@st.composite
def dewey_labels(draw, max_depth: int = 6, max_ordinal: int = 4):
    """A random Dewey label (possibly the root)."""
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return Dewey(tuple(draw(st.integers(min_value=0, max_value=max_ordinal)) for _ in range(depth)))


@st.composite
def label_sets(draw, min_size: int = 1, max_size: int = 12):
    """A non-empty set of random Dewey labels."""
    return draw(st.lists(dewey_labels(), min_size=min_size, max_size=max_size, unique=True))


@st.composite
def xml_trees(draw, max_children: int = 4, max_depth: int = 4):
    """A random XML document over the small tag/value vocabulary."""

    def build(depth: int) -> XMLNode:
        tag = draw(st.sampled_from(TAGS))
        node = XMLNode(tag)
        if depth >= max_depth or draw(st.booleans()):
            # leaf: usually carries a value
            if draw(st.integers(min_value=0, max_value=3)):
                node.text = draw(st.sampled_from(VALUES))
            return node
        for _ in range(draw(st.integers(min_value=0, max_value=max_children))):
            node.append_child(build(depth + 1))
        if not node.children and draw(st.booleans()):
            node.text = draw(st.sampled_from(VALUES))
        return node

    root = XMLNode("root")
    for _ in range(draw(st.integers(min_value=1, max_value=max_children))):
        root.append_child(build(1))
    return XMLTree(root, name="hypothesis")


ATTRIBUTE_NAMES = ("id", "kind", "x:y")
MISC = ("<!-- note -->", "<?pi data?>", "<!---->")


@st.composite
def xml_documents(draw, max_children: int = 4, max_depth: int = 4, max_nesting: int = 200):
    """The XML text of an :func:`xml_trees` document, written out with
    what a parse has to number around: attributes (each one a mirror child
    element), values as text or CDATA sections, comments and processing
    instructions between children, all inside a chain of up to
    ``max_nesting`` wrapper elements (deep nesting).  Always well formed."""
    tree = draw(xml_trees(max_children=max_children, max_depth=max_depth))
    out: list[str] = []

    def misc() -> None:
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            out.append(draw(st.sampled_from(MISC)))

    def write(node: XMLNode) -> None:
        names = draw(st.lists(st.sampled_from(ATTRIBUTE_NAMES), max_size=2, unique=True))
        out.append(f"<{node.tag}")
        out.extend(f' {name}="{draw(st.sampled_from(VALUES))}"' for name in names)
        if not node.children and not node.text and draw(st.booleans()):
            out.append("/>")
            return
        out.append(">")
        misc()
        if node.text:
            out.append(f"<![CDATA[{node.text}]]>" if draw(st.booleans()) else node.text)
        for child in node.children:
            write(child)
            misc()
        out.append(f"</{node.tag}>")

    nesting = draw(st.integers(min_value=0, max_value=max_nesting))
    out.append("<wrap>" * nesting)
    write(tree.root)
    out.append("</wrap>" * nesting)
    return "".join(out)


@st.composite
def posting_list_groups(draw, max_keywords: int = 3):
    """1-3 keyword match lists of random labels, as a
    :class:`tests.search.label_doc.LabelDoc`: the int posting lists over
    the smallest tree that has those labels, and the oracle's label lists."""
    from tests.search.label_doc import LabelDoc

    count = draw(st.integers(min_value=1, max_value=max_keywords))
    return LabelDoc(*(draw(label_sets(max_size=8)) for _ in range(count)))
