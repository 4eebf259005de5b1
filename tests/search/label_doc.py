"""Posting lists from bare Dewey label texts, for semantics tests.

LCA semantics are easiest to read in labels ("the SLCA of 0.0.0 and 0.0.1
is 0.0"), but a posting list indexes a real tree.  :class:`LabelDoc`
builds the smallest tree that has every label a test mentions (filler
siblings included) and hands out the int posting lists over it, the
label lists of the frozen oracle over the same nodes, and the way back
from ids to label texts.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.index.postings import PostingList
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree
from tests.search.reference_lca import LabelPostingList


def tree_covering(labels: Iterable[Dewey]) -> XMLTree:
    """The smallest tree in which every one of ``labels`` names a node."""
    root = XMLNode("n")
    for label in labels:
        node = root
        for ordinal in label.components:
            while len(node.children) <= ordinal:
                node._attach(XMLNode("n"))
            node = node.children[ordinal]
    return XMLTree(root, name="label-doc")


class LabelDoc:
    """One keyword per argument: the labels (or label texts) it matches."""

    def __init__(self, *keywords: Iterable[Dewey | str]):
        groups = [
            [label if isinstance(label, Dewey) else Dewey.parse(label) for label in group]
            for group in keywords
        ]
        self.tree = tree_covering(label for group in groups for label in group)
        #: the posting lists under test, one per keyword
        self.lists = [PostingList.from_labels(group, self.tree) for group in groups]
        #: the same matches as the oracle's label lists
        self.label_lists = [LabelPostingList(group) for group in groups]

    def labels(self, ids: Iterable[int]) -> list[Dewey]:
        nodes = self.tree.nodes_by_pre
        return [nodes[pre].dewey for pre in ids]

    def texts(self, ids: Iterable[int]) -> list[str]:
        return [str(label) for label in self.labels(ids)]
