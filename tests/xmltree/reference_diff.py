"""The node-by-node tree diff, frozen — a test-only oracle.

Until the diff compared columns, :func:`repro.xmltree.diff.diff_trees`
walked the two ``nodes_by_pre`` lists in step and checked, per position,
``level``, then ``tag``, then the start tag's attributes, then ``text``,
stopping at the first structural difference.  This module is that walk
as it stood, minus the attribute comparison (a parsed attribute is also
its mirror child element, which the walk compares as a node; a tree
loaded from a snapshot keeps no attribute record, so comparing records
made every update of such a document structural).  Nothing under
``src/`` imports it: the property suite holds the column diff to it —
equal :class:`~repro.xmltree.diff.TreeDiff`, edits and
``structural_reason`` text included.
"""

from __future__ import annotations

from repro.xmltree.diff import TextEdit, TreeDiff
from repro.xmltree.tree import XMLTree


def _structural(reason: str) -> TreeDiff:
    return TreeDiff(text_edits=(), structural_reason=reason)


def diff_trees(old: XMLTree, new: XMLTree) -> TreeDiff:
    """Classify the difference between two versions of one document."""
    if old.size_nodes != new.size_nodes:
        return _structural(
            f"node count changed from {old.size_nodes} to {new.size_nodes}"
        )
    edits: list[TextEdit] = []
    paths = None
    for old_node, new_node in zip(old.nodes_by_pre, new.nodes_by_pre):
        if old_node.level != new_node.level:
            return _structural(
                f"tree shape changed near {old_node.dewey} / {new_node.dewey}"
            )
        if old_node.tag != new_node.tag:
            return _structural(
                f"tag at {old_node.dewey} changed from "
                f"{old_node.tag!r} to {new_node.tag!r}"
            )
        if old_node.text != new_node.text:
            if bool(old_node.text) != bool(new_node.text):
                return _structural(
                    f"text presence at {old_node.dewey} (<{old_node.tag}>) changed"
                )
            if not new_node.text:
                continue
            if paths is None:
                paths = old.paths
            edits.append(
                TextEdit(
                    pre=old_node.pre,
                    tree=new,
                    tag=old_node.tag,
                    tag_path=paths.paths[paths.ids[old_node.pre]],
                    old_text=old_node.text or "",
                    new_text=new_node.text or "",
                )
            )
    return TreeDiff(text_edits=tuple(edits))
