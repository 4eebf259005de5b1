"""Diffing two versions of a document tree (incremental-update support).

:func:`diff_trees` compares an indexed document against an edited version
of it and classifies the difference:

* **empty** — the trees are identical; an update is a no-op,
* **text-only** — the same nodes in the same shape, with the same tags,
  but some nodes carry different (non-empty) text values.  These edits can
  be applied to an existing :class:`~repro.index.builder.DocumentIndex` as
  posting-level deltas (see :mod:`repro.index.incremental`),
* **structural** — anything else: nodes added or removed, tags renamed,
  or text appearing/disappearing entirely.  Structural changes can move
  schema classification (entity / attribute / connection) and therefore
  force a full re-index.

Text *presence* flips (``None`` ↔ a value) are deliberately classified as
structural: the attribute rule of §2.1 keys on whether instances carry
text, so such an edit can reclassify a schema node.  An XML attribute is
compared as what the data model makes of it, its mirror child element
(``<store id="3">`` has an ``id`` child): a changed value is a text edit,
an added or dropped attribute a changed node count.

The diff checks the shape as a column: a pre-order sequence of depths
determines a tree's shape (and, a label being a position, its Dewey
labels), so two trees of equal size have the same shape iff the new
tree's ``level`` column equals the old one's ``shape.level`` — one list
comparison.  Then only tag and text are compared, node by node, in
document order, up to the first position where the levels disagree; the
first difference that is not a text edit is the structural reason.  A
label is computed only to word that reason or when somebody reads
:attr:`TextEdit.label`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ExtractError
from repro.xmltree.dewey import Dewey
from repro.xmltree.tree import XMLTree


@dataclass(frozen=True)
class TextEdit:
    """One node whose text value changed between two document versions."""

    #: position in document order — the same node in both versions
    pre: int
    #: the new version.  Held whole, not as the edited node alone: a node
    #: holds its ancestors weakly, so once the version is retired a lone
    #: node would forget where it sat.
    tree: XMLTree
    tag: str
    tag_path: tuple[str, ...]
    old_text: str
    new_text: str

    @property
    def label(self) -> Dewey:
        """The node's Dewey label, as the journal and replication records
        spell it."""
        return self.tree.nodes_by_pre[self.pre].dewey

    def __repr__(self) -> str:
        return f"<TextEdit {self.label} {self.old_text!r} -> {self.new_text!r}>"


@dataclass(frozen=True)
class TreeDiff:
    """The difference between an old and a new version of one document."""

    text_edits: tuple[TextEdit, ...] = ()
    #: human-readable reason when the change is structural, else ``None``
    structural_reason: str | None = None

    @property
    def is_empty(self) -> bool:
        return not self.text_edits and self.structural_reason is None

    @property
    def is_text_only(self) -> bool:
        """True when the change can be applied as posting-level deltas."""
        return self.structural_reason is None and bool(self.text_edits)

    @property
    def is_structural(self) -> bool:
        return self.structural_reason is not None

    def __repr__(self) -> str:
        if self.is_structural:
            return f"<TreeDiff structural: {self.structural_reason}>"
        return f"<TreeDiff text_edits={len(self.text_edits)}>"


def _structural(reason: str) -> TreeDiff:
    return TreeDiff(text_edits=(), structural_reason=reason)


def _first_difference(old: list, new: list) -> int:
    """The first position where two columns of equal length disagree."""
    return next(pre for pre, (a, b) in enumerate(zip(old, new)) if a != b)


def diff_trees(old: XMLTree, new: XMLTree) -> TreeDiff:
    """Classify the difference between two versions of one document.

    >>> from repro.xmltree.builder import tree_from_dict
    >>> old = tree_from_dict("shop", {"name": "Levis", "city": "Austin"})
    >>> new = tree_from_dict("shop", {"name": "Levis", "city": "Houston"})
    >>> diff = diff_trees(old, new)
    >>> diff.is_text_only, len(diff.text_edits)
    (True, 1)
    >>> diff.text_edits[0].new_text
    'Houston'
    """
    size = old.size_nodes
    if size != new.size_nodes:
        return _structural(f"node count changed from {size} to {new.size_nodes}")
    old_nodes = old.nodes_by_pre
    new_nodes = new.nodes_by_pre
    old_levels = old.shape.level
    new_levels = [node.level for node in new_nodes]
    reshaped = size if new_levels == old_levels else _first_difference(old_levels, new_levels)
    edits: list[TextEdit] = []
    paths = None
    for old_node, new_node in zip(old_nodes[:reshaped], new_nodes):
        if old_node.tag != new_node.tag:
            return _structural(
                f"tag at {old_node.dewey} changed from "
                f"{old_node.tag!r} to {new_node.tag!r}"
            )
        old_text = old_node.text
        new_text = new_node.text
        if old_text != new_text:
            # Presence follows has_text_value (truthiness): the parser
            # normalises empty text to None, but nodes built or edited
            # directly may carry "" — which the whole pipeline (schema
            # with_text, indexing, feature extraction) treats as absent.
            if bool(old_text) != bool(new_text):
                # A value appearing or disappearing can flip the §2.1
                # attribute classification of the whole schema node.
                return _structural(
                    f"text presence at {old_node.dewey} (<{old_node.tag}>) changed"
                )
            if not new_text:
                continue  # "" vs None: indistinguishable to the pipeline
            if paths is None:
                paths = old.paths
            pre = old_node.pre
            edits.append(
                TextEdit(
                    pre=pre,
                    tree=new,
                    tag=old_node.tag,
                    tag_path=paths.paths[paths.ids[pre]],
                    old_text=old_text,
                    new_text=new_text,
                )
            )
    if reshaped < size:
        return _structural(
            f"tree shape changed near {old_nodes[reshaped].dewey} / {new_nodes[reshaped].dewey}"
        )
    return TreeDiff(text_edits=tuple(edits))


def clone_tree(tree: XMLTree, name: str | None = None) -> XMLTree:
    """A deep copy of ``tree`` keeping (or overriding) its logical name.

    :meth:`XMLTree.copy` tags copies as projections; update flows (journal
    replay, tests building edited variants) need a faithful clone that
    still carries the original document identity, because cache keys and
    registry names derive from it.
    """
    copy = tree.copy()
    copy.name = name if name is not None else tree.name
    return copy


def apply_text_edits(tree: XMLTree, edits: Iterable[tuple[str, str]]) -> XMLTree:
    """A clone of ``tree`` with ``(label text, new text)`` edits applied —
    how a journal ``update`` record and a replication delta spell a
    text-only update.  Raises :class:`ExtractError` naming the first label
    that is malformed or names no node."""
    edited = clone_tree(tree)
    for label_text, new_text in edits:
        node = edited.find_node(Dewey.parse(label_text))
        if node is None:
            raise ExtractError(f"missing node {label_text}")
        node.text = new_text if new_text else None
    return edited
