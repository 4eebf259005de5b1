"""The XML node model used throughout eXtract.

The paper's data model (Figure 1) is element-only: every piece of
information is an element, and leaf elements carry a text value (e.g.
``<city>Houston</city>``).  Real XML additionally has attributes
(``<store id="3">``); the parser and builder normalise those into child
elements so that the classification rules of §2.1 (entity / attribute /
connection node) apply uniformly.
"""

from __future__ import annotations

from collections.abc import Iterator
from weakref import ref

from repro.errors import DeadParentError
from repro.xmltree.dewey import Dewey


class XMLNode:
    """A single element node of an :class:`~repro.xmltree.tree.XMLTree`.

    Attributes
    ----------
    tag:
        The element name (``store``, ``city``, ...).
    text:
        The concatenated, stripped text content directly under this
        element, or ``None`` when the element has no own text.
    parent:
        The parent node, or ``None`` for the root.  The link up is weak
        (a ``weakref.ref`` in ``_parent``, one per parent, shared by all
        its children) and the links down (``children``) are strong: **a
        node keeps its subtree alive, not its ancestors**.  So a document
        version holds no reference cycle and reference counting frees it
        the moment its last holder lets go, without the cycle collector.
        Whoever keeps a node keeps its tree (a ``QueryResult`` holds its
        ``source``): once a node's parent has been freed, ``parent`` — and
        so every upward read, ``dewey``, ``is_root``, ``depth`` and
        ``iter_ancestors`` — raises :class:`~repro.errors.DeadParentError`
        instead of answering as if the node were a root.  Such a node is
        refused by :meth:`append_child` too (the same error): it still
        belongs to the dropped tree, so to move it elsewhere, copy it.
    children:
        Child nodes in document order.
    ordinal:
        The node's position among its siblings, set on attachment and
        rewritten when the owning tree reindexes (which is what picks up a
        manual edit of a ``children`` list).
    pre / post / level:
        The XPath-accelerator node ids (pre-order rank, post-order rank,
        depth), assigned when the owning tree reindexes; ``ancestor(a, b)
        ⟺ pre(a) <= pre(b) and post(b) <= post(a)``.  They are ``0`` on
        detached nodes and only meaningful once the node belongs to an
        :class:`~repro.xmltree.tree.XMLTree`.
    """

    __slots__ = (
        "tag",
        "text",
        "_parent",
        "children",
        "ordinal",
        "pre",
        "post",
        "level",
        "_attributes",
        "__weakref__",
    )

    def __init__(self, tag: str, text: str | None = None):
        if not tag or not isinstance(tag, str):
            raise ValueError(f"element tag must be a non-empty string, got {tag!r}")
        self.tag = tag
        self.text = text if text else None
        self._parent: ref[XMLNode] | None = None
        self.children: list[XMLNode] = []
        self.ordinal = 0
        self.pre = 0
        self.post = 0
        self.level = 0
        self._attributes: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def parent(self) -> "XMLNode | None":
        link = self._parent
        if link is None:
            return None
        parent = link()
        if parent is None:
            raise DeadParentError(
                f"the parent of <{self.tag}> was freed: keep the tree (or its root) "
                "while reading upward from one of its nodes"
            )
        return parent

    def append_child(self, child: "XMLNode") -> "XMLNode":
        """Attach ``child``, which must be detached, as the last child.

        Returns the child to allow fluent construction.  A node whose
        parent was freed is not detached: reading its ``parent`` raises
        :class:`~repro.errors.DeadParentError`, and so does this.
        """
        parent = child.parent
        if parent is not None:
            raise ValueError(f"node <{child.tag}> is already attached (to <{parent.tag}>)")
        child._parent = ref(self)
        self._attach(child)
        return child

    def _attach(self, child: "XMLNode") -> None:
        """:meth:`append_child` without the check and without the link up,
        for code that only ever attaches nodes it has just made and hands
        the root to :class:`~repro.xmltree.tree.XMLTree` (the parser, the
        v4 snapshot reader, the snippet and projection copiers): the
        tree's reindex gives each parent's children one weak link to it."""
        child.ordinal = len(self.children)
        self.children.append(child)

    @property
    def dewey(self) -> Dewey:
        """The node's Dewey label: the child ordinals on the way down from
        the root — of the owning tree, or of the detached subtree the node
        is in.  Computed from the ``parent`` links on every read."""
        ordinals = []
        node = self
        while node.parent is not None:
            ordinals.append(node.ordinal)
            node = node.parent
        ordinals.reverse()
        return Dewey._trusted(tuple(ordinals))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        """Number of ancestors (the root of a tree or of a detached
        subtree has depth 0)."""
        return sum(1 for _ in self.iter_ancestors())

    @property
    def raw_attributes(self) -> dict[str, str]:
        """XML attributes found on the original element (before conversion)."""
        return self._attributes

    # ------------------------------------------------------------------ #
    # traversal helpers
    # ------------------------------------------------------------------ #
    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Yield this node and all descendants in document (pre-)order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_descendants(self) -> Iterator["XMLNode"]:
        """Yield strict descendants in document order."""
        iterator = self.iter_subtree()
        next(iterator)  # skip self
        yield from iterator

    def iter_ancestors(self, include_self: bool = False) -> Iterator["XMLNode"]:
        """Yield ancestors from the parent up to the root."""
        node = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_children(self, tag: str) -> list["XMLNode"]:
        """All direct children with the given tag."""
        return [child for child in self.children if child.tag == tag]

    def find_child(self, tag: str) -> "XMLNode | None":
        """The first direct child with the given tag, or ``None``."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_descendants(self, tag: str) -> list["XMLNode"]:
        """All descendants (excluding self) with the given tag, in order."""
        return [node for node in self.iter_descendants() if node.tag == tag]

    # ------------------------------------------------------------------ #
    # content helpers
    # ------------------------------------------------------------------ #
    @property
    def tag_path(self) -> tuple[str, ...]:
        """The tag names from the root down to this node.

        Tag paths identify *node types*: two ``<city>`` elements under
        ``/retailer/store`` have the same tag path and therefore belong to
        the same schema node, which is what the entity/attribute
        classification and the feature types of §2.3 are defined over.
        """
        tags = [node.tag for node in self.iter_ancestors(include_self=True)]
        return tuple(reversed(tags))

    @property
    def has_text_value(self) -> bool:
        """True when the node carries its own (non-empty) text."""
        return bool(self.text)

    def full_text(self) -> str:
        """All text in the subtree, concatenated in document order."""
        pieces = [node.text for node in self.iter_subtree() if node.text]
        return " ".join(pieces)

    def subtree_ids(self) -> range:
        """The ``pre`` ids of the subtree rooted here (including self), in
        the owning tree: a node's descendants directly follow it."""
        return range(self.pre, self.post + self.level + 1)

    def subtree_size_nodes(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        return sum(1 for _ in self.iter_subtree())

    def subtree_size_edges(self) -> int:
        """Number of edges in the subtree rooted here.

        The paper measures snippet size as "the number of edges in the
        tree" (§4), so this is the quantity the size bound constrains.
        """
        return self.subtree_size_nodes() - 1

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        value = f" {self.text!r}" if self.text else ""
        try:
            label = str(self.dewey)
        except DeadParentError:
            label = "(parent freed)"
        return f"<XMLNode {self.tag}@{label}{value}>"

    def __iter__(self) -> Iterator["XMLNode"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)
