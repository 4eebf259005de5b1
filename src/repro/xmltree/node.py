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

from repro.xmltree.dewey import Dewey


_ROOT_LABEL = Dewey.root()


class XMLNode:
    """A single element node of an :class:`~repro.xmltree.tree.XMLTree`.

    Two ways to attach a child.  The public :meth:`append_child` labels on
    attach: the child and everything below it get their final Dewey labels
    at once, so a detached subtree can be read by label while it is being
    built (at the price of relabelling it on every graft).  The private
    :meth:`_attach` wires ``parent`` / ``children`` only, for code that
    builds a fresh root and hands it straight to ``XMLTree(...)``: labels
    and order ids are meaningless until the owning tree reindexes.

    Attributes
    ----------
    tag:
        The element name (``store``, ``city``, ...).
    text:
        The concatenated, stripped text content directly under this
        element, or ``None`` when the element has no own text.
    dewey:
        The node's Dewey label.  :meth:`append_child` keeps it current on
        every attachment; a node wired with :meth:`_attach` carries the
        shared root label until its owning tree reindexes.
    parent:
        The parent node, or ``None`` for the root.
    children:
        Child nodes in document order.
    pre / post / level:
        The XPath-accelerator node ids (pre-order rank, post-order rank,
        depth), assigned alongside the Dewey labels when the owning tree
        reindexes; ``ancestor(a, b) ⟺ pre(a) <= pre(b) and post(b) <=
        post(a)``.  They are ``0`` on detached nodes and only meaningful
        once the node belongs to an :class:`~repro.xmltree.tree.XMLTree`.
    """

    __slots__ = (
        "tag",
        "text",
        "dewey",
        "parent",
        "children",
        "pre",
        "post",
        "level",
        "_attributes",
    )

    def __init__(self, tag: str, text: str | None = None):
        if not tag or not isinstance(tag, str):
            raise ValueError(f"element tag must be a non-empty string, got {tag!r}")
        self.tag = tag
        self.text = text if text else None
        self.dewey: Dewey = _ROOT_LABEL
        self.parent: XMLNode | None = None
        self.children: list[XMLNode] = []
        self.pre = 0
        self.post = 0
        self.level = 0
        self._attributes: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def append_child(self, child: "XMLNode") -> "XMLNode":
        """Attach ``child`` as the last child and assign its Dewey label.

        Returns the child to allow fluent construction.
        """
        if child.parent is not None:
            raise ValueError(
                f"node <{child.tag}> is already attached (to <{child.parent.tag}>)"
            )
        child.dewey = self.dewey.child(len(self.children))
        self._attach(child)
        child._relabel_subtree()
        return child

    def _attach(self, child: "XMLNode") -> None:
        """Wire ``child`` in as the last child — parent and children only.

        The no-relabel primitive for code that builds a fresh root and
        hands it straight to ``XMLTree(...)`` (the parser, the v4 snapshot
        reader, the snippet and projection copiers): ``dewey``, ``pre``,
        ``post`` and ``level`` of everything wired this way are meaningless
        until the owning tree's reindex assigns them, in one pass.  The
        child must be detached; nothing is checked.
        """
        child.parent = self
        self.children.append(child)

    def _relabel_subtree(self) -> None:
        """Recompute Dewey labels of all descendants after (re)attachment."""
        stack = [self]
        while stack:
            node = stack.pop()
            for ordinal, child in enumerate(node.children):
                child.dewey = node.dewey.child(ordinal)
                child.parent = node
                if child.children:
                    stack.append(child)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        return self.dewey.depth

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
        return f"<XMLNode {self.tag}@{self.dewey}{value}>"

    def __iter__(self) -> Iterator["XMLNode"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)
