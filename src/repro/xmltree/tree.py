"""The XML document tree.

:class:`XMLTree` owns a root :class:`~repro.xmltree.node.XMLNode` and
numbers its nodes in document order (``pre`` — the identity the index, the
search path and snippet generation use, see :class:`TreeShape`).  What
names a node by its Dewey label — journal and replication records, the v3
text snapshot, projections for display — goes through a Dewey → node
registry the tree builds the first time a label is looked up.  It also
provides subtree extraction, which is how query result trees and snippet
trees are cut out of the document.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.errors import ExtractError
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode


class TreeShape(NamedTuple):
    """The shape of an indexed tree: three flat tables indexed by ``pre``.

    ``pre`` — a node's position in document order — is the node identity
    the search path computes with: posting lists are sorted ``pre`` ids,
    and every structural question SLCA / ELCA, result construction and
    ranking ask is a read of these tables.  A node's subtree is the id
    range ``[pre, pre + size[pre])``, so ``a`` is an ancestor-or-self of
    ``b`` iff ``a <= b < a + size[a]``.

    The tables say nothing about tags or text: two trees that differ in
    text values only have equal shapes, and a text-only update hands the
    tables of the old version to the new one (:meth:`XMLTree.adopt_shape`)
    — which is why ids held across such an update still mean the same
    positions.  The lists are never edited once built.
    """

    #: ``pre`` of the parent; ``-1`` for the root
    parent: list[int]
    #: depth below the root
    level: list[int]
    #: number of nodes in the subtree, the node itself included
    size: list[int]

    def lca(self, a: int, b: int) -> int:
        """The lowest common ancestor-or-self of two nodes: ``parent``
        hops from the earlier one until its subtree reaches the later."""
        if a > b:
            a, b = b, a
        parent, size = self.parent, self.size
        while b >= a + size[a]:
            a = parent[a]
        return a

    def remove_ancestors(self, ids: Iterable[int]) -> list[int]:
        """The ids that have no descendant among ``ids``, in document
        order.  A node's descendants directly follow it in document order,
        so it has one in the collection iff the next id is one."""
        ordered = sorted(set(ids))
        size = self.size
        return [
            pre
            for position, pre in enumerate(ordered, 1)
            if position == len(ordered) or ordered[position] >= pre + size[pre]
        ]


class XMLTree:
    """An ordered, labelled XML document tree.

    Constructing a tree (and :meth:`refresh`) is what labels its nodes: one
    reindex pass assigns every ``dewey`` / ``pre`` / ``post`` / ``level``
    from the ``children`` lists alone.  A root built with
    ``XMLNode._attach`` therefore needs no labels of its own — they are
    meaningless until this constructor has run — while one built with the
    public ``append_child`` arrives already labelled and is relabelled to
    the same values.

    Nodes have two names.  ``pre`` (with :attr:`shape` and
    :attr:`nodes_by_pre`) is what the index and the search path compute
    with; the Dewey label is derived from it for display and for the
    formats that spell node positions as text — :meth:`node` and
    :meth:`find_node` turn a label back into its node, through a registry
    built on the first such lookup (a tree that only serves searches and
    snippets never builds one).

    >>> from repro.xmltree.builder import TreeBuilder
    >>> builder = TreeBuilder("retailer")
    >>> _ = builder.add_value("name", "Brook Brothers")
    >>> tree = builder.build()
    >>> tree.root.tag
    'retailer'
    >>> tree.size_nodes
    2
    >>> tree.shape.size  # subtree sizes by pre: the root's, then <name>'s
    [2, 1]
    """

    def __init__(self, root: XMLNode, name: str = "document"):
        if root.parent is not None:
            raise ExtractError("the root of an XMLTree must not have a parent")
        self.name = name
        self.root = root
        self._registry: dict[Dewey, XMLNode] | None = None
        self._by_pre: list[XMLNode] = []
        self._shape: TreeShape | None = None
        self._reindex()

    # ------------------------------------------------------------------ #
    # registry maintenance
    # ------------------------------------------------------------------ #
    def _reindex(self) -> None:
        """Rebuild Dewey labels and pre/post/level ids.

        One iterative depth-first pass, independent of document depth, and
        the only place labels are assigned: whatever ``dewey`` / ``pre`` /
        ``post`` / ``level`` the nodes carried before (a tree wired with
        ``XMLNode._attach`` carries none worth reading) is overwritten.  A
        parent labels its children as it pushes them — exactly one
        :class:`Dewey` per node, derived from the parent's already-valid
        components — a leaf is numbered the moment it is popped, and an
        inner node is pushed a second time, under a ``None`` marker, to
        get its ``post`` id on the way back up.
        """
        root = self.root
        root.parent = None
        root.dewey = Dewey.root()
        root.level = 0
        label_of = Dewey._trusted
        by_pre: list[XMLNode] = []
        visit = by_pre.append
        pre = 0
        post = 0
        stack: list[XMLNode | None] = [root]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node is None:
                pop().post = post
                post += 1
                continue
            node.pre = pre
            pre += 1
            visit(node)
            children = node.children
            if not children:
                node.post = post
                post += 1
                continue
            push(node)
            push(None)
            level = node.level + 1
            components = node.dewey.components
            for ordinal in range(len(children) - 1, -1, -1):
                child = children[ordinal]
                child.parent = node
                child.level = level
                child.dewey = label_of(components + (ordinal,))
                push(child)
        self._by_pre = by_pre
        self._registry = None
        self._shape = None

    def refresh(self) -> None:
        """Public hook to re-label and re-number after manual edits."""
        self._reindex()

    @property
    def _labels(self) -> dict[Dewey, XMLNode]:
        """The Dewey → node registry, built on first use and dropped
        whenever the tree reindexes (racing first readers build equal
        dicts; whichever is stored last serves)."""
        registry = self._registry
        if registry is None:
            registry = self._registry = {node.dewey: node for node in self._by_pre}
        return registry

    @property
    def shape(self) -> TreeShape:
        """The ``parent`` / ``level`` / subtree ``size`` tables by ``pre``.

        Built on first use from the ids :meth:`_reindex` assigned — a tree
        nobody indexes or searches never pays for them — and dropped
        whenever the tree reindexes.
        """
        shape = self._shape
        if shape is None:
            nodes = self._by_pre
            parent = [node.parent.pre for node in nodes[1:]]
            parent.insert(0, -1)
            shape = self._shape = TreeShape(
                parent,
                [node.level for node in nodes],
                [node.post - node.pre + node.level + 1 for node in nodes],
            )
        return shape

    def adopt_shape(self, shape: TreeShape) -> None:
        """Share the tables of another version of this document.

        For the text-only update path only: the caller guarantees the two
        trees have the same shape (:func:`repro.xmltree.diff.diff_trees`
        compared them position by position), so the posting lists of the
        old version — which hold ``shape`` — index this tree as they are.
        """
        if len(shape.size) != len(self._by_pre):
            raise ExtractError(
                f"cannot adopt the shape of a {len(shape.size)}-node tree "
                f"for the {len(self._by_pre)}-node tree {self.name!r}"
            )
        self._shape = shape

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def node(self, dewey: Dewey) -> XMLNode:
        """Return the node with the given Dewey label.

        Raises :class:`ExtractError` when the label does not exist in this
        tree — a symptom of mixing labels from different documents.
        """
        try:
            return self._labels[dewey]
        except KeyError as exc:
            raise ExtractError(f"no node with Dewey label {dewey} in tree {self.name!r}") from exc

    def has_node(self, dewey: Dewey) -> bool:
        return dewey in self._labels

    def find_node(self, dewey: Dewey) -> XMLNode | None:
        """The node with the given Dewey label, or ``None`` if there is none."""
        return self._labels.get(dewey)

    @property
    def nodes_by_pre(self) -> list[XMLNode]:
        """All nodes in document order: ``nodes_by_pre[node.pre] is node``.

        A node's subtree is the contiguous slice ``[pre, pre + size)``.  The
        list is replaced, never edited, when the tree reindexes; callers
        must not mutate it.
        """
        return self._by_pre

    def find_by_tag(self, tag: str) -> list[XMLNode]:
        """All nodes with the given tag, in document order."""
        return [node for node in self.iter_nodes() if node.tag == tag]

    def find_by_tag_path(self, tag_path: tuple[str, ...]) -> list[XMLNode]:
        """All nodes whose root-to-node tag path equals ``tag_path``."""
        return [node for node in self.iter_nodes() if node.tag_path == tag_path]

    # ------------------------------------------------------------------ #
    # traversal and size
    # ------------------------------------------------------------------ #
    def iter_nodes(self) -> Iterator[XMLNode]:
        """All nodes in document order."""
        return self.root.iter_subtree()

    def iter_leaves(self) -> Iterator[XMLNode]:
        """All leaf nodes in document order."""
        return (node for node in self.iter_nodes() if node.is_leaf)

    @property
    def size_nodes(self) -> int:
        """Number of nodes in the document."""
        return len(self._by_pre)

    @property
    def size_edges(self) -> int:
        """Number of edges in the document."""
        return max(0, len(self._by_pre) - 1)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (root has depth 0)."""
        return max(node.depth for node in self.iter_nodes())

    # ------------------------------------------------------------------ #
    # subtree extraction
    # ------------------------------------------------------------------ #
    def extract_subtree(self, root_label: Dewey) -> "XMLTree":
        """Deep-copy the subtree rooted at ``root_label`` into a new tree.

        The copy gets fresh Dewey labels rooted at the copied node; the
        original labels are preserved on each copied node through the
        ``source`` mapping available via :meth:`extract_projection`.
        """
        tree, _ = self.extract_projection([root_label])
        return tree

    def extract_projection(
        self, labels: Iterable[Dewey]
    ) -> tuple["XMLTree", dict[Dewey, Dewey]]:
        """Build the minimal connected subtree containing ``labels``.

        The projection is the classic "result tree" construction: take the
        lowest common ancestor of all requested labels as the new root and
        keep exactly the nodes lying on a path from that root to a
        requested label, *plus* the full subtrees of the requested labels
        themselves.

        Returns the new tree and a mapping from new Dewey labels to the
        original labels, so callers (e.g. the snippet renderer linking back
        to the full result) can trace provenance.
        """
        wanted = sorted(set(labels))
        if not wanted:
            raise ExtractError("extract_projection() requires at least one label")
        registry = self._labels
        for label in wanted:
            if label not in registry:
                raise ExtractError(f"label {label} not present in tree {self.name!r}")

        # ``wanted`` is in document order, so its first and last label span
        # all of it: their common ancestor is everyone's.
        anchor = Dewey.common_ancestor(wanted[0], wanted[-1])
        anchor_node = registry[anchor]
        keep: set[Dewey] = {anchor}
        for label in wanted:
            node = registry[label]
            # full subtree below the label
            keep.update(descendant.dewey for descendant in node.iter_subtree())
            # path up to the anchor, or to a path already kept
            while node is not anchor_node:
                node = node.parent
                if node.dewey in keep:
                    break
                keep.add(node.dewey)

        mapping: dict[Dewey, Dewey] = {}
        new_root = self._copy_projection(anchor_node, keep, mapping)
        tree = XMLTree(new_root, name=f"{self.name}:projection")
        # _copy_projection recorded original labels keyed by id(node); remap
        # now that the new tree has assigned final Dewey labels.
        final_mapping = {node.dewey: mapping[id(node)] for node in tree.iter_nodes()}
        return tree, final_mapping

    def _copy_projection(
        self, node: XMLNode, keep: set[Dewey], mapping: dict[int, Dewey]
    ) -> XMLNode:
        def copy_of(source: XMLNode) -> XMLNode:
            copy = XMLNode(source.tag, source.text)
            copy.raw_attributes.update(source.raw_attributes)
            mapping[id(copy)] = source.dewey
            return copy

        root_copy = copy_of(node)
        pending = [(node, root_copy)]
        while pending:
            source, copy = pending.pop()
            for child in source.children:
                if child.dewey in keep:
                    child_copy = copy_of(child)
                    copy._attach(child_copy)
                    pending.append((child, child_copy))
        return root_copy

    def copy(self) -> "XMLTree":
        """A deep copy of the whole document."""
        return self.extract_subtree(Dewey.root())

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, dewey: Dewey) -> bool:
        return dewey in self._labels

    def __len__(self) -> int:
        return self.size_nodes

    def __repr__(self) -> str:
        return f"<XMLTree {self.name!r} root={self.root.tag} nodes={self.size_nodes}>"
