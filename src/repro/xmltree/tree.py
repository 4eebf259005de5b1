"""The XML document tree.

:class:`XMLTree` owns a root :class:`~repro.xmltree.node.XMLNode` and
numbers its nodes in document order (``pre`` — the identity the index, the
search path and snippet generation use, see :class:`TreeShape`).  What
names a node by its Dewey label — journal and replication records, the v3
text snapshot, projections for display — is resolved by walking the
``children`` lists down from the root.  It also provides subtree
extraction, which is how query result trees are cut out of the document.
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

    Constructing a tree (and :meth:`refresh`) is what numbers its nodes:
    one reindex pass assigns every ``pre`` / ``post`` / ``level`` /
    ``ordinal`` from the ``children`` lists alone.

    Nodes have two names.  ``pre`` (with :attr:`shape` and
    :attr:`nodes_by_pre`) is what the index and the search path compute
    with.  The Dewey label, for display and for the formats that spell
    node positions as text, is not stored anywhere: ``XMLNode.dewey``
    computes it from ``parent`` / ``ordinal`` on every read, and
    :meth:`node` / :meth:`find_node` turn a label back into its node by
    indexing ``children`` once per component.

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
        self._by_pre: list[XMLNode] = []
        self._shape: TreeShape | None = None
        self._reindex()

    # ------------------------------------------------------------------ #
    # numbering
    # ------------------------------------------------------------------ #
    def _reindex(self) -> None:
        """Rebuild the pre / post / level / ordinal ids.

        One iterative depth-first pass, independent of document depth:
        whatever ids the nodes carried before is overwritten.  A parent
        numbers its children among their siblings as it pushes them, a
        leaf is numbered the moment it is popped, and an inner node is
        pushed a second time, under a ``None`` marker, to get its ``post``
        id on the way back up.
        """
        root = self.root
        root.parent = None
        root.level = 0
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
            for ordinal in range(len(children) - 1, -1, -1):
                child = children[ordinal]
                child.parent = node
                child.level = level
                child.ordinal = ordinal
                push(child)
        self._by_pre = by_pre
        self._shape = None

    def refresh(self) -> None:
        """Public hook to re-number after manual edits."""
        self._reindex()

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
        node = self.find_node(dewey)
        if node is None:
            raise ExtractError(f"no node with Dewey label {dewey} in tree {self.name!r}")
        return node

    def has_node(self, dewey: Dewey) -> bool:
        return self.find_node(dewey) is not None

    def find_node(self, dewey: Dewey) -> XMLNode | None:
        """The node with the given Dewey label, or ``None`` if there is none."""
        node = self.root
        for ordinal in dewey.components:
            children = node.children
            if ordinal >= len(children):
                return None
            node = children[ordinal]
        return node

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
        return max(node.level for node in self._by_pre)

    # ------------------------------------------------------------------ #
    # subtree extraction
    # ------------------------------------------------------------------ #
    def extract_subtree(self, root_label: Dewey) -> "XMLTree":
        """Deep-copy the subtree rooted at ``root_label`` into a new tree,
        whose labels start over at the copied node."""
        return self.copy_nodes(self.node(root_label).subtree_ids())

    def extract_projection(
        self, labels: Iterable[Dewey]
    ) -> tuple["XMLTree", dict[Dewey, Dewey]]:
        """Build the minimal connected subtree containing ``labels``
        (:meth:`projection_ids` says which nodes that is).

        Returns the new tree and a mapping from new Dewey labels to the
        original labels, so callers (e.g. the snippet renderer linking back
        to the full result) can trace provenance.
        """
        kept = self.projection_ids(self.node(label).pre for label in labels)
        tree = self.copy_nodes(kept)
        nodes = self._by_pre
        # a projection keeps document order: the copies line up with ``kept``
        return tree, {
            copy.dewey: nodes[pre].dewey for copy, pre in zip(tree._by_pre, kept)
        }

    def projection_ids(self, ids: Iterable[int]) -> list[int]:
        """The ``pre`` ids, in document order, of the minimal connected
        subtree containing the nodes ``ids``.

        The projection is the classic "result tree" construction: take the
        lowest common ancestor of all requested nodes as the new root and
        keep exactly the nodes lying on a path from that root to a
        requested node, *plus* the full subtrees of the requested nodes
        themselves.
        """
        wanted = sorted(set(ids))
        if not wanted:
            raise ExtractError("a projection requires at least one node")
        nodes = self._by_pre
        # ``wanted`` is in document order, so its first and last node span
        # all of it: their common ancestor is everyone's.
        anchor = nodes[wanted[0]]
        last_post = nodes[wanted[-1]].post
        while anchor.post < last_post:
            anchor = anchor.parent
        keep = {anchor.pre}
        for pre in wanted:
            node = nodes[pre]
            keep.update(node.subtree_ids())
            # path up to the anchor, or to a path already kept
            while node is not anchor:
                node = node.parent
                if node.pre in keep:
                    break
                keep.add(node.pre)
        return sorted(keep)

    def copy_nodes(self, kept: Iterable[int]) -> "XMLTree":
        """Deep-copy the nodes ``kept`` — ``pre`` ids in document order,
        the first an ancestor of all others and every other one's parent
        among them (a subtree's id range, :meth:`projection_ids`) — into a
        new tree."""
        nodes = self._by_pre
        copies: dict[int, XMLNode] = {}
        root_copy = None
        for pre in kept:
            source = nodes[pre]
            copy = copies[pre] = XMLNode(source.tag, source.text)
            copy._attributes.update(source._attributes)
            if root_copy is None:
                root_copy = copy
            else:
                copies[source.parent.pre]._attach(copy)
        return XMLTree(root_copy, name=f"{self.name}:projection")

    def copy(self) -> "XMLTree":
        """A deep copy of the whole document."""
        return self.copy_nodes(range(len(self._by_pre)))

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, dewey: Dewey) -> bool:
        return self.has_node(dewey)

    def __len__(self) -> int:
        return self.size_nodes

    def __repr__(self) -> str:
        return f"<XMLTree {self.name!r} root={self.root.tag} nodes={self.size_nodes}>"
