"""The XML document tree.

:class:`XMLTree` owns a root :class:`~repro.xmltree.node.XMLNode` and keeps
a Dewey → node registry so that search results (which are sets of Dewey
labels) can be materialised into node instances in O(1) per label.  It also
provides subtree extraction, which is how query result trees and snippet
trees are cut out of the document.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import ExtractError
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.order import NodeOrder


class XMLTree:
    """An ordered, labelled XML document tree.

    >>> from repro.xmltree.builder import TreeBuilder
    >>> builder = TreeBuilder("retailer")
    >>> _ = builder.add_value("name", "Brook Brothers")
    >>> tree = builder.build()
    >>> tree.root.tag
    'retailer'
    >>> tree.size_nodes
    3
    """

    def __init__(self, root: XMLNode, name: str = "document"):
        if root.parent is not None:
            raise ExtractError("the root of an XMLTree must not have a parent")
        self.name = name
        self.root = root
        self._registry: dict[Dewey, XMLNode] = {}
        self._by_pre: list[XMLNode] = []
        self._order: NodeOrder | None = None
        self._reindex()

    # ------------------------------------------------------------------ #
    # registry maintenance
    # ------------------------------------------------------------------ #
    def _reindex(self) -> None:
        """Rebuild Dewey labels, pre/post/level ids and the registry.

        One iterative depth-first pass: a node gets its ``pre`` id and
        registry entry on the way down and its ``post`` id on the way back
        up (the two-entry stack trick — each node is pushed a second time
        as an "exit" marker).  This replaces the recursive
        ``_relabel_subtree`` walk, so reindexing is a single O(n) traversal
        regardless of document depth.
        """
        root = self.root
        root.dewey = Dewey.root()
        root.parent = None
        registry: dict[Dewey, XMLNode] = {}
        pre = 0
        post = 0
        stack: list[tuple[XMLNode, bool]] = [(root, False)]
        while stack:
            node, exiting = stack.pop()
            if exiting:
                node.post = post
                post += 1
                continue
            node.pre = pre
            pre += 1
            node.level = node.dewey.depth
            registry[node.dewey] = node
            stack.append((node, True))
            for ordinal in range(len(node.children) - 1, -1, -1):
                child = node.children[ordinal]
                child.parent = node
                child.dewey = node.dewey.child(ordinal)
                stack.append((child, False))
        self._registry = registry
        # The registry was filled on the way down, so its values are the
        # nodes in pre-order: position ``i`` holds the node with ``pre == i``.
        self._by_pre = list(registry.values())
        self._order = None

    def refresh(self) -> None:
        """Public hook to re-label and re-register after manual edits."""
        self._reindex()

    @property
    def order(self) -> NodeOrder:
        """The pre/post span table for O(1) ancestor/descendant tests.

        Built lazily from the ids assigned in :meth:`_reindex` and
        invalidated whenever the tree reindexes.
        """
        if self._order is None:
            self._order = NodeOrder.from_tree(self)
        return self._order

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def node(self, dewey: Dewey) -> XMLNode:
        """Return the node with the given Dewey label.

        Raises :class:`ExtractError` when the label does not exist in this
        tree — a symptom of mixing labels from different documents.
        """
        try:
            return self._registry[dewey]
        except KeyError as exc:
            raise ExtractError(f"no node with Dewey label {dewey} in tree {self.name!r}") from exc

    def has_node(self, dewey: Dewey) -> bool:
        return dewey in self._registry

    def find_node(self, dewey: Dewey) -> XMLNode | None:
        """The node with the given Dewey label, or ``None`` if there is none."""
        return self._registry.get(dewey)

    @property
    def nodes_by_pre(self) -> list[XMLNode]:
        """All nodes in document order: ``nodes_by_pre[node.pre] is node``.

        A node's subtree is the contiguous slice ``[pre, pre + size)``.  The
        list is replaced, never edited, when the tree reindexes; callers
        must not mutate it.
        """
        return self._by_pre

    def nodes(self, labels: Iterable[Dewey]) -> list[XMLNode]:
        """Materialise many labels at once (order preserved)."""
        return [self.node(label) for label in labels]

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
        return len(self._registry)

    @property
    def size_edges(self) -> int:
        """Number of edges in the document."""
        return max(0, len(self._registry) - 1)

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
        for label in wanted:
            if label not in self._registry:
                raise ExtractError(f"label {label} not present in tree {self.name!r}")

        anchor = Dewey.common_ancestor_of_all(wanted)
        keep: set[Dewey] = set()
        for label in wanted:
            # path from anchor to the label
            for depth in range(anchor.depth, label.depth + 1):
                keep.add(label.prefix(depth))
            # full subtree below the label
            for node in self._registry[label].iter_subtree():
                keep.add(node.dewey)
        keep.add(anchor)

        mapping: dict[Dewey, Dewey] = {}
        new_root = self._copy_projection(self._registry[anchor], keep, mapping)
        tree = XMLTree(new_root, name=f"{self.name}:projection")
        # _copy_projection recorded original labels keyed by id(node); remap
        # now that the new tree has assigned final Dewey labels.
        final_mapping = {node.dewey: mapping[id(node)] for node in tree.iter_nodes()}
        return tree, final_mapping

    def _copy_projection(
        self, node: XMLNode, keep: set[Dewey], mapping: dict[int, Dewey]
    ) -> XMLNode:
        copy = XMLNode(node.tag, node.text)
        copy.raw_attributes.update(node.raw_attributes)
        mapping[id(copy)] = node.dewey
        for child in node.children:
            if child.dewey in keep:
                copy.append_child(self._copy_projection(child, keep, mapping))
        return copy

    def copy(self) -> "XMLTree":
        """A deep copy of the whole document."""
        return self.extract_subtree(Dewey.root())

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, dewey: Dewey) -> bool:
        return dewey in self._registry

    def __len__(self) -> int:
        return self.size_nodes

    def __repr__(self) -> str:
        return f"<XMLTree {self.name!r} root={self.root.tag} nodes={self.size_nodes}>"
