"""The XML document tree.

:class:`XMLTree` owns a root :class:`~repro.xmltree.node.XMLNode` and
numbers its nodes in document order (``pre`` — the identity the index, the
search path and snippet generation use, see :class:`TreeShape`).  What
names a node by its Dewey label — journal and replication records,
projections for display — is resolved by walking the
``children`` lists down from the root.  It also provides subtree
extraction, which is how query result trees are cut out of the document.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from typing import NamedTuple
from weakref import ref

from repro.errors import ExtractError
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode

#: a root-to-node sequence of tags: what names a *schema node* (§2.1)
TagPath = tuple[str, ...]


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


class TagPaths(NamedTuple):
    """The root-to-node tag path of every node, as a column of interned ids.

    ``ids[pre]`` is the id of the node's tag path, ``paths[id]`` the path
    and ``instances[id]`` the ``pre`` ids of its nodes, ascending.  Ids
    number the paths in the order a top-down reading of the tree meets
    them: the root's path is ``0``, and reading a node numbers the paths of
    its children not met before, in the order of their first child.  So a
    path's parent path has a smaller id, and the ids list the schema nodes
    in the order a node-by-node inference would first record them.

    Tags only, like :class:`TreeShape` shape only: a text-only update hands
    the column of the old version to the new one
    (:meth:`XMLTree.adopt_paths`).  Nothing is edited once built.
    """

    #: per node, by ``pre``: the id of its tag path
    ids: list[int]
    #: per path id: the tag path
    paths: list[TagPath]
    #: per path id: the ``pre`` ids of its instances, ascending
    instances: list["array[int]"]
    #: the inverse of ``paths``
    id_of: dict[TagPath, int]

    def instances_of(self, path: TagPath) -> "array[int]":
        """The ``pre`` ids of the instances of ``path`` (none for a path
        the tree does not have)."""
        path_id = self.id_of.get(path)
        return self.instances[path_id] if path_id is not None else array("I")


def _tag_paths(nodes: list[XMLNode]) -> TagPaths:
    """One top-down pass: each node's children get its path extended by
    their tag, interned once per distinct (path, tag)."""
    ids = [0] * len(nodes)
    paths: list[TagPath] = [(nodes[0].tag,)]
    instances = [array("I", (0,))]
    #: per path id: child tag → the id of the extended path
    extended: list[dict[str, int]] = [{}]
    for pre, node in enumerate(nodes):
        children = node.children
        if not children:
            continue
        path_id = ids[pre]
        child_ids = extended[path_id]
        for child in children:
            tag = child.tag
            child_id = child_ids.get(tag)
            if child_id is None:
                child_id = child_ids[tag] = len(paths)
                paths.append(paths[path_id] + (tag,))
                instances.append(array("I"))
                extended.append({})
            child_pre = child.pre
            ids[child_pre] = child_id
            instances[child_id].append(child_pre)
    return TagPaths(ids, paths, instances, {path: path_id for path_id, path in enumerate(paths)})


class XMLTree:
    """An ordered, labelled XML document tree.

    Every node of a tree carries its ``pre`` / ``post`` / ``level`` /
    ``ordinal``, and each parent's children share one weak link to it.  The
    parser and :meth:`copy` assign them as they make each node; a tree
    made from a root built by hand (``XMLTree(root)``: ``TreeBuilder``,
    the v4 snapshot reader, the projection copiers) gets them from one
    reindex pass over the ``children`` lists, as :meth:`refresh` does after
    a manual edit.

    Nodes have two names.  ``pre`` (with :attr:`shape`, :attr:`paths` and
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
        self._paths: TagPaths | None = None
        self._reindex()

    @classmethod
    def _numbered(cls, nodes: list[XMLNode], name: str) -> "XMLTree":
        """The tree over ``nodes``, numbered by whoever made them (the
        parser, :meth:`copy`): ``nodes[i].pre == i`` in document order,
        every ``post`` / ``level`` / ``ordinal`` set, the root unlinked and
        each parent's children sharing one weak link to it.  No reindex
        runs."""
        tree = cls.__new__(cls)
        tree.name = name
        tree.root = nodes[0]
        tree._by_pre = nodes
        tree._shape = None
        tree._paths = None
        return tree

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
        id on the way back up.  Each parent's children are given one weak
        link to it (``XMLNode.parent``).
        """
        root = self.root
        root._parent = None
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
            link = ref(node)
            for ordinal in range(len(children) - 1, -1, -1):
                child = children[ordinal]
                child._parent = link
                child.level = level
                child.ordinal = ordinal
                push(child)
        self._by_pre = by_pre
        self._shape = None
        self._paths = None

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
            parent = [node._parent().pre for node in nodes[1:]]
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

    @property
    def paths(self) -> TagPaths:
        """The tag-path column: every node's root-to-node tag path as an
        interned id, and every path's instances.

        What the index build reads instead of walking ancestors — schema
        inference, classification, key mining, the structure index.  Built
        on first use by one top-down pass and dropped whenever the tree
        reindexes, like :attr:`shape`.
        """
        paths = self._paths
        if paths is None:
            paths = self._paths = _tag_paths(self._by_pre)
        return paths

    def adopt_paths(self, paths: TagPaths) -> None:
        """Share the tag-path column of another version of this document.

        For the text-only update path only, as :meth:`adopt_shape`: the
        diff compared tags position by position, so the column is this
        tree's too.
        """
        if len(paths.ids) != len(self._by_pre):
            raise ExtractError(
                f"cannot adopt the tag paths of a {len(paths.ids)}-node tree "
                f"for the {len(self._by_pre)}-node tree {self.name!r}"
            )
        self._paths = paths

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

    # ------------------------------------------------------------------ #
    # traversal and size
    # ------------------------------------------------------------------ #
    def iter_nodes(self) -> Iterator[XMLNode]:
        """All nodes in document order."""
        return self.root.iter_subtree()

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
            if root_copy is None:
                root_copy = copy
            else:
                copies[source.parent.pre]._attach(copy)
        return XMLTree(root_copy, name=f"{self.name}:projection")

    def copy(self) -> "XMLTree":
        """A deep copy of the whole document, numbered as this one.

        Each copy takes its source's ids and is attached to its parent's
        copy through :attr:`shape`'s ``parent`` column, so no reindex runs.
        The copy builds its own :attr:`shape` when it is read: posting
        lists tell the tree they index by its shape's identity, and the
        copy is another tree until a text-only update adopts a shape.
        """
        sources = self._by_pre
        copies: list[XMLNode] = []
        record = copies.append
        links: list[ref[XMLNode] | None] = [None] * len(sources)
        make = XMLNode.__new__
        for source, parent in zip(sources, self.shape.parent):
            copy = make(XMLNode)
            copy.tag = source.tag
            copy.text = source.text
            copy.children = []
            copy.ordinal = source.ordinal
            copy.pre = source.pre
            copy.post = source.post
            copy.level = source.level
            if parent < 0:
                copy._parent = None
            else:
                link = links[parent]
                if link is None:
                    link = links[parent] = ref(copies[parent])
                copy._parent = link
                copies[parent].children.append(copy)
            record(copy)
        return XMLTree._numbered(copies, name=f"{self.name}:projection")

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, dewey: Dewey) -> bool:
        return self.has_node(dewey)

    def __len__(self) -> int:
        return self.size_nodes

    def __repr__(self) -> str:
        return f"<XMLTree {self.name!r} root={self.root.tag} nodes={self.size_nodes}>"
