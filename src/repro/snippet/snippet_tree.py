"""The snippet tree: a small, connected fragment of a query result.

A snippet is a subtree of the query result (Figure 2 is a snippet of the
Figure 1 result): it is rooted at the result root, it is connected, and its
*size* is its number of edges (§4: the size bound "is defined as the number
of edges in the tree").  The snippet grows by adding the path from the
result root to a chosen item instance; the cost of adding an instance is
the number of new edges that path contributes.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import SnippetError
from repro.search.results import QueryResult
from repro.snippet.ilist import IListItem
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


class Snippet:
    """A growing snippet tree over one query result.

    The selected nodes are kept by ``pre`` id.  The selection always
    contains the result root and is closed under "parent within the result
    subtree", so the cost of an instance is the number of ``parent`` hops
    from its node to the first node already selected: every hop is one new
    edge.  An instance label is resolved to its node once per question; a
    label that names no node of the result subtree (two integer
    comparisons against the root's ``pre``/``post``) is outside the result.

    A snippet holds nodes and ``pre`` ids of ``result.source``, so it is
    valid for as long as that tree is not edited — the same lifetime as the
    analyzer bound to the tree (an update builds a new tree; cached
    snippets it cannot have affected keep pointing into the old one).
    """

    def __init__(self, result: QueryResult):
        self.result = result
        self.root: Dewey = result.root
        root_node = result.root_node
        self._find_node = result.source.find_node
        #: the ``pre``/``post`` span of the result subtree
        self._first_pre = root_node.pre
        self._last_post = root_node.post
        #: the selected nodes by ``pre`` id
        self._selected: dict[int, XMLNode] = {root_node.pre: root_node}
        #: the IList items covered so far, in coverage order
        self.covered_items: list[IListItem] = []
        #: per covered item identity, the instance label chosen to cover it
        self.chosen_instances: dict[str, Dewey] = {}

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    @property
    def node_labels(self) -> set[Dewey]:
        """The labels of the selected nodes (a fresh set on every read)."""
        return {node.dewey for node in self._selected.values()}

    @property
    def size_edges(self) -> int:
        """Number of edges of the snippet tree (nodes - 1)."""
        return len(self._selected) - 1

    @property
    def size_nodes(self) -> int:
        return len(self._selected)

    def _node_in_result(self, instance: Dewey) -> XMLNode | None:
        """The node ``instance`` names, if it lies in the result subtree."""
        node = self._find_node(instance)
        if node is None or node.pre < self._first_pre or node.post > self._last_post:
            return None
        return node

    def _resolve(self, instance: Dewey) -> XMLNode:
        node = self._node_in_result(instance)
        if node is None:
            raise SnippetError(
                f"instance {instance} lies outside the result rooted at {self.root}"
            )
        return node

    def _hops(self, node: XMLNode) -> int:
        """``parent`` hops from ``node`` to the nearest selected node: the
        edges selecting it would add."""
        selected = self._selected
        hops = 0
        while node.pre not in selected:
            hops += 1
            node = node.parent
        return hops

    def path_labels(self, instance: Dewey) -> list[Dewey]:
        """The labels on the path from the snippet root to ``instance``."""
        self._resolve(instance)
        return [instance.prefix(depth) for depth in range(self.root.depth, instance.depth + 1)]

    def cost_of(self, instance: Dewey) -> int:
        """Number of *new* edges added by selecting ``instance``."""
        return self._hops(self._resolve(instance))

    def cheapest_instance(self, instances: Iterable[Dewey]) -> tuple[Dewey, int] | None:
        """The instance with the lowest addition cost (ties: document order).

        Instances outside the result are skipped.
        """
        # (cost, pre, label): pre is document order and unique per node, so
        # the label only rides along
        best: tuple[int, int, Dewey] | None = None
        for instance in instances:
            node = self._node_in_result(instance)
            if node is None:
                continue
            candidate = (self._hops(node), node.pre, instance)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return best[2], best[0]

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def add_instance(self, item: IListItem, instance: Dewey) -> int:
        """Cover ``item`` using ``instance``; returns the edges added."""
        node = self._resolve(instance)
        selected = self._selected
        added = 0
        while node.pre not in selected:
            selected[node.pre] = node
            node = node.parent
            added += 1
        self.covered_items.append(item)
        self.chosen_instances[item.identity] = instance
        return added

    def would_fit(self, instance: Dewey, bound: int) -> bool:
        """Would adding ``instance`` keep the snippet within ``bound`` edges?"""
        return self.size_edges + self.cost_of(instance) <= bound

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def covered_texts(self) -> list[str]:
        return [item.text for item in self.covered_items]

    def covers(self, identity: str) -> bool:
        return identity in self.chosen_instances

    def contains_label(self, label: Dewey) -> bool:
        node = self._find_node(label)
        return node is not None and node.pre in self._selected

    def is_connected(self) -> bool:
        """Every selected node's parent (down to the root) is selected too."""
        return all(
            node.parent.pre in self._selected
            for pre, node in self._selected.items()
            if pre != self._first_pre
        )

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def to_tree(self) -> XMLTree:
        """Copy the selected nodes into a standalone tree (for rendering).

        Only the selected labels are copied — unlike
        :meth:`XMLTree.extract_projection`, subtrees below selected nodes
        are *not* pulled in, because the snippet's size bound is defined
        over exactly the selected edges.
        """
        root_copy = self._copy_selected(self._selected[self._first_pre])
        return XMLTree(
            root_copy, name=f"snippet:{self.result.source.name}#{self.result.result_id}"
        )

    def _copy_selected(self, node: XMLNode) -> XMLNode:
        selected = self._selected
        root_copy = XMLNode(node.tag, node.text)
        pending = [(node, root_copy)]
        while pending:
            source, copy = pending.pop()
            for child in source.children:
                if child.pre in selected:
                    child_copy = XMLNode(child.tag, child.text)
                    copy._attach(child_copy)
                    pending.append((child, child_copy))
        return root_copy

    def selected_nodes(self) -> list[XMLNode]:
        """The selected source nodes in document order."""
        return [self._selected[pre] for pre in sorted(self._selected)]

    def __repr__(self) -> str:
        return (
            f"<Snippet result=#{self.result.result_id} edges={self.size_edges} "
            f"covered={len(self.covered_items)}>"
        )
