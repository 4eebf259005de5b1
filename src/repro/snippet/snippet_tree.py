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

    Nodes are named by ``pre`` id throughout: the selection is a set of
    ids, an instance is an id, and the result subtree is the id range
    ``[first, end)`` — "inside the result" is two integer comparisons.
    The selection always contains the result root and is closed under
    "parent within the result subtree", so the cost of an instance is the
    number of hops through the tree's ``parent`` table from its id to the
    first id already selected: every hop is one new edge.  Labels
    (:attr:`node_labels`, :meth:`path_labels`) are derived for display.

    A snippet holds ids and the ``parent`` table of ``result.source``, and
    reads a node (:attr:`node_labels`, :meth:`to_tree`,
    :meth:`selected_nodes`) from ``result.source`` when asked: its result
    is its one pointer to a document version.  Ids are positions and every
    version a text-only update produces shares the ``parent`` table, so a
    kept snippet follows its result onto the live version
    (:meth:`QueryResult.rebind`) unchanged.
    """

    def __init__(self, result: QueryResult):
        self.result = result
        root_node = result.root_node
        shape = result.source.shape
        self._parent = shape.parent
        #: the ``pre`` range of the result subtree
        self._first = root_node.pre
        self._end = root_node.pre + shape.size[root_node.pre]
        #: the ``pre`` ids of the selected nodes
        self._selected: set[int] = {self._first}
        #: the IList items covered so far, in coverage order
        self.covered_items: list[IListItem] = []
        #: per covered item identity, the instance (``pre`` id) chosen to cover it
        self.chosen_instances: dict[str, int] = {}

    @property
    def root(self) -> Dewey:
        """The label of the result root (display)."""
        return self.result.root

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    @property
    def node_labels(self) -> set[Dewey]:
        """The labels of the selected nodes (a fresh set on every read)."""
        nodes = self.result.source.nodes_by_pre
        return {nodes[pre].dewey for pre in self._selected}

    @property
    def size_edges(self) -> int:
        """Number of edges of the snippet tree (nodes - 1)."""
        return len(self._selected) - 1

    @property
    def size_nodes(self) -> int:
        return len(self._selected)

    def _check_inside(self, instance: int) -> None:
        if not self._first <= instance < self._end:
            raise SnippetError(
                f"instance {instance} lies outside the result rooted at {self.root} "
                f"(ids {self._first}..{self._end - 1})"
            )

    def _hops(self, instance: int) -> int:
        """``parent`` hops from ``instance`` to the nearest selected node:
        the edges selecting it would add."""
        selected, parent = self._selected, self._parent
        hops = 0
        while instance not in selected:
            hops += 1
            instance = parent[instance]
        return hops

    def path(self, instance: int) -> list[int]:
        """The ids on the path from the snippet root down to ``instance``."""
        self._check_inside(instance)
        parent, first = self._parent, self._first
        path = [instance]
        while instance != first:
            instance = parent[instance]
            path.append(instance)
        path.reverse()
        return path

    def path_labels(self, instance: int) -> list[Dewey]:
        """The labels on the path from the snippet root to ``instance``."""
        nodes = self.result.source.nodes_by_pre
        return [nodes[pre].dewey for pre in self.path(instance)]

    def cost_of(self, instance: int) -> int:
        """Number of *new* edges added by selecting ``instance``."""
        self._check_inside(instance)
        return self._hops(instance)

    def cheapest_instance(
        self, instances: Iterable[int], budget: int | None = None
    ) -> tuple[int, int] | None:
        """The instance with the lowest addition cost (ties: document
        order), and that cost.

        Instances outside the result are skipped; with a ``budget`` — the
        edges the caller can still spend — so are instances that would add
        more.
        """
        selected = self._selected
        if budget == 0:
            # nothing left to spend: only an instance already selected fits
            held = selected.intersection(instances)
            return (min(held), 0) if held else None
        first, end = self._first, self._end
        parent = self._parent
        best = -1
        best_cost = end  # more edges than any path inside the result has
        for instance in instances:
            if first <= instance < end:
                # the hop count of _hops, inline: this loop is the selector
                node, cost = instance, 0
                while node not in selected:
                    node = parent[node]
                    cost += 1
                # pre is document order and unique per node
                if cost < best_cost or (cost == best_cost and instance < best):
                    best, best_cost = instance, cost
        if best < 0 or (budget is not None and best_cost > budget):
            return None
        return best, best_cost

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def add_instance(self, item: IListItem, instance: int) -> int:
        """Cover ``item`` using ``instance``; returns the edges added."""
        self._check_inside(instance)
        selected, parent = self._selected, self._parent
        chosen = instance
        added = 0
        while instance not in selected:
            selected.add(instance)
            instance = parent[instance]
            added += 1
        self.covered_items.append(item)
        self.chosen_instances[item.identity] = chosen
        return added

    def would_fit(self, instance: int, bound: int) -> bool:
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

    def contains(self, pre: int) -> bool:
        """Is the node at ``pre`` selected?"""
        return pre in self._selected

    def is_connected(self) -> bool:
        """Every selected node's parent (down to the root) is selected too."""
        parent = self._parent
        return all(parent[pre] in self._selected for pre in self._selected if pre != self._first)

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def to_tree(self) -> XMLTree:
        """Copy the selected nodes into a standalone tree (HTML rendering;
        the text renderer walks :meth:`selected_pres` instead).

        Only the selected nodes are copied — unlike
        :meth:`XMLTree.extract_projection`, subtrees below selected nodes
        are *not* pulled in, because the snippet's size bound is defined
        over exactly the selected edges.
        """
        root_copy = self._copy_selected(self.result.source.nodes_by_pre[self._first])
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

    def selected_pres(self) -> list[int]:
        """The ``pre`` ids of the selected nodes, ascending.

        The selection holds the result root and is closed under "parent",
        so document order restricted to it is the pre-order walk of the
        snippet tree: what :meth:`to_tree` would copy, without the copy.
        """
        return sorted(self._selected)

    def selected_nodes(self) -> list[XMLNode]:
        """The selected source nodes in document order."""
        nodes = self.result.source.nodes_by_pre
        return [nodes[pre] for pre in self.selected_pres()]

    def __repr__(self) -> str:
        return (
            f"<Snippet result=#{self.result.result_id} edges={self.size_edges} "
            f"covered={len(self.covered_items)}>"
        )
