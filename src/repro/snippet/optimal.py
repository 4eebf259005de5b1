"""An exact (exponential-time) instance selector.

§2.4 proves that maximising the number of IList items captured within a
bounded-size snippet is NP-hard; the greedy algorithm is the practical
answer.  To *validate* the greedy algorithm (experiment E4: "how close to
optimal is greedy?") we also implement an exact branch-and-bound search
that is feasible for the small results and bounds used in that experiment.

The objective mirrors the paper's goal hierarchy: primarily maximise the
number of covered items, breaking ties in favour of covering the more
important (earlier) items, and then in favour of smaller snippets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidSizeBoundError, SnippetError
from repro.search.results import QueryResult
from repro.snippet.ilist import IList, IListItem
from repro.snippet.snippet_tree import Snippet

#: hard cap on the size of the search space accepted by the exact selector;
#: beyond this the caller should be using the greedy algorithm anyway.
MAX_SEARCH_NODES = 2_000_000


@dataclass
class _SearchState:
    covered: list[tuple[IListItem, int]]
    #: ``pre`` ids of the nodes selected so far
    nodes: frozenset[int]

    @property
    def edges(self) -> int:
        return len(self.nodes) - 1


class OptimalInstanceSelector:
    """Exhaustive branch-and-bound over item/instance choices."""

    def __init__(self, max_instances_per_item: int = 8, max_search_nodes: int = MAX_SEARCH_NODES):
        #: per item, only the ``max_instances_per_item`` instances closest to
        #: the result root are branched on; the greedy algorithm has the
        #: same candidates available, so the comparison stays fair.
        self.max_instances_per_item = max_instances_per_item
        self.max_search_nodes = max_search_nodes
        self._expanded = 0

    def select(self, result: QueryResult, ilist: IList, size_bound: int) -> Snippet:
        """Return an optimal snippet (maximum covered items) within the bound."""
        if not isinstance(size_bound, int) or isinstance(size_bound, bool) or size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)

        items = [item for item in ilist if item.has_instances]
        path = Snippet(result).path
        level = result.source.shape.level
        candidate_paths = [
            [(instance, frozenset(path(instance))) for instance in self._candidates(result, item, level)]
            for item in items
        ]

        self._expanded = 0
        best: _SearchState | None = None
        root_only = frozenset({result.root_node.pre})

        def better(candidate: _SearchState, incumbent: _SearchState | None) -> bool:
            if incumbent is None:
                return True
            if len(candidate.covered) != len(incumbent.covered):
                return len(candidate.covered) > len(incumbent.covered)
            candidate_rank = sorted(self._rank_of(ilist, item) for item, _ in candidate.covered)
            incumbent_rank = sorted(self._rank_of(ilist, item) for item, _ in incumbent.covered)
            if candidate_rank != incumbent_rank:
                return candidate_rank < incumbent_rank
            return candidate.edges < incumbent.edges

        def search(index: int, state: _SearchState) -> None:
            nonlocal best
            self._expanded += 1
            if self._expanded > self.max_search_nodes:
                raise SnippetError(
                    "optimal instance selection exceeded the search budget; "
                    "use the greedy selector for inputs of this size"
                )
            if better(state, best):
                best = state
            if index >= len(items):
                return
            remaining = len(items) - index
            if best is not None and len(state.covered) + remaining < len(best.covered):
                return  # cannot beat the incumbent even covering everything left

            item = items[index]
            # Branch 1..n: cover the item with one of its candidate instances.
            for instance, path in candidate_paths[index]:
                new_nodes = state.nodes | path
                if len(new_nodes) - 1 <= size_bound:
                    search(
                        index + 1,
                        _SearchState(
                            covered=state.covered + [(item, instance)],
                            nodes=new_nodes,
                        ),
                    )
            # Branch 0: skip the item.
            search(index + 1, state)

        search(0, _SearchState(covered=[], nodes=root_only))

        assert best is not None  # the empty selection is always feasible
        snippet = Snippet(result)
        for item, instance in best.covered:
            snippet.add_instance(item, instance)
        return snippet

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _candidates(self, result: QueryResult, item: IListItem, level: list[int]) -> list[int]:
        """The item's instances inside the result, shallowest first (ties:
        document order)."""
        valid = [pre for pre in item.instances if result.contains(pre)]
        valid.sort(key=lambda pre: (level[pre], pre))
        return valid[: self.max_instances_per_item]

    @staticmethod
    def _rank_of(ilist: IList, item: IListItem) -> int:
        for rank, candidate in enumerate(ilist):
            if candidate is item:
                return rank
        return len(ilist.items)

    @property
    def expanded_states(self) -> int:
        """Number of search states expanded by the last :meth:`select` call."""
        return self._expanded
