"""The greedy Instance Selector (§2.4, Figure 4).

"Given a snippet size bound, eXtract aims at including as many items in
IList as possible in the order of their significance, by carefully
selecting the instances of each item from the query result.  Intuitively,
we should select instances of each item such that they are close to each
other, so as to occupy a small space and leave room to include more items."

The underlying optimisation problem (choose one instance per covered item
so that the union of root-to-instance paths has at most *B* edges and the
number of covered items is maximal, covering more-important items first)
is NP-hard (§2.4); the greedy strategy implemented here is the practical
algorithm the paper describes:

* walk the IList in its ranked order,
* for each item, pick the instance whose addition to the current snippet
  tree is *cheapest* (fewest new edges; ties broken by document order) —
  this is the "choose outwear3 rather than outwear4" behaviour of §2.4,
* add it if the snippet stays within the bound, otherwise skip the item
  and keep trying less important items (they may still fit in the
  remaining space).

Two ablation strategies (first-instance and random-instance) are provided
for experiment A2, which quantifies how much the "closest instance" choice
matters.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from enum import Enum
from functools import partial

from repro.errors import InvalidSizeBoundError
from repro.search.results import QueryResult
from repro.snippet.ilist import IList
from repro.snippet.snippet_tree import Snippet


class SelectionStrategy(str, Enum):
    """How the instance of an IList item is chosen among the candidates."""

    #: the instance adding the fewest new edges (the paper's strategy)
    GREEDY_CLOSEST = "greedy_closest"
    #: the first instance in document order, regardless of cost
    FIRST_INSTANCE = "first_instance"
    #: a uniformly random instance (seeded; ablation baseline)
    RANDOM_INSTANCE = "random_instance"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class GreedyInstanceSelector:
    """Builds a snippet from an IList under an edge-count bound."""

    def __init__(
        self,
        strategy: SelectionStrategy = SelectionStrategy.GREEDY_CLOSEST,
        skip_unfitting_items: bool = True,
        random_seed: int = 0,
    ):
        self.strategy = strategy
        #: when False, selection stops at the first item that does not fit
        #: (strictly rank-ordered truncation); when True (default), items
        #: that do not fit are skipped and later, cheaper items may still
        #: be included — maximising the number of covered items.
        self.skip_unfitting_items = skip_unfitting_items
        self._random = random.Random(random_seed)

    def select(self, result: QueryResult, ilist: IList, size_bound: int) -> Snippet:
        """Build the snippet of ``result`` for the given ``size_bound``.

        The bound counts edges; it must be a positive integer (a zero-edge
        snippet would contain only the result root and carry no
        information).
        """
        if not isinstance(size_bound, int) or isinstance(size_bound, bool) or size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)

        snippet = Snippet(result)
        covered = snippet.chosen_instances
        skip_unfitting = self.skip_unfitting_items
        # The strategy is picked once per snippet, not once per item.
        if self.strategy == SelectionStrategy.GREEDY_CLOSEST:
            choose = snippet.cheapest_instance
        elif self.strategy == SelectionStrategy.FIRST_INSTANCE:
            choose = partial(self._choose_in_result, snippet, min)
        else:
            choose = partial(self._choose_in_result, snippet, self._random_instance)
        for item in ilist:
            instances = item.instances
            if not len(instances):
                continue
            if item.identity in covered:
                # A previous item with the same identity already covered it
                # (cannot normally happen — the IList de-duplicates — but a
                # hand-built IList may repeat identities).
                continue
            remaining = size_bound - snippet.size_edges
            # ``budget`` is the edges left to spend when an item that does
            # not fit is simply skipped: the closest-instance search then
            # leaves out what cannot fit.
            chosen = choose(instances, remaining if skip_unfitting else None)
            if chosen is None:
                continue
            instance, cost = chosen
            if cost > remaining:
                if skip_unfitting:
                    continue
                break
            snippet.add_instance(item, instance)
        return snippet

    # ------------------------------------------------------------------ #
    # instance choice strategies
    # ------------------------------------------------------------------ #
    @staticmethod
    def _choose_in_result(
        snippet: Snippet,
        pick: Callable[[list[int]], int],
        instances: Sequence[int],
        budget: int | None,
    ) -> tuple[int, int] | None:
        """The instance (a ``pre`` id) ``pick`` takes among those inside
        the result, and its cost (``None`` when none is inside); the
        ablation strategies ignore ``budget``."""
        valid = [pre for pre in instances if snippet.result.contains(pre)]
        if not valid:
            return None
        instance = pick(valid)
        return instance, snippet.cost_of(instance)

    def _random_instance(self, valid: list[int]) -> int:
        return self._random.choice(sorted(valid))

    def __repr__(self) -> str:
        return f"<GreedyInstanceSelector strategy={self.strategy.value}>"
