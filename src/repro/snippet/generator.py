"""The SnippetGenerator façade — eXtract's primary contribution.

Given a keyword query, a query result and a snippet size bound, the
generator runs the full Figure 4 pipeline:

1. build the IList (keywords → entity names → result key → dominant
   features) via :class:`~repro.snippet.ilist.IListBuilder`,
2. run the greedy Instance Selector to build the snippet tree within the
   size bound.

The default size bound of 14 edges is what reproduces the Figure 2 snippet
of the running example; the demo UI (Figure 5) uses a user-chosen bound
such as 6.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.classify.analyzer import DataAnalyzer
from repro.errors import InvalidSizeBoundError
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult, ResultSet
from repro.snippet.ilist import IList, IListBuilder
from repro.snippet.instance_selector import GreedyInstanceSelector, SelectionStrategy
from repro.snippet.snippet_tree import Snippet
from repro.utils.cache import DEFAULT_CACHE_SIZE
from repro.utils.paging import page_bounds
from repro.utils.timing import TimingBreakdown
from repro.xmltree.tree import XMLTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import SnippetPayload

#: the default snippet size bound (edges); matches the Figure 2 example
DEFAULT_SIZE_BOUND = 14


@dataclass
class GeneratedSnippet:
    """A snippet together with the intermediate artefacts that produced it.

    ``payload`` is this snippet rendered for the wire, stored by the first
    request that serves it (``SnippetService._snippet_payload``) and
    returned to every later one.  It is a pure function of the fields
    above, so it lives as long as the object: a batch slot keeps it for as
    long as its outcome is cached, and :meth:`SnippetBatch.rebind` carries
    it with the slot — a kept slot has no edit under its root, and its
    label and tags are those of a same-shape version.  A
    :class:`~repro.snippet.distinct.DistinctSnippetGenerator` replacement
    is a new object without one, so it never serves the rendering of the
    snippet it replaced.  Never copy a rendered object with
    :func:`dataclasses.replace`.
    """

    result: QueryResult
    ilist: IList
    snippet: Snippet
    size_bound: int
    payload: "SnippetPayload | None" = field(default=None, compare=False, repr=False)

    @property
    def covered_items(self) -> int:
        return len(self.snippet.covered_items)

    @cached_property
    def coverable_items(self) -> int:
        """How many IList items have an instance in the result."""
        return len(self.ilist.coverable_items())

    def rebind(self, tree: XMLTree) -> None:
        """Rebind everything this snippet reads nodes through to ``tree``:
        its result, which its snippet tree was computed on
        (:meth:`QueryResult.rebind`), and its statistics, which every query
        with this root shares
        (:meth:`~repro.snippet.features.FeatureStatistics.rebind`)."""
        self.result.rebind(tree)
        if self.ilist.statistics is not None:
            self.ilist.statistics.rebind(tree)

    @property
    def coverage(self) -> float:
        """Fraction of coverable IList items captured by the snippet."""
        coverable = self.coverable_items
        if coverable == 0:
            return 1.0
        return self.covered_items / coverable

    def __repr__(self) -> str:
        return (
            f"<GeneratedSnippet result=#{self.result.result_id} "
            f"edges={self.snippet.size_edges}/{self.size_bound} "
            f"items={self.covered_items}/{self.coverable_items}>"
        )


def _check_size_bound(size_bound: int) -> None:
    if not isinstance(size_bound, int) or isinstance(size_bound, bool) or size_bound <= 0:
        raise InvalidSizeBoundError(size_bound)


class SnippetBatch:
    """Snippets for a whole result set (one per result, rank order),
    generated a page at a time.

    The batch holds one slot per ranked result; a slot is filled the first
    time something reads it.  :meth:`page` generates exactly the slots of
    that page, so the first page of a 200-result query costs ``page_size``
    snippets, and a follow-up page pays for its own slots once.  Everything
    else that reads the batch — iteration, indexing, :attr:`snippets`,
    :meth:`mean_coverage` — fills whatever is still missing first, which
    is how :meth:`SnippetGenerator.generate_all` returns a complete batch.

    Generation (paper §2.2–2.4) reads nothing outside its one result, so
    the order in which pages are filled cannot change any snippet.  Slots
    are filled under a per-batch lock: concurrent requests for pages of the
    same batch generate each snippet exactly once.  A page whose slots are
    all filled is read without the lock.

    An invalid ``size_bound`` raises :class:`InvalidSizeBoundError` here,
    when the batch is built — not later, from whichever page is read first.
    """

    def __init__(
        self,
        generator: "SnippetGenerator",
        results: ResultSet,
        size_bound: int = DEFAULT_SIZE_BOUND,
        timings: TimingBreakdown | None = None,
        use_cache: bool = True,
    ):
        _check_size_bound(size_bound)
        self.query = results.query
        self.size_bound = size_bound
        #: whether slots are filled through the generator's root memo
        #: (:meth:`SnippetGenerator.generate`)
        self.use_cache = use_cache
        #: where the phases of on-demand generation are measured when the
        #: reader brings no breakdown of its own
        self.timings = timings if timings is not None else generator.timings
        self._results = results.results
        self._slots: list[GeneratedSnippet | None] = [None] * len(self._results)
        #: slots still empty; at 0 the generator is let go and every read
        #: is a plain list read
        self._pending = len(self._slots)
        self._generator: SnippetGenerator | None = generator if self._slots else None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # reading (fills what it reads)
    # ------------------------------------------------------------------ #
    def page(
        self, page: int, page_size: int | None, timings: TimingBreakdown | None = None
    ) -> list[GeneratedSnippet]:
        """The snippets of one result page (conventions in
        :mod:`repro.utils.paging`), generating those not generated yet.

        ``timings`` receives the phases this call executed (``snippets``,
        ``ilist``, ``features``, ``instance_selection``) — nothing when
        the page was already generated, or lies past the end.
        """
        start, stop = page_bounds(len(self._slots), page, page_size)
        items = self._slots[start:stop]
        if self._pending and None in items:
            self._fill(start, stop, timings)
            items = self._slots[start:stop]
        return items

    @property
    def snippets(self) -> list[GeneratedSnippet]:
        """Every snippet, rank order, generating the missing ones.  The
        list is the batch's own: assigning to a position replaces that
        result's snippet (:class:`~repro.snippet.distinct.
        DistinctSnippetGenerator` does)."""
        if self._pending:
            self._fill(0, len(self._slots), None)
        return self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[GeneratedSnippet]:
        return iter(self.snippets)

    def __getitem__(self, index: int | slice):
        return self.snippets[index]

    def mean_coverage(self) -> float:
        snippets = self.snippets
        if not snippets:
            return 0.0
        return sum(generated.coverage for generated in snippets) / len(snippets)

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    @property
    def generated(self) -> int:
        """How many slots are filled (never generates)."""
        return len(self._slots) - self._pending

    def _fill(self, start: int, stop: int, timings: TimingBreakdown | None) -> None:
        breakdown = timings if timings is not None else self.timings
        slots = self._slots
        with self._lock:
            missing = [position for position in range(start, stop) if slots[position] is None]
            if not missing:  # another reader generated them meanwhile
                return
            generator = self._generator
            with breakdown.measure("snippets"):
                for position in missing:
                    slots[position] = generator.generate(
                        self._results[position],
                        size_bound=self.size_bound,
                        query=self.query,
                        timings=breakdown,
                        use_cache=self.use_cache,
                    )
                    self._pending -= 1
            if not self._pending:
                self._generator = None

    def rebind(self, generator: "SnippetGenerator") -> None:
        """Move this batch onto ``generator``'s version of its document, a
        later version with the same shape in which no node of its results
        changed (:func:`repro.corpus._carry_serving_state`): its results
        and the statistics its filled slots read are rebound to that
        version's tree (:meth:`GeneratedSnippet.rebind`), and the slots
        still empty are filled by ``generator``, whose analyzer tables
        cover the rebound results.

        Done under the batch lock, which every fill holds, so a fill
        generates either the old results with the old generator or the
        moved ones with the live generator.  Filled slots are read without
        the lock; what a reader reads through a moved result is the same in
        both versions (:meth:`QueryResult.rebind`), so a filled slot keeps
        its stored payload.
        """
        tree = generator.analyzer.tree
        with self._lock:
            for result in self._results:
                result.rebind(tree)
            for generated in self._slots:
                if generated is not None:
                    generated.rebind(tree)
            if self._generator is not None:
                self._generator = generator

    def __repr__(self) -> str:
        return (
            f"<SnippetBatch query={str(self.query)!r} bound={self.size_bound} "
            f"generated={self.generated}/{len(self._slots)}>"
        )


class SnippetGenerator:
    """Generates eXtract snippets for query results.

    >>> from repro.xmltree.builder import tree_from_dict
    >>> from repro.index.builder import IndexBuilder
    >>> from repro.search.engine import SearchEngine
    >>> tree = tree_from_dict("shops", {"store": [
    ...     {"name": "Levis", "state": "Texas", "clothes": [{"category": "jeans"}]},
    ...     {"name": "ESprit", "state": "Oregon", "clothes": [{"category": "outwear"}]},
    ... ]})
    >>> index = IndexBuilder().build(tree)
    >>> results = SearchEngine(index).search("store texas")
    >>> generator = SnippetGenerator(index.analyzer)
    >>> generated = generator.generate(results[0], size_bound=6)
    >>> generated.snippet.size_edges <= 6
    True
    """

    def __init__(
        self,
        analyzer: DataAnalyzer,
        strategy: SelectionStrategy = SelectionStrategy.GREEDY_CLOSEST,
        skip_unfitting_items: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.analyzer = analyzer
        #: its root memo (:attr:`IListBuilder.roots`) is bounded by subtree
        #: nodes, not by ``cache_size``; a ``cache_size`` of 0 turns it off
        self.ilist_builder = IListBuilder(analyzer, cache_size=cache_size)
        self.selector = GreedyInstanceSelector(
            strategy=strategy, skip_unfitting_items=skip_unfitting_items
        )
        self.timings = TimingBreakdown()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build_ilist(self, result: QueryResult, query: KeywordQuery | None = None) -> IList:
        """Build the IList of a result (exposed for tests and experiments)."""
        return self.ilist_builder.build(query or result.query, result)

    def generate(
        self,
        result: QueryResult,
        size_bound: int = DEFAULT_SIZE_BOUND,
        query: KeywordQuery | None = None,
        timings: TimingBreakdown | None = None,
        use_cache: bool = True,
    ) -> GeneratedSnippet:
        """Generate the snippet of one query result.

        The query-independent half of the IList comes from the IList
        builder's root memo when an earlier result had the same root;
        ``use_cache=False`` neither reads nor fills it: the snippet is
        computed from scratch.

        ``timings`` redirects the phase measurements into a caller-owned
        breakdown (the thread-safe service pipeline passes a per-request
        one); without it the generator's own :attr:`timings` accumulate.
        """
        _check_size_bound(size_bound)
        breakdown = timings if timings is not None else self.timings
        with breakdown.measure("ilist"):
            ilist = self.ilist_builder.build(
                query or result.query, result, timings=breakdown, use_cache=use_cache
            )
        with breakdown.measure("instance_selection"):
            snippet = self.selector.select(result, ilist, size_bound)
        return GeneratedSnippet(result=result, ilist=ilist, snippet=snippet, size_bound=size_bound)

    def generate_all(
        self,
        results: ResultSet,
        size_bound: int = DEFAULT_SIZE_BOUND,
        timings: TimingBreakdown | None = None,
    ) -> SnippetBatch:
        """Generate snippets for every result of a result set: a
        :class:`SnippetBatch` read to the end."""
        batch = SnippetBatch(self, results, size_bound=size_bound, timings=timings)
        batch.page(1, None)  # one page holding everything
        return batch
