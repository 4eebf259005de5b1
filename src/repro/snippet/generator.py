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

import copy
import threading
from collections.abc import Iterator
from dataclasses import dataclass

from repro.classify.analyzer import DataAnalyzer
from repro.errors import InvalidSizeBoundError
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult, ResultSet
from repro.snippet.ilist import IList, IListBuilder
from repro.snippet.instance_selector import GreedyInstanceSelector, SelectionStrategy
from repro.snippet.snippet_tree import Snippet
from repro.utils.cache import DEFAULT_CACHE_SIZE, LRUCache
from repro.utils.paging import page_bounds
from repro.utils.timing import TimingBreakdown

#: the default snippet size bound (edges); matches the Figure 2 example
DEFAULT_SIZE_BOUND = 14


@dataclass
class GeneratedSnippet:
    """A snippet together with the intermediate artefacts that produced it."""

    result: QueryResult
    ilist: IList
    snippet: Snippet
    size_bound: int

    @property
    def covered_items(self) -> int:
        return len(self.snippet.covered_items)

    @property
    def coverage(self) -> float:
        """Fraction of coverable IList items captured by the snippet."""
        coverable = len(self.ilist.coverable_items())
        if coverable == 0:
            return 1.0
        return self.covered_items / coverable

    def __repr__(self) -> str:
        return (
            f"<GeneratedSnippet result=#{self.result.result_id} "
            f"edges={self.snippet.size_edges}/{self.size_bound} "
            f"items={self.covered_items}/{len(self.ilist.coverable_items())}>"
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
    ):
        _check_size_bound(size_bound)
        self.query = results.query
        self.size_bound = size_bound
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
                    )
                    self._pending -= 1
            if not self._pending:
                self._generator = None

    def serve_from(self, cache: LRUCache) -> None:
        """Look up and store the snippets still to generate in ``cache``.

        An incremental update hands the outcomes it keeps to the new
        document version (:func:`repro.corpus._carry_serving_state`).  Such
        a batch goes on generating with the analyzer its results belong to
        — their nodes are foreign to the new version's analyzer — but
        through the live snippet cache, not the retired generator's.
        """
        with self._lock:
            if self._generator is not None:
                self._generator = copy.copy(self._generator)
                self._generator.cache = cache

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
        self.ilist_builder = IListBuilder(analyzer)
        self.selector = GreedyInstanceSelector(
            strategy=strategy, skip_unfitting_items=skip_unfitting_items
        )
        self.timings = TimingBreakdown()
        #: snippet cache: (document, result root, normalised query, bound) →
        #: GeneratedSnippet.  The document and its analysis are immutable
        #: for the lifetime of a generator, so identical requests can reuse
        #: the IList and the selected snippet tree verbatim.
        self.cache = LRUCache(cache_size)

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
    ) -> GeneratedSnippet:
        """Generate the snippet of one query result.

        Identical requests (same document, result root, normalised query
        and size bound) are answered from the snippet cache; the cached
        IList and snippet tree are rewrapped around the caller's ``result``
        object so ranking metadata (``result_id``, score) stays current.

        ``timings`` redirects the phase measurements into a caller-owned
        breakdown (the thread-safe service pipeline passes a per-request
        one); without it the generator's own :attr:`timings` accumulate.
        """
        _check_size_bound(size_bound)
        breakdown = timings if timings is not None else self.timings
        effective_query = query or result.query
        key = (result.source.name, result.root_node.pre, effective_query.keywords, size_bound)
        cached = self.cache.get(key)
        if cached is not None:
            return GeneratedSnippet(
                result=result, ilist=cached.ilist, snippet=cached.snippet, size_bound=size_bound
            )
        with breakdown.measure("ilist"):
            ilist = self.ilist_builder.build(effective_query, result, timings=breakdown)
        with breakdown.measure("instance_selection"):
            snippet = self.selector.select(result, ilist, size_bound)
        generated = GeneratedSnippet(result=result, ilist=ilist, snippet=snippet, size_bound=size_bound)
        self.cache.put(key, generated)
        return generated

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

    def invalidate_cache(self) -> int:
        """Drop every cached snippet; returns the number of entries removed."""
        return self.cache.clear()
