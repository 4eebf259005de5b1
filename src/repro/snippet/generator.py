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

from dataclasses import dataclass, field

from repro.classify.analyzer import DataAnalyzer
from repro.errors import InvalidSizeBoundError
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult, ResultSet
from repro.snippet.ilist import IList, IListBuilder
from repro.snippet.instance_selector import GreedyInstanceSelector, SelectionStrategy
from repro.snippet.snippet_tree import Snippet
from repro.utils.cache import DEFAULT_CACHE_SIZE, LRUCache
from repro.utils.paging import page_slice
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


@dataclass
class SnippetBatch:
    """Snippets for a whole result set (one per result, rank order)."""

    query: KeywordQuery
    size_bound: int
    snippets: list[GeneratedSnippet] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snippets)

    def __iter__(self):
        return iter(self.snippets)

    def __getitem__(self, index: int) -> GeneratedSnippet:
        return self.snippets[index]

    def mean_coverage(self) -> float:
        if not self.snippets:
            return 0.0
        return sum(generated.coverage for generated in self.snippets) / len(self.snippets)

    def page(self, page: int, page_size: int | None) -> list[GeneratedSnippet]:
        """The snippets of one result page (conventions in
        :mod:`repro.utils.paging`)."""
        return page_slice(self.snippets, page, page_size)


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
        if not isinstance(size_bound, int) or isinstance(size_bound, bool) or size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)
        breakdown = timings if timings is not None else self.timings
        effective_query = query or result.query
        key = (result.source.name, result.root, effective_query.keywords, size_bound)
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
        """Generate snippets for every result of a result set."""
        batch = SnippetBatch(query=results.query, size_bound=size_bound)
        for result in results:
            batch.snippets.append(
                self.generate(result, size_bound=size_bound, query=results.query, timings=timings)
            )
        return batch

    def invalidate_cache(self) -> int:
        """Drop every cached snippet; returns the number of entries removed."""
        return self.cache.clear()
