"""The end-to-end eXtract system façade.

:class:`ExtractSystem` wires the whole Figure 4 architecture together:
load or accept an XML document, analyze and index it, evaluate keyword
queries and generate size-bounded snippets for every result.  It is the
API the examples and the web-page renderer use; the individual components
remain available for programmatic use.

Because the demo served repeated interactive queries, the system carries
an LRU **query-result cache**: outcomes are keyed on (document, normalised
query, algorithm, snippet bound, limit, construction) and re-served
without touching the index; an outcome's snippets are generated page by
page, on first request (:class:`repro.snippet.generator.SnippetBatch`).
:meth:`invalidate_cache` drops everything, and
:class:`repro.corpus.Corpus` invalidates on re-registration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.index.builder import DocumentIndex, IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.results import ResultSet
from repro.search.xseek import ResultConstruction
from repro.snippet.generator import DEFAULT_SIZE_BOUND, SnippetBatch, SnippetGenerator
from repro.snippet.render import render_batch_text
from repro.utils.cache import DEFAULT_CACHE_SIZE, CacheStats, LRUCache
from repro.utils.timing import TimingBreakdown
from repro.xmltree.parser import parse_xml, parse_xml_file
from repro.xmltree.tree import XMLTree

if TYPE_CHECKING:
    from repro.xmltree.stats import DocumentStats


@dataclass
class SearchOutcome:
    """Results and snippets of one query, plus phase timings.

    ``timings`` holds the phases of the :meth:`ExtractSystem.run_query`
    call that evaluated the query: its search phases, joined by the
    snippet phases as ``snippets`` generates pages for readers that bring
    no breakdown of their own.  The outcome a cache hit returns did no
    phase work and reports none.
    """

    results: ResultSet
    snippets: SnippetBatch
    timings: TimingBreakdown
    from_cache: bool = False

    def __len__(self) -> int:
        return len(self.results)

    def render_text(self, show_ilist: bool = False) -> str:
        return render_batch_text(self.snippets, show_ilist=show_ilist)


class ExtractSystem:
    """Load → index → search → snippet, in one object.

    >>> from repro.datasets.retail import figure5_document
    >>> system = ExtractSystem.from_tree(figure5_document())
    >>> outcome = system.run_query("store texas", size_bound=6)
    >>> len(outcome) >= 2
    True
    >>> all(g.snippet.size_edges <= 6 for g in outcome.snippets)
    True
    >>> system.run_query("store texas", size_bound=6).from_cache
    True
    """

    def __init__(
        self,
        index: DocumentIndex,
        algorithm: str = "slca",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.index = index
        self.engine = SearchEngine(index, algorithm=algorithm)
        self.generator = SnippetGenerator(index.analyzer, cache_size=cache_size)
        self.cache = LRUCache(cache_size)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tree(
        cls, tree: XMLTree, algorithm: str = "slca", cache_size: int = DEFAULT_CACHE_SIZE
    ) -> "ExtractSystem":
        """Build the system from an in-memory document."""
        return cls(IndexBuilder().build(tree), algorithm=algorithm, cache_size=cache_size)

    @classmethod
    def from_xml(
        cls,
        text: str,
        name: str = "document",
        algorithm: str = "slca",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "ExtractSystem":
        """Build the system from XML text (the DTD internal subset, if any,
        informs entity classification)."""
        parsed = parse_xml(text, name=name)
        return cls(
            IndexBuilder(dtd=parsed.dtd()).build(parsed.tree),
            algorithm=algorithm,
            cache_size=cache_size,
        )

    @classmethod
    def from_file(
        cls,
        path: str | os.PathLike[str],
        algorithm: str = "slca",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "ExtractSystem":
        """Build the system from an XML file on disk."""
        parsed = parse_xml_file(path)
        return cls(
            IndexBuilder(dtd=parsed.dtd()).build(parsed.tree),
            algorithm=algorithm,
            cache_size=cache_size,
        )

    @classmethod
    def from_saved(
        cls,
        directory: str | os.PathLike[str],
        algorithm: str = "slca",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "ExtractSystem":
        """Build the system from a persisted index snapshot (no re-indexing
        of external XML: the snapshot directory is authoritative)."""
        from repro.index.storage import load_index

        return cls(load_index(directory), algorithm=algorithm, cache_size=cache_size)

    # ------------------------------------------------------------------ #
    # the serving pipeline (thread-safe)
    # ------------------------------------------------------------------ #
    def run_query(
        self,
        query_text: str | KeywordQuery,
        size_bound: int = DEFAULT_SIZE_BOUND,
        limit: int | None = None,
        construction: ResultConstruction = ResultConstruction.XSEEK,
        use_cache: bool = True,
    ) -> SearchOutcome:
        """Evaluate a keyword query; snippets are generated a page at a time.

        This is the pipeline the :class:`repro.api.SnippetService` executes
        requests through.  The search runs here; the returned outcome's
        :class:`SnippetBatch` generates each snippet when it is first read
        — ``outcome.snippets.page(page, page_size)`` generates exactly that
        page, iterating or indexing the batch generates all of it — so a
        request for one page of a 200-result query pays for one page of
        snippets, and ``outcome.timings`` gains the snippet phases as pages
        are generated.  An invalid ``size_bound`` raises
        :class:`~repro.errors.InvalidSizeBoundError` from this call, before
        anything is cached.

        It is **thread-safe**: every phase measures into a per-call
        :class:`TimingBreakdown`, the result construction mode is passed
        down explicitly (no engine attribute is mutated), the result cache
        and the root memo serialise access internally and a batch fills its
        slots under its own lock — so many threads may run queries over the
        same system concurrently and get results identical to serial
        execution, each snippet of a cached outcome generated once.

        Outcomes are served from the LRU cache when an identical request
        (same normalised keywords, bound, limit, construction) was answered
        before — the ranked results plus the batch, however much of it has
        been generated so far; ``use_cache=False`` forces a cold evaluation
        and populates nothing: it neither reads nor fills this cache or
        the IList builder's root memo, so every snippet of its batch is
        generated from scratch.

        A caller that wants only the results reads ``outcome.results`` and
        never a page of snippets: nothing is generated, and the cached
        outcome serves the same query with snippets later.
        """
        parsed = query_text if isinstance(query_text, KeywordQuery) else KeywordQuery.parse(query_text)
        key = self._cache_key(parsed, size_bound, limit, construction)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached

        timings = TimingBreakdown()
        with timings.measure("search"):
            results = self.engine.search(
                parsed, limit=limit, construction=construction, timings=timings
            )
        snippets = SnippetBatch(
            self.generator, results, size_bound=size_bound, timings=timings, use_cache=use_cache
        )
        if use_cache:
            # The cached copy carries an empty breakdown: a warm hit did no
            # phase work, and re-reporting the cold run's timings would
            # contradict the hit's near-zero wall clock in service metadata.
            # When a concurrent evaluation of the same request got there
            # first this call serves that outcome's batch, so every cold
            # request for a page of one query fills the same slots.
            shared = self.cache.setdefault(key, SearchOutcome(
                results=results, snippets=snippets, timings=TimingBreakdown(), from_cache=True
            ))
            results, snippets = shared.results, shared.snippets
        return SearchOutcome(results=results, snippets=snippets, timings=timings)

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def _cache_key(
        self,
        parsed: KeywordQuery,
        size_bound: int,
        limit: int | None,
        construction: ResultConstruction,
    ) -> tuple:
        return (
            self.index.tree.name,
            parsed.keywords,
            self.engine.algorithm,
            size_bound,
            limit,
            construction.value,
        )

    def invalidate_cache(self) -> int:
        """Drop every cached outcome and every memoised root; returns the
        number of query-level entries removed."""
        self.generator.ilist_builder.roots.clear()
        return self.cache.clear()

    def cache_stats(self) -> dict[str, CacheStats]:
        """Snapshots of the counters of the result cache (``query``) and
        the IList builder's root memo (``roots``)."""
        return {
            "query": self.cache.stats_snapshot(),
            "roots": self.generator.ilist_builder.roots.stats_snapshot(),
        }

    def document_stats(self) -> DocumentStats:
        """Statistics of the loaded document."""
        from repro.xmltree.stats import compute_stats

        return compute_stats(self.index.tree)

    @property
    def analyzer(self):
        return self.index.analyzer

    def __repr__(self) -> str:
        return f"<ExtractSystem doc={self.index.tree.name!r} nodes={self.index.tree.size_nodes}>"
