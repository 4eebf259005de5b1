"""The XML keyword search engine façade.

Combines the index, the LCA-family semantics and the result construction
into the object the examples and the end-to-end :class:`repro.ExtractSystem`
use.  The engine is deliberately interchangeable — the paper emphasises that
eXtract "can be used on top of any XML keyword search engine" — so the
snippet generator only ever sees :class:`~repro.search.results.ResultSet`.
"""

from __future__ import annotations

from repro.errors import QueryError, SearchError
from repro.index.builder import DocumentIndex
from repro.search.elca import compute_elca
from repro.search.query import KeywordQuery
from repro.search.ranking import rank_results
from repro.search.results import ResultSet
from repro.search.slca import compute_slca
from repro.search.xseek import ResultConstruction, build_all_results
from repro.utils.timing import TimingBreakdown

#: the supported result-root semantics
ALGORITHMS = ("slca", "elca")


class SearchEngine:
    """Keyword search over one indexed document.

    >>> from repro.xmltree.builder import tree_from_dict
    >>> from repro.index.builder import IndexBuilder
    >>> tree = tree_from_dict("retailer", {
    ...     "name": "Brook Brothers",
    ...     "store": [
    ...         {"name": "Galleria", "state": "Texas", "city": "Houston"},
    ...         {"name": "West Village", "state": "Texas", "city": "Austin"},
    ...     ],
    ... })
    >>> engine = SearchEngine(IndexBuilder().build(tree))
    >>> result_set = engine.search("store texas")
    >>> len(result_set)
    2
    """

    def __init__(
        self,
        index: DocumentIndex,
        algorithm: str = "slca",
        construction: ResultConstruction = ResultConstruction.XSEEK,
    ):
        if algorithm not in ALGORITHMS:
            raise SearchError(f"unknown search algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        self.index = index
        self.algorithm = algorithm
        self.construction = construction
        self.timings = TimingBreakdown()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def search(
        self,
        query: str | KeywordQuery,
        limit: int | None = None,
        construction: ResultConstruction | None = None,
        timings: TimingBreakdown | None = None,
    ) -> ResultSet:
        """Evaluate a keyword query and return ranked results.

        ``limit`` truncates the ranked list (like a result page); ``None``
        returns everything, which the efficiency experiments rely on.  A
        negative ``limit`` is a :class:`QueryError` (as a slice bound it
        would silently drop results from the end of the ranking).

        ``construction`` overrides :attr:`construction` for this call only
        and ``timings`` redirects the phase measurements into a
        caller-owned breakdown.  Both exist so concurrent callers (the
        :mod:`repro.api` service layer) never mutate shared engine state:
        a search with explicit ``construction`` and ``timings`` touches no
        attribute of the engine and is therefore safe to run from many
        threads at once over the same immutable index.
        """
        if limit is not None and limit < 0:
            raise QueryError(f"limit must be a non-negative integer or None, got {limit!r}")
        parsed = query if isinstance(query, KeywordQuery) else KeywordQuery.parse(query)
        effective_construction = construction if construction is not None else self.construction
        breakdown = timings if timings is not None else self.timings

        with breakdown.measure("lookup"):
            posting_lists = [self.index.keyword_matches(keyword) for keyword in parsed.keywords]

        with breakdown.measure("lca"):
            if self.algorithm == "slca":
                roots = compute_slca(posting_lists)
            else:
                roots = compute_elca(posting_lists)

        with breakdown.measure("result_construction"):
            results = build_all_results(
                self.index,
                parsed,
                roots,
                construction=effective_construction,
                postings=dict(zip(parsed.keywords, posting_lists)),
            )

        with breakdown.measure("ranking"):
            ranked = rank_results(results)

        total = len(ranked)
        if limit is not None:
            ranked = ranked[:limit]
            # Explicit invariant: ids on the returned page are always
            # 0..len-1.  Today ``rank_results`` already numbers the full
            # sorted list so this re-assignment is a no-op, but the page
            # contract must not depend on that implementation detail.
            # ``total_results`` records the count before the page cut.
            for position, result in enumerate(ranked):
                result.result_id = position
        return ResultSet(
            query=parsed,
            document_name=self.index.tree.name,
            results=ranked,
            algorithm=self.algorithm,
            total_results=total,
        )

    def __repr__(self) -> str:
        return (
            f"<SearchEngine doc={self.index.tree.name!r} algorithm={self.algorithm} "
            f"construction={self.construction}>"
        )
