"""XSeek-style query result construction.

The demo uses XSeek [Liu & Chen, SIGMOD 2007] to turn result roots (SLCA or
ELCA nodes) into self-contained *result trees* — the input eXtract's
snippet generator summarises (the Figure 1 fragment is such a result tree).

Three construction strategies are provided; ``XSEEK`` is the default and
matches what the paper's Figure 1 shows (a full entity subtree):

* ``MATCH_PATHS`` — the minimal connected tree spanning the result root
  and the keyword matches (the "paths-only" semantics of many LCA
  engines); compact but not self-contained.
* ``SUBTREE`` — the full subtree rooted at the result root.
* ``XSEEK`` — the full subtree rooted at the *owning entity* of the result
  root: if the result root itself is not an entity (e.g. the SLCA lands on
  a connection node such as ``merchandises``), the root is promoted to the
  nearest ancestor entity so the result is a meaningful, self-contained
  information unit.  Attributes of that entity are always present because
  the whole subtree is kept.
"""

from __future__ import annotations

from enum import Enum

from repro.classify.analyzer import DataAnalyzer
from repro.index.builder import DocumentIndex
from repro.index.postings import PostingList
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.xmltree.dewey import Dewey


class ResultConstruction(str, Enum):
    """How a result root is expanded into a result tree."""

    MATCH_PATHS = "match_paths"
    SUBTREE = "subtree"
    XSEEK = "xseek"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def promote_to_entity_root(analyzer: DataAnalyzer, root: Dewey) -> Dewey:
    """Promote a result root to the nearest ancestor-or-self entity node.

    When no ancestor entity exists (flat documents), the original root is
    kept — the result is then whatever subtree the LCA semantics chose.
    """
    node = analyzer.tree.node(root)
    owning = analyzer.owning_entity(node)
    if owning is None:
        return root
    return owning.dewey


def build_result_tree(
    index: DocumentIndex,
    query: KeywordQuery,
    root: Dewey,
    construction: ResultConstruction = ResultConstruction.XSEEK,
    result_id: int = 0,
    postings: dict[str, PostingList] | None = None,
) -> QueryResult:
    """Build one :class:`QueryResult` for a result root label.

    The per-keyword match labels recorded in the result are restricted to
    the chosen result subtree, so downstream consumers (ranking, snippet
    generation) never see matches that fall outside the result.

    ``postings`` maps keywords to posting lists the caller already holds;
    a keyword absent from it is looked up in the index.  Cutting a result's
    matches out of a list is a binary search plus the matches themselves.
    """
    tree = index.tree
    if construction == ResultConstruction.XSEEK:
        root = promote_to_entity_root(index.analyzer, root)

    matches: dict[str, tuple[Dewey, ...]] = {}
    for keyword in query.keywords:
        keyword_postings = postings.get(keyword) if postings is not None else None
        if keyword_postings is None:
            keyword_postings = index.keyword_matches(keyword)
        matches[keyword] = tuple(keyword_postings.descendants_of(root, tree.order))

    if construction == ResultConstruction.MATCH_PATHS:
        # The result is conceptually the projection tree; we keep the root
        # reference plus matches, and to_tree() materialises the paths-only
        # projection lazily via the dedicated helper below.
        result = _MatchPathResult(
            query=query, source=tree, root=root, matches=matches, result_id=result_id
        )
    else:
        result = QueryResult(
            query=query, source=tree, root=root, matches=matches, result_id=result_id
        )
    return result


class _MatchPathResult(QueryResult):
    """A query result materialised as the match-paths projection."""

    def to_tree(self):  # type: ignore[override]
        labels = self.all_match_labels() or [self.root]
        labels.append(self.root)
        projection, _ = self.source.extract_projection(labels)
        return projection

    @property
    def size_nodes(self) -> int:  # type: ignore[override]
        return self.to_tree().size_nodes

    @property
    def size_edges(self) -> int:  # type: ignore[override]
        return self.to_tree().size_edges


def build_all_results(
    index: DocumentIndex,
    query: KeywordQuery,
    roots: list[Dewey],
    construction: ResultConstruction = ResultConstruction.XSEEK,
    postings: dict[str, PostingList] | None = None,
) -> list[QueryResult]:
    """Expand every result root; de-duplicates roots that promote to the
    same entity (two SLCAs inside one store must not produce two identical
    results).

    Every keyword's posting list is fetched once for the whole result
    set, not once per result: from ``postings`` — :meth:`SearchEngine.
    search <repro.search.engine.SearchEngine.search>` hands over the lists
    it computed the roots from, and then the index is not consulted at all
    — or else by one index lookup.  (A keyword indexed under both its
    plural and its singular form costs a union and a sort of the whole
    list per lookup.)  Construction is therefore O(results · log postings
    + matches).
    """
    held = postings or {}
    postings = {
        keyword: held[keyword] if keyword in held else index.keyword_matches(keyword)
        for keyword in query.keywords
    }
    results: list[QueryResult] = []
    seen_roots: set[Dewey] = set()
    for root in roots:
        effective_root = (
            promote_to_entity_root(index.analyzer, root)
            if construction == ResultConstruction.XSEEK
            else root
        )
        if effective_root in seen_roots:
            continue
        seen_roots.add(effective_root)
        results.append(
            build_result_tree(
                index,
                query,
                effective_root,
                construction=ResultConstruction.SUBTREE
                if construction == ResultConstruction.XSEEK
                else construction,
                result_id=len(results),
                postings=postings,
            )
        )
    return results
