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
from repro.errors import SearchError
from repro.index.builder import DocumentIndex
from repro.index.postings import PostingList
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult


class ResultConstruction(str, Enum):
    """How a result root is expanded into a result tree."""

    MATCH_PATHS = "match_paths"
    SUBTREE = "subtree"
    XSEEK = "xseek"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def promote_to_entity_root(analyzer: DataAnalyzer, root: int) -> int:
    """Promote a result root to the nearest ancestor-or-self entity node
    (``pre`` id in, ``pre`` id out).

    When no ancestor entity exists (flat documents), the original root is
    kept — the result is then whatever subtree the LCA semantics chose.
    """
    owner = analyzer.node_owners[root]
    return owner if owner >= 0 else root


def build_result_tree(
    index: DocumentIndex,
    query: KeywordQuery,
    root: int,
    construction: ResultConstruction = ResultConstruction.XSEEK,
    result_id: int = 0,
    postings: dict[str, PostingList] | None = None,
) -> QueryResult:
    """Build one :class:`QueryResult` for a result root (a ``pre`` id of
    ``index.tree``): :func:`build_all_results` for a single root."""
    (result,) = build_all_results(index, query, [root], construction, postings)
    result.result_id = result_id
    return result


class _MatchPathResult(QueryResult):
    """A query result materialised as the match-paths projection."""

    def _kept(self) -> list[int]:
        """The ``pre`` ids of the projection: the root, the matches, the
        paths between them and everything below a match."""
        return self.source.projection_ids([self.root_node.pre, *self.all_matches()])

    def to_tree(self):  # type: ignore[override]
        return self.source.copy_nodes(self._kept())

    @property
    def size_nodes(self) -> int:  # type: ignore[override]
        return len(self._kept())


def build_all_results(
    index: DocumentIndex,
    query: KeywordQuery,
    roots: list[int],
    construction: ResultConstruction = ResultConstruction.XSEEK,
    postings: dict[str, PostingList] | None = None,
) -> list[QueryResult]:
    """Expand every result root (``pre`` ids of ``index.tree``) into a
    result; de-duplicates roots that promote to the same entity (two SLCAs
    inside one store must not produce two identical results).

    The per-keyword matches recorded in a result are restricted to the
    chosen result subtree, so downstream consumers (ranking, snippet
    generation) never see matches that fall outside the result.  For
    ``MATCH_PATHS`` the result is conceptually the projection tree: it
    keeps the root plus matches, and ``to_tree()`` materialises the
    paths-only projection lazily.

    Every keyword's posting list is fetched once for the whole result
    set, not once per result: from ``postings`` — :meth:`SearchEngine.
    search <repro.search.engine.SearchEngine.search>` hands over the lists
    it computed the roots from, and then the index is not consulted at all
    — or else by one index lookup.  (A keyword indexed under both its
    plural and its singular form costs a union of the two lists per
    lookup.)  Cutting a result's matches out of a list is two bisects and
    a slice, so construction is O(results · log postings + matches).
    """
    tree = index.tree
    nodes = tree.nodes_by_pre
    if roots and not 0 <= min(roots) <= max(roots) < len(nodes):
        raise SearchError(
            f"result roots {min(roots)}..{max(roots)} lie outside the "
            f"{len(nodes)}-node tree {tree.name!r}"
        )
    held = postings or {}
    lists = [
        (keyword, held[keyword] if keyword in held else index.keyword_matches(keyword))
        for keyword in query.keywords
    ]
    if any(keyword_postings.shape is not tree.shape for _, keyword_postings in lists):
        raise SearchError(f"posting lists of another tree than {tree.name!r}")
    if construction == ResultConstruction.XSEEK:
        analyzer = index.analyzer
        roots = [promote_to_entity_root(analyzer, root) for root in roots]
    result_type = (
        _MatchPathResult if construction == ResultConstruction.MATCH_PATHS else QueryResult
    )
    results: list[QueryResult] = []
    seen_roots: set[int] = set()
    for root in roots:
        if root in seen_roots:
            continue
        seen_roots.add(root)
        results.append(
            result_type(
                query=query,
                source=tree,
                root_node=nodes[root],
                matches={
                    keyword: keyword_postings.descendants_of(root)
                    for keyword, keyword_postings in lists
                },
                result_id=len(results),
            )
        )
    return results
