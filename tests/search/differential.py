"""Holding the int search path to the frozen label oracle.

``assert_search_matches_reference`` runs one query through
:class:`~repro.search.engine.SearchEngine` and through
:func:`tests.search.reference_lca.reference_search` — which reads nothing
but the tree and the analyzer — and requires the same ranked list: same
roots, same matches per keyword, same scores, same order, ties included.
"""

from __future__ import annotations

from repro.index.builder import DocumentIndex
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.xseek import ResultConstruction
from tests.search.reference_lca import reference_search

ALGORITHMS = ("slca", "elca")
CONSTRUCTIONS = tuple(ResultConstruction)


def assert_search_matches_reference(
    index: DocumentIndex,
    keywords: tuple[str, ...],
    algorithm: str,
    construction: ResultConstruction,
) -> None:
    query = KeywordQuery.parse(" ".join(keywords))
    engine = SearchEngine(index, algorithm=algorithm, construction=construction)
    ranked = engine.search(query)
    expected = reference_search(
        index.tree, index.analyzer, query.keywords, algorithm, construction.value
    )
    context = (index.tree.name, query.keywords, algorithm, construction.value)
    assert [str(result.root) for result in ranked] == [
        str(result.root) for result in expected
    ], context
    for position, (result, reference) in enumerate(zip(ranked, expected)):
        assert result.result_id == position, context
        assert result.score == reference.score, context
        nodes = index.tree.nodes_by_pre
        assert {
            keyword: tuple(nodes[pre].dewey for pre in ids)
            for keyword, ids in result.matches.items()
        } == reference.matches, context
        assert result.size_nodes == reference.size_nodes, context
