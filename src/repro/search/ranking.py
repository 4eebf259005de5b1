"""Result ranking.

Snippet generation is orthogonal to ranking (§1, §4), but the end-to-end
system needs *some* ordering to present results, and the user-study
simulation needs a plausible (imperfect!) ranking to demonstrate the
paper's motivation: rankings are never perfect, snippets let users recover.

The score combines three standard signals:

* keyword coverage — fraction of query keywords matched in the result,
* inverse match span — matches that are close together (small LCA subtree
  relative to the result) score higher, following the proximity intuition
  of XRANK and XSearch,
* specificity — smaller result trees score (slightly) higher, because a
  match confined to a tight entity is usually more on-topic than one
  scattered across a huge subtree.
"""

from __future__ import annotations

import math

from repro.search.results import QueryResult

#: weights of the three ranking signals; coverage dominates.
COVERAGE_WEIGHT = 10.0
PROXIMITY_WEIGHT = 2.0
SPECIFICITY_WEIGHT = 1.0


def score_result(result: QueryResult) -> float:
    """Compute the ranking score of one result (higher is better)."""
    total_keywords = max(1, len(result.query.keywords))
    # each keyword's matches are sorted ``pre`` ids: the first is its
    # earliest node in document order, the last its latest
    matched = [ids for ids in result.matches.values() if len(ids)]
    coverage = len(matched) / total_keywords

    proximity = 0.0
    if matched:
        first = min([ids[0] for ids in matched])
        last = max([ids[-1] for ids in matched])
        if first == last:  # one distinct match
            proximity = 1.0
        else:
            # the LCA of a set of nodes is the LCA of its two extremes
            shape = result.source.shape
            level_of = shape.level.__getitem__
            deepest = max([max(map(level_of, ids)) for ids in matched])
            span = deepest - level_of(shape.lca(first, last))
            proximity = 1.0 / (1.0 + span)

    specificity = 1.0 / (1.0 + math.log1p(max(1, result.size_nodes)))

    return (
        COVERAGE_WEIGHT * coverage
        + PROXIMITY_WEIGHT * proximity
        + SPECIFICITY_WEIGHT * specificity
    )


def rank_results(results: list[QueryResult]) -> list[QueryResult]:
    """Score and sort results (stable for equal scores, best first).

    Each result's ``score`` attribute is updated in place; ``result_id`` is
    reassigned to the final rank position so snippets and result links
    agree on numbering.
    """
    for result in results:
        result.score = score_result(result)
    ordered = sorted(results, key=lambda result: -result.score)
    for rank, result in enumerate(ordered):
        result.result_id = rank
    return ordered
