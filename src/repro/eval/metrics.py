"""Snippet quality metrics.

The paper's four goals give the metric set:

* **self-containment** — the snippet shows the names of the entities that
  occur in the result (and the return entity in particular),
* **distinguishability** — the snippet contains the key of the query
  result, and snippets of different results differ,
* **representativeness** — the snippet captures the dominant features; we
  measure the share of dominant-feature "mass" (dominance scores) covered,
* **size** — the snippet respects the edge bound (hard constraint) and the
  overall IList coverage it achieves within that bound.

All metrics are computed from a :class:`GeneratedSnippet`, so eXtract and
every tree-producing baseline are measured identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.snippet.distinct import snippet_signature
from repro.snippet.generator import GeneratedSnippet
from repro.snippet.ilist import ItemKind


@dataclass
class SnippetQuality:
    """Quality measurements of one snippet."""

    size_edges: int
    size_bound: int
    ilist_coverage: float
    keyword_coverage: float
    entity_name_coverage: float
    has_result_key: bool
    dominant_feature_coverage: float
    dominance_mass_coverage: float

    @property
    def within_bound(self) -> bool:
        return self.size_edges <= self.size_bound

    def as_dict(self) -> dict[str, float]:
        return {
            "size_edges": float(self.size_edges),
            "ilist_coverage": self.ilist_coverage,
            "keyword_coverage": self.keyword_coverage,
            "entity_name_coverage": self.entity_name_coverage,
            "has_result_key": 1.0 if self.has_result_key else 0.0,
            "dominant_feature_coverage": self.dominant_feature_coverage,
            "dominance_mass_coverage": self.dominance_mass_coverage,
        }


def _kind_coverage(generated: GeneratedSnippet, kind: ItemKind) -> tuple[float, int, int]:
    items = [item for item in generated.ilist.items_of_kind(kind) if item.has_instances]
    if not items:
        return 1.0, 0, 0
    covered = sum(1 for item in items if generated.snippet.covers(item.identity))
    return covered / len(items), covered, len(items)


def evaluate_snippet(generated: GeneratedSnippet) -> SnippetQuality:
    """Compute the quality metrics of one generated snippet."""
    coverable = generated.ilist.coverable_items()
    ilist_coverage = (
        len(generated.snippet.covered_items) / len(coverable) if coverable else 1.0
    )
    keyword_coverage, _, _ = _kind_coverage(generated, ItemKind.KEYWORD)
    entity_coverage, _, _ = _kind_coverage(generated, ItemKind.ENTITY_NAME)
    key_items = [item for item in generated.ilist.items_of_kind(ItemKind.RESULT_KEY) if item.has_instances]
    has_key = bool(key_items) and any(
        generated.snippet.covers(item.identity) for item in key_items
    )

    feature_items = [
        item for item in generated.ilist.items_of_kind(ItemKind.DOMINANT_FEATURE) if item.has_instances
    ]
    if feature_items:
        covered_features = [item for item in feature_items if generated.snippet.covers(item.identity)]
        feature_coverage = len(covered_features) / len(feature_items)
        total_mass = sum(item.score for item in feature_items)
        covered_mass = sum(item.score for item in covered_features)
        mass_coverage = covered_mass / total_mass if total_mass > 0 else 1.0
    else:
        feature_coverage = 1.0
        mass_coverage = 1.0

    return SnippetQuality(
        size_edges=generated.snippet.size_edges,
        size_bound=generated.size_bound,
        ilist_coverage=ilist_coverage,
        keyword_coverage=keyword_coverage,
        entity_name_coverage=entity_coverage,
        has_result_key=has_key,
        dominant_feature_coverage=feature_coverage,
        dominance_mass_coverage=mass_coverage,
    )


def distinguishability(snippets: list[GeneratedSnippet]) -> float:
    """Fraction of snippet pairs with different visible content.

    The paper's distinguishability goal: a user must be able to tell the
    results of one query apart by their snippets alone.  1.0 means every
    pair differs; 0.0 means all snippets look identical.
    """
    if len(snippets) < 2:
        return 1.0
    signatures = [snippet_signature(generated) for generated in snippets]
    pairs = 0
    distinct = 0
    for first in range(len(signatures)):
        for second in range(first + 1, len(signatures)):
            pairs += 1
            if signatures[first] != signatures[second]:
                distinct += 1
    return distinct / pairs if pairs else 1.0


def mean(values: list[float]) -> float:
    """Arithmetic mean (0.0 for an empty list) — tiny helper for reports."""
    return sum(values) / len(values) if values else 0.0
