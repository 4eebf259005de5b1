"""Dominant Feature Identifier (§2.3, Figure 4).

"Dominant Feature Identifier traverses the query result and calculates the
dominance score for each feature.  Then dominant features are identified
according to their dominance scores."

A feature is dominant when its dominance score exceeds 1 — i.e. it occurs
more often than the average value of its feature type — with the single
exception of types whose domain size is 1, which are trivially dominant at
score exactly 1 (§2.3).  Dominant features enter the IList in decreasing
score order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify.analyzer import DataAnalyzer
from repro.search.results import QueryResult
from repro.snippet.features import (
    Feature,
    FeatureStatistics,
    dominance,
    extract_features,
    is_dominant_score,
)


@dataclass
class ScoredFeature:
    """A feature together with its §2.3 statistics inside one result."""

    feature: Feature
    display_value: str
    score: float
    value_count: int
    type_count: int
    domain_size: int
    #: ``pre`` ids of the attribute nodes carrying the feature, document order
    instances: list[int]

    @property
    def is_trivially_dominant(self) -> bool:
        """Dominant only because its type has a single value (D = 1)."""
        return self.domain_size == 1

    def __repr__(self) -> str:
        return f"<ScoredFeature {self.feature} DS={self.score:.2f} n={self.value_count}>"


class DominantFeatureIdentifier:
    """Computes dominance scores and ranks the dominant features."""

    def __init__(self, analyzer: DataAnalyzer):
        self.analyzer = analyzer

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def score_all(
        self, result: QueryResult, statistics: FeatureStatistics | None = None
    ) -> list[ScoredFeature]:
        """Score every feature of the result (dominant or not).

        Features are returned in decreasing score order; ties break by
        value count (more occurrences first) and then alphabetically so
        the ordering — and hence the IList — is deterministic.
        """
        return self._ranked(result, statistics, dominant_only=False)

    def _ranked(
        self, result: QueryResult, statistics: FeatureStatistics | None, dominant_only: bool
    ) -> list[ScoredFeature]:
        statistics = statistics if statistics is not None else extract_features(self.analyzer, result)
        # Scored as ints; only the features that stay get a Feature, a
        # display value and an instance list.
        kept = {}
        for feature_id, value_count, type_count, domain_size in statistics.scored_ids():
            score = dominance(value_count, type_count, domain_size)
            if not dominant_only or is_dominant_score(score, domain_size):
                kept[feature_id] = (score, value_count, type_count, domain_size)
        scored = [
            ScoredFeature(entry.feature, entry.display_value, *kept[feature_id], entry.instances)
            for feature_id, entry in statistics.occurrences_of_ids(kept).items()
        ]
        scored.sort(key=lambda item: (-item.score, -item.value_count, str(item.feature)))
        return scored

    def identify(
        self, result: QueryResult, statistics: FeatureStatistics | None = None
    ) -> list[ScoredFeature]:
        """The dominant features of the result, best first.

        >>> # dominance requires DS > 1, or a domain of size 1
        """
        return self._ranked(result, statistics, dominant_only=True)

    def dominance_table(
        self, result: QueryResult, statistics: FeatureStatistics | None = None
    ) -> dict[str, float]:
        """value → dominance score for every feature (used by tests/F3).

        When the same display value appears under several feature types
        (rare), the highest score wins, which matches how the paper refers
        to features "by value when there is no ambiguity".
        """
        table: dict[str, float] = {}
        for scored in self.score_all(result, statistics):
            key = scored.feature.value
            if key not in table or scored.score > table[key]:
                table[key] = scored.score
        return table
