"""Features of a query result and their occurrence statistics (§2.3).

A *feature* is a triplet ``(entity name e, attribute name a, attribute
value v)``: entity ``e`` has an attribute ``a`` with value ``v``.  The pair
``(e, a)`` is the feature *type*; ``v`` is the feature *value*.

For a query result ``R`` the dominance score of a feature ``f = (e, a, v)``
is::

                         N(e, a, v)
    DS(f, R)  =  ─────────────────────────
                   N(e, a)  /  D(e, a)

where ``N(e, a, v)`` is the number of occurrences of the value, ``N(e, a)``
the total number of occurrences of the type and ``D(e, a)`` the number of
distinct values of the type inside ``R`` — i.e. the value's frequency
normalised by the average frequency of values of the same type.

This module extracts all features of a result together with the node
instances carrying each feature (needed later by the instance selector).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.classify.analyzer import DataAnalyzer, SubtreeScan
from repro.search.results import QueryResult
from repro.utils.text import normalize_value
from repro.xmltree.dewey import Dewey


@dataclass(frozen=True)
class Feature:
    """A feature triple ``(entity, attribute, value)``.

    The value is stored in normalised form (lower-cased, whitespace
    collapsed) so that ``Houston`` and ``houston`` are one feature; the
    display form of the first occurrence is kept separately by
    :class:`FeatureStatistics`.
    """

    entity: str
    attribute: str
    value: str

    @property
    def feature_type(self) -> tuple[str, str]:
        return (self.entity, self.attribute)

    def __str__(self) -> str:
        return f"({self.entity}, {self.attribute}, {self.value})"


@dataclass
class FeatureOccurrences:
    """All occurrences of one feature inside a query result."""

    feature: Feature
    display_value: str
    instances: list[Dewey] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.instances)


def dominance(value_count: int, type_count: int, domain_size: int) -> float:
    """``N(e, a, v) / (N(e, a) / D(e, a))`` for a type seen at least once."""
    average = type_count / domain_size
    return value_count / average


def is_dominant_score(score: float, domain_size: int) -> bool:
    """Dominant iff ``DS > 1``, or trivially when the domain size is 1."""
    return domain_size == 1 or score > 1.0


class FeatureStatistics:
    """Occurrence statistics of every feature of one query result.

    Provides exactly the quantities of §2.3: ``N(e, a, v)``, ``N(e, a)``,
    ``D(e, a)`` and the dominance score, plus the instance lists the
    instance selector needs.
    """

    def __init__(self) -> None:
        self._occurrences: dict[Feature, FeatureOccurrences] = {}
        self._type_counts: dict[tuple[str, str], int] = defaultdict(int)
        self._type_values: dict[tuple[str, str], set[str]] = defaultdict(set)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_occurrence(self, entity: str, attribute: str, raw_value: str, instance: Dewey) -> None:
        """Record one attribute instance carrying one feature value."""
        entry = self._entry_for(entity, attribute, raw_value)
        if entry is not None:
            self._record(entry, instance)

    def _entry_for(
        self, entity: str, attribute: str, raw_value: str
    ) -> FeatureOccurrences | None:
        """The occurrence entry of the feature ``raw_value`` denotes.

        Created (empty, with this raw value as its display form) the first
        time the feature is seen; ``None`` when the value normalises to
        nothing and so denotes no feature.  Always followed by
        :meth:`_record`: an entry holds at least one instance.
        """
        value = normalize_value(raw_value)
        if not value:
            return None
        feature = Feature(entity=entity, attribute=attribute, value=value)
        entry = self._occurrences.get(feature)
        if entry is None:
            entry = FeatureOccurrences(feature=feature, display_value=raw_value.strip())
            self._occurrences[feature] = entry
            self._type_values[(entity, attribute)].add(value)
        return entry

    def _record(self, entry: FeatureOccurrences, instance: Dewey) -> None:
        """Count one more instance of the feature behind ``entry``."""
        entry.instances.append(instance)
        self._type_counts[entry.feature.feature_type] += 1

    # ------------------------------------------------------------------ #
    # §2.3 quantities
    # ------------------------------------------------------------------ #
    def value_count(self, feature: Feature) -> int:
        """``N(e, a, v)`` — occurrences of the feature value."""
        entry = self._occurrences.get(feature)
        return entry.count if entry else 0

    def type_count(self, entity: str, attribute: str) -> int:
        """``N(e, a)`` — total occurrences of the feature type."""
        return self._type_counts.get((entity, attribute), 0)

    def domain_size(self, entity: str, attribute: str) -> int:
        """``D(e, a)`` — number of distinct values of the feature type."""
        return len(self._type_values.get((entity, attribute), ()))

    def dominance_score(self, feature: Feature) -> float:
        """``DS(f, R)`` as defined in §2.3 (0.0 for unseen features)."""
        type_count = self.type_count(feature.entity, feature.attribute)
        if type_count == 0:
            return 0.0
        domain = self.domain_size(feature.entity, feature.attribute)
        return dominance(self.value_count(feature), type_count, domain)

    def is_dominant(self, feature: Feature) -> bool:
        """Dominant iff ``DS > 1``, or trivially when the domain size is 1."""
        if feature not in self._occurrences:
            return False
        return is_dominant_score(
            self.dominance_score(feature), self.domain_size(feature.entity, feature.attribute)
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def features(self) -> list[Feature]:
        """All features seen in the result (unordered)."""
        return list(self._occurrences)

    def feature_types(self) -> list[tuple[str, str]]:
        return list(self._type_counts)

    def occurrences(self, feature: Feature) -> FeatureOccurrences | None:
        return self._occurrences.get(feature)

    def all_occurrences(self) -> list[FeatureOccurrences]:
        """The occurrence entry of every feature seen (unordered)."""
        return list(self._occurrences.values())

    def instances_of(self, feature: Feature) -> list[Dewey]:
        entry = self._occurrences.get(feature)
        return list(entry.instances) if entry else []

    def display_value(self, feature: Feature) -> str:
        entry = self._occurrences.get(feature)
        return entry.display_value if entry else feature.value

    def value_statistics(self) -> dict[tuple[str, str], list[tuple[str, int]]]:
        """Per feature type, the (value, count) list sorted by count.

        This is exactly the statistics panel of Figure 1 (``city: Houston:
        6`` etc.), used by the Figure 1 reproduction benchmark.
        """
        table: dict[tuple[str, str], list[tuple[str, int]]] = {}
        for feature, entry in self._occurrences.items():
            table.setdefault(feature.feature_type, []).append((entry.display_value, entry.count))
        for values in table.values():
            values.sort(key=lambda pair: (-pair[1], pair[0]))
        return table

    def __len__(self) -> int:
        return len(self._occurrences)

    def __contains__(self, feature: Feature) -> bool:
        return feature in self._occurrences

    def __repr__(self) -> str:
        return f"<FeatureStatistics features={len(self._occurrences)} types={len(self._type_counts)}>"


def extract_features(
    analyzer: DataAnalyzer, result: QueryResult, scan: SubtreeScan | None = None
) -> FeatureStatistics:
    """Extract the feature statistics of one query result.

    Every *attribute* instance inside the result subtree whose nearest
    ancestor entity also lies inside the result contributes one occurrence
    of the feature ``(owning entity tag, attribute tag, value)``.
    Attributes that hang off connection nodes only (no owning entity, e.g.
    directly under the document root), or whose owning entity lies above
    the result root, are attributed to the result root's tag so flat
    documents and results rooted below their entity still produce features.

    ``scan`` is the analyzer's scan of the result subtree when the caller
    already has one (the IList builder shares a single scan between the
    feature, return-entity and entity-name steps).
    """
    if scan is None:
        scan = analyzer.scan_subtree(result.root_node)
    statistics = FeatureStatistics()
    root_tag = result.root_node.tag
    # A result repeats few distinct (entity, attribute, raw value) triples
    # many times; each is normalised and looked up once.
    entries: dict[tuple[str, str, str], FeatureOccurrences | None] = {}
    for node, owner in scan.attributes:
        raw_value = node.text
        if not raw_value:
            continue
        # The attribute describes its nearest entity: nested entities own
        # their own attributes (a clothes' category is a clothes feature,
        # not a store feature).
        key = (owner.tag if owner is not None else root_tag, node.tag, raw_value)
        if key in entries:
            entry = entries[key]
        else:
            entry = entries[key] = statistics._entry_for(*key)
        if entry is not None:
            statistics._record(entry, node.dewey)
    return statistics
