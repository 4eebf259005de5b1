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

All three are counts, and the analyzer already knows which feature every
node of the document carries (:attr:`DataAnalyzer.feature_table
<repro.classify.analyzer.DataAnalyzer.feature_table>`), so the statistics
of a result are a count over the slice of that table its subtree spans.
:class:`Feature` objects, display values and instance lists — ``pre`` ids,
which is what the instance selector prices — are made for the features
somebody asks about, not for every feature of the result.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress, count

from repro.classify.analyzer import DataAnalyzer, FeatureKey
from repro.search.results import QueryResult
from repro.utils.text import normalize_value
from repro.xmltree.node import XMLNode


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
    #: ``pre`` ids of the attribute nodes carrying the feature, document order
    instances: list[int] = field(default_factory=list)

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

    Inside, a feature is an int.  ``ids`` holds, for every node of the
    result subtree (position ``i`` is the node at ``pre == start + i``),
    the id of the feature it carries or ``-1``; ``keys[id]`` says what a
    non-negative id stands for, and ids from ``-2`` downwards stand for
    ``local_keys[-2 - id]`` — features that exist only under this result's
    root (see :func:`extract_features`).  The §2.3 quantities are counts
    of those ints; a :class:`Feature`, its display value and its instance
    list are derived for the features a caller names (the dominant ones,
    for the IList) or, by the accessors that enumerate, for all of them.

    The object reads the tables it was given and the nodes of
    ``result.source`` whenever it is asked, and none of them ever changes
    (an update builds new ones), so it describes the document version it
    was computed on for as long as it is kept.
    """

    def __init__(
        self,
        nodes: Sequence[XMLNode],
        start: int,
        ids: list[int],
        keys: Sequence[FeatureKey],
        local_keys: Sequence[FeatureKey] = (),
    ):
        self._nodes = nodes
        self._start = start
        self._ids = ids
        self._keys = keys
        self._local_keys = local_keys
        #: feature id → N(e, a, v), in order of first occurrence
        self._counts: dict[int, int] = Counter(ids)
        self._counts.pop(-1, None)
        self._ids_by_key: dict[FeatureKey, int] | None = None
        #: feature type → [N(e, a), D(e, a)]
        self._types: dict[tuple[str, str], list[int]] = {}
        for feature_id, occurrences in self._counts.items():
            totals = self._types.setdefault(self._key(feature_id)[:2], [0, 0])
            totals[0] += occurrences
            totals[1] += 1

    # ------------------------------------------------------------------ #
    # ids ↔ features
    # ------------------------------------------------------------------ #
    def _key(self, feature_id: int) -> FeatureKey:
        if feature_id >= 0:
            return self._keys[feature_id]
        return self._local_keys[-2 - feature_id]

    def _id_of(self, feature: Feature) -> int | None:
        """The id ``feature`` has in this result; ``None`` when unseen."""
        by_key = self._ids_by_key
        if by_key is None:
            # only callers that ask by feature (experiments, tests) pay for
            # the reverse map; generating a snippet never does
            by_key = self._ids_by_key = {
                self._key(feature_id): feature_id for feature_id in self._counts
            }
        return by_key.get((feature.entity, feature.attribute, feature.value))

    def scored_ids(self) -> list[tuple[int, int, int, int]]:
        """``(feature id, N(e, a, v), N(e, a), D(e, a))`` of every feature,
        in order of first occurrence — what ranking needs, all ints."""
        key, types = self._key, self._types
        return [
            (feature_id, occurrences, *types[key(feature_id)[:2]])
            for feature_id, occurrences in self._counts.items()
        ]

    def occurrences_of_ids(self, feature_ids: Iterable[int]) -> dict[int, FeatureOccurrences]:
        """The occurrence entries of the named features: one pass over the
        result's nodes collects their instances; the display value is the
        text of the first one, as written."""
        instances: dict[int, list[int]] = {feature_id: [] for feature_id in feature_ids}
        if instances:
            for pre, feature_id in enumerate(self._ids, self._start):
                if feature_id in instances:
                    instances[feature_id].append(pre)
        nodes = self._nodes
        entries: dict[int, FeatureOccurrences] = {}
        for feature_id, pres in instances.items():
            entity, attribute, value = self._key(feature_id)
            entries[feature_id] = FeatureOccurrences(
                feature=Feature(entity, attribute, value),
                display_value=(nodes[pres[0]].text or "").strip(),
                instances=pres,
            )
        return entries

    # ------------------------------------------------------------------ #
    # §2.3 quantities
    # ------------------------------------------------------------------ #
    def value_count(self, feature: Feature) -> int:
        """``N(e, a, v)`` — occurrences of the feature value."""
        return self._counts.get(self._id_of(feature), 0)

    def type_count(self, entity: str, attribute: str) -> int:
        """``N(e, a)`` — total occurrences of the feature type."""
        return self._types.get((entity, attribute), (0, 0))[0]

    def domain_size(self, entity: str, attribute: str) -> int:
        """``D(e, a)`` — number of distinct values of the feature type."""
        return self._types.get((entity, attribute), (0, 0))[1]

    def dominance_score(self, feature: Feature) -> float:
        """``DS(f, R)`` as defined in §2.3 (0.0 for unseen features)."""
        type_count = self.type_count(feature.entity, feature.attribute)
        if type_count == 0:
            return 0.0
        domain = self.domain_size(feature.entity, feature.attribute)
        return dominance(self.value_count(feature), type_count, domain)

    def is_dominant(self, feature: Feature) -> bool:
        """Dominant iff ``DS > 1``, or trivially when the domain size is 1."""
        if feature not in self:
            return False
        return is_dominant_score(
            self.dominance_score(feature), self.domain_size(feature.entity, feature.attribute)
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def features(self) -> list[Feature]:
        """All features seen in the result, in order of first occurrence."""
        return [Feature(*self._key(feature_id)) for feature_id in self._counts]

    def feature_types(self) -> list[tuple[str, str]]:
        return list(self._types)

    def occurrences(self, feature: Feature) -> FeatureOccurrences | None:
        feature_id = self._id_of(feature)
        if feature_id is None:
            return None
        return self.occurrences_of_ids([feature_id])[feature_id]

    def all_occurrences(self) -> list[FeatureOccurrences]:
        """The occurrence entry of every feature seen, in order of first
        occurrence."""
        return list(self.occurrences_of_ids(self._counts).values())

    def instances_of(self, feature: Feature) -> list[int]:
        entry = self.occurrences(feature)
        return entry.instances if entry else []

    def display_value(self, feature: Feature) -> str:
        entry = self.occurrences(feature)
        return entry.display_value if entry else feature.value

    def value_statistics(self) -> dict[tuple[str, str], list[tuple[str, int]]]:
        """Per feature type, the (value, count) list sorted by count.

        This is exactly the statistics panel of Figure 1 (``city: Houston:
        6`` etc.), used by the Figure 1 reproduction benchmark.
        """
        table: dict[tuple[str, str], list[tuple[str, int]]] = {}
        for entry in self.all_occurrences():
            table.setdefault(entry.feature.feature_type, []).append(
                (entry.display_value, entry.count)
            )
        for values in table.values():
            values.sort(key=lambda pair: (-pair[1], pair[0]))
        return table

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, feature: Feature) -> bool:
        return self._id_of(feature) is not None

    def __repr__(self) -> str:
        return f"<FeatureStatistics features={len(self._counts)} types={len(self._types)}>"


def extract_features(analyzer: DataAnalyzer, result: QueryResult) -> FeatureStatistics:
    """Extract the feature statistics of one query result.

    Every *attribute* instance inside the result subtree whose nearest
    ancestor entity also lies inside the result contributes one occurrence
    of the feature ``(owning entity tag, attribute tag, value)``.
    Attributes that hang off connection nodes only (no owning entity, e.g.
    directly under the document root), or whose owning entity lies above
    the result root, are attributed to the result root's tag so flat
    documents and results rooted below their entity still produce features.

    For a result of the analyzer's own tree this is a count over the slice
    ``[root.pre, root.pre + size)`` of the analyzer's feature table.  The
    table names a feature by the tag of the node's owning entity wherever
    that entity is, so the nodes whose owner is not inside the result are
    re-keyed to the root's tag first.  Inside one subtree those are
    exactly the nodes whose owner is the root's own owner — for an entity
    root that is the root itself and there is nothing to re-key; only a
    root that is not an entity (a whole-document result, say) pays the
    pass.  A root of any other tree is walked node by node instead, with
    the same outcome.
    """
    root = result.root_node
    start = root.pre
    nodes = result.source.nodes_by_pre
    if not analyzer.covers(root):
        return FeatureStatistics(nodes, start, *_walked_feature_ids(analyzer, root))
    table = analyzer.feature_table
    owners = analyzer.node_owners
    end = root.post + root.level + 1  # = start + subtree size
    ids = table.ids[start:end]
    local_keys: list[FeatureKey] = []
    above = owners[start]
    if above != start:
        # Not an entity: the nodes owned from above (or by nobody) belong
        # to the root's tag.  A re-keyed feature may be one the table
        # already knows — a nested entity with the root's tag owns the
        # same attribute and value — and then it is that feature.
        root_tag = root.tag
        rekeyed: dict[int, int] = {-1: -1}
        loose = compress(count(), map(above.__eq__, owners[start:end]))
        for offset in loose:
            table_id = ids[offset]
            local_id = rekeyed.get(table_id)
            if local_id is None:
                key = (root_tag, *table.keys[table_id][1:])
                local_id = table.id_of.get(key)
                if local_id is None:
                    local_id = -2 - len(local_keys)
                    local_keys.append(key)
                rekeyed[table_id] = local_id
            ids[offset] = local_id
    return FeatureStatistics(nodes, start, ids, table.keys, local_keys)


def _walked_feature_ids(
    analyzer: DataAnalyzer, root: XMLNode
) -> tuple[list[int], list[FeatureKey]]:
    """Per node of the subtree under ``root`` (document order) the id of
    its feature, and what the ids stand for — for a root the analyzer's
    tables do not hold: every node is classified by its tag path and its
    owner found by walking up."""
    ids: list[int] = []
    keys: list[FeatureKey] = []
    id_of: dict[FeatureKey, int] = {}
    root_depth = root.level
    for node in root.iter_subtree():
        feature_id = -1
        raw = node.text
        if raw and analyzer.is_attribute(node):
            value = normalize_value(raw)
            if value:
                owner = analyzer.owning_entity(node)
                inside = owner is not None and owner.level >= root_depth
                key = (owner.tag if inside else root.tag, node.tag, value)
                feature_id = id_of.get(key)
                if feature_id is None:
                    feature_id = id_of[key] = len(keys)
                    keys.append(key)
        ids.append(feature_id)
    return ids, keys
