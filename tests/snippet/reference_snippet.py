"""The label-based snippet pipeline, frozen — a test-only oracle.

Until snippet generation moved to ``pre`` ids, ``extract_features`` walked
every attribute of a result and normalised its value, built a ``Feature``
and an occurrence entry with a Dewey instance list for every distinct
feature, and the snippet tree turned every instance label back into its
node before pricing it.  This module is that code as it stood — feature
extraction and statistics, return-entity and result-key identification,
dominant-feature ranking, IList construction, the snippet tree, the greedy
selector and the text rendering — with the subtree scan spelled as the
walk it replaced (category by tag path, owner by an ancestor walk), so it
reads nothing of the analyzer but its schema-level classification and
entity types.  Nothing under ``src/`` imports it: the differential suites
hold the ``pre`` implementation to it, result by result.

Instances are :class:`~repro.xmltree.dewey.Dewey` labels throughout; the
comparison derives labels from the ids of the implementation under test.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.classify.analyzer import DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.errors import InvalidSizeBoundError, SnippetError
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.snippet.features import Feature
from repro.utils.text import matches_keyword, normalize_token, normalize_value, singularize
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


# ---------------------------------------------------------------------- #
# the subtree scan, as walks
# ---------------------------------------------------------------------- #
def _is(analyzer: DataAnalyzer, node: XMLNode, category: NodeCategory) -> bool:
    return analyzer.category_of_path(node.tag_path) == category


def _owning_entity(analyzer: DataAnalyzer, node: XMLNode) -> XMLNode | None:
    for candidate in node.iter_ancestors(include_self=True):
        if _is(analyzer, candidate, NodeCategory.ENTITY):
            return candidate
    return None


def _contains(result: QueryResult, label: Dewey) -> bool:
    return result.root_node.dewey.is_ancestor_or_self(label) and result.source.has_node(label)


def reference_scan(
    analyzer: DataAnalyzer, root: XMLNode
) -> tuple[list[XMLNode], list[tuple[XMLNode, XMLNode | None]]]:
    """Entities (the root always counts) and ``(attribute, owner)`` pairs of
    the subtree, document order; an owner above the root reads ``None``."""
    entities: list[XMLNode] = []
    attributes: list[tuple[XMLNode, XMLNode | None]] = []
    root_depth = root.dewey.depth
    for node in root.iter_subtree():
        if node is root or _is(analyzer, node, NodeCategory.ENTITY):
            entities.append(node)
        if _is(analyzer, node, NodeCategory.ATTRIBUTE):
            owner = _owning_entity(analyzer, node)
            if owner is not None and owner.dewey.depth < root_depth:
                owner = None
            attributes.append((node, owner))
    return entities, attributes


# ---------------------------------------------------------------------- #
# features (§2.3)
# ---------------------------------------------------------------------- #
@dataclass
class ReferenceOccurrences:
    feature: Feature
    display_value: str
    instances: list[Dewey] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.instances)


def _dominance(value_count: int, type_count: int, domain_size: int) -> float:
    average = type_count / domain_size
    return value_count / average


def _is_dominant_score(score: float, domain_size: int) -> bool:
    return domain_size == 1 or score > 1.0


class ReferenceStatistics:
    """Occurrence statistics of every feature of one query result."""

    def __init__(self) -> None:
        self._occurrences: dict[Feature, ReferenceOccurrences] = {}
        self._type_counts: dict[tuple[str, str], int] = defaultdict(int)
        self._type_values: dict[tuple[str, str], set[str]] = defaultdict(set)

    def _entry_for(
        self, entity: str, attribute: str, raw_value: str
    ) -> ReferenceOccurrences | None:
        value = normalize_value(raw_value)
        if not value:
            return None
        feature = Feature(entity=entity, attribute=attribute, value=value)
        entry = self._occurrences.get(feature)
        if entry is None:
            entry = ReferenceOccurrences(feature=feature, display_value=raw_value.strip())
            self._occurrences[feature] = entry
            self._type_values[(entity, attribute)].add(value)
        return entry

    def _record(self, entry: ReferenceOccurrences, instance: Dewey) -> None:
        entry.instances.append(instance)
        self._type_counts[entry.feature.feature_type] += 1

    def value_count(self, feature: Feature) -> int:
        entry = self._occurrences.get(feature)
        return entry.count if entry else 0

    def type_count(self, entity: str, attribute: str) -> int:
        return self._type_counts.get((entity, attribute), 0)

    def domain_size(self, entity: str, attribute: str) -> int:
        return len(self._type_values.get((entity, attribute), ()))

    def dominance_score(self, feature: Feature) -> float:
        type_count = self.type_count(feature.entity, feature.attribute)
        if type_count == 0:
            return 0.0
        domain = self.domain_size(feature.entity, feature.attribute)
        return _dominance(self.value_count(feature), type_count, domain)

    def is_dominant(self, feature: Feature) -> bool:
        if feature not in self._occurrences:
            return False
        return _is_dominant_score(
            self.dominance_score(feature), self.domain_size(feature.entity, feature.attribute)
        )

    def features(self) -> list[Feature]:
        return list(self._occurrences)

    def feature_types(self) -> list[tuple[str, str]]:
        return list(self._type_counts)

    def occurrences(self, feature: Feature) -> ReferenceOccurrences | None:
        return self._occurrences.get(feature)

    def all_occurrences(self) -> list[ReferenceOccurrences]:
        return list(self._occurrences.values())

    def instances_of(self, feature: Feature) -> list[Dewey]:
        entry = self._occurrences.get(feature)
        return list(entry.instances) if entry else []

    def display_value(self, feature: Feature) -> str:
        entry = self._occurrences.get(feature)
        return entry.display_value if entry else feature.value

    def value_statistics(self) -> dict[tuple[str, str], list[tuple[str, int]]]:
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


def reference_extract_features(
    analyzer: DataAnalyzer, result: QueryResult, attributes=None
) -> ReferenceStatistics:
    if attributes is None:
        _, attributes = reference_scan(analyzer, result.root_node)
    statistics = ReferenceStatistics()
    root_tag = result.root_node.tag
    entries: dict[tuple[str, str, str], ReferenceOccurrences | None] = {}
    for node, owner in attributes:
        raw_value = node.text
        if not raw_value:
            continue
        key = (owner.tag if owner is not None else root_tag, node.tag, raw_value)
        if key in entries:
            entry = entries[key]
        else:
            entry = entries[key] = statistics._entry_for(*key)
        if entry is not None:
            statistics._record(entry, node.dewey)
    return statistics


# ---------------------------------------------------------------------- #
# dominant features
# ---------------------------------------------------------------------- #
@dataclass
class ReferenceScoredFeature:
    feature: Feature
    display_value: str
    score: float
    value_count: int
    type_count: int
    domain_size: int
    instances: list[Dewey]


def reference_ranked(
    statistics: ReferenceStatistics, dominant_only: bool
) -> list[ReferenceScoredFeature]:
    scored: list[ReferenceScoredFeature] = []
    for entry in statistics.all_occurrences():
        feature = entry.feature
        type_count = statistics.type_count(feature.entity, feature.attribute)
        domain_size = statistics.domain_size(feature.entity, feature.attribute)
        score = _dominance(entry.count, type_count, domain_size)
        if dominant_only and not _is_dominant_score(score, domain_size):
            continue
        scored.append(
            ReferenceScoredFeature(
                feature=feature,
                display_value=entry.display_value,
                score=score,
                value_count=entry.count,
                type_count=type_count,
                domain_size=domain_size,
                instances=list(entry.instances),
            )
        )
    scored.sort(key=lambda item: (-item.score, -item.value_count, str(item.feature)))
    return scored


# ---------------------------------------------------------------------- #
# return entity and result key (§2.2)
# ---------------------------------------------------------------------- #
@dataclass
class ReferenceDecision:
    entities_in_result: list[str] = field(default_factory=list)
    return_entities: list[str] = field(default_factory=list)
    supporting_entities: list[str] = field(default_factory=list)
    reasons: dict[str, str] = field(default_factory=dict)
    return_instances: dict[str, list[Dewey]] = field(default_factory=dict)


def reference_return_entities(
    analyzer: DataAnalyzer, query: KeywordQuery, entities: list[XMLNode]
) -> ReferenceDecision:
    decision = ReferenceDecision()
    instances_by_tag: dict[str, list[XMLNode]] = {}
    for node in entities:
        instances_by_tag.setdefault(node.tag, []).append(node)
    decision.entities_in_result = sorted(
        instances_by_tag, key=lambda tag: instances_by_tag[tag][0].dewey
    )
    keywords = {singularize(normalize_token(keyword)) for keyword in query.keywords}

    for tag in decision.entities_in_result:
        if singularize(normalize_token(tag)) in keywords:
            decision.return_entities.append(tag)
            decision.reasons[tag] = "name-match"

    if not decision.return_entities:
        for tag in decision.entities_in_result:
            if _attribute_name_matches(analyzer, tag, instances_by_tag[tag], keywords):
                decision.return_entities.append(tag)
                decision.reasons[tag] = "attribute-match"

    if not decision.return_entities:
        for tag in _highest_entities(instances_by_tag):
            decision.return_entities.append(tag)
            decision.reasons[tag] = "default-highest"

    decision.supporting_entities = [
        tag for tag in decision.entities_in_result if tag not in decision.return_entities
    ]
    for tag in decision.return_entities:
        decision.return_instances[tag] = [node.dewey for node in instances_by_tag[tag]]
    return decision


def _entity_type_by_tag(analyzer: DataAnalyzer, tag: str):
    matches = [entity for entity in analyzer.entity_types.values() if entity.tag == tag]
    if not matches:
        return None
    matches.sort(key=lambda entity: (len(entity.tag_path), entity.tag_path))
    return matches[0]


def _attribute_name_matches(
    analyzer: DataAnalyzer, tag: str, instances: list[XMLNode], keywords: set[str]
) -> bool:
    entity_type = _entity_type_by_tag(analyzer, tag)
    attribute_tags: set[str] = set(entity_type.attribute_tags) if entity_type else set()
    for instance in instances:
        for child in instance.children:
            if _is(analyzer, child, NodeCategory.ATTRIBUTE):
                attribute_tags.add(child.tag)
    return any(singularize(normalize_token(attribute)) in keywords for attribute in attribute_tags)


def _highest_entities(instances_by_tag: dict[str, list[XMLNode]]) -> list[str]:
    if not instances_by_tag:
        return []
    entity_nodes = {node for nodes in instances_by_tag.values() for node in nodes}
    highest: list[tuple[Dewey, str]] = []
    for tag, nodes in instances_by_tag.items():
        for node in nodes:
            has_entity_ancestor = any(
                ancestor in entity_nodes for ancestor in node.iter_ancestors()
            )
            if not has_entity_ancestor:
                highest.append((node.dewey, tag))
                break
    highest.sort()
    seen: set[str] = set()
    ordered: list[str] = []
    for _, tag in highest:
        if tag not in seen:
            seen.add(tag)
            ordered.append(tag)
    return ordered


@dataclass
class ReferenceKey:
    entity_tag: str
    attribute_tag: str
    value: str
    instances: list[Dewey]
    mined: bool = True


def reference_result_keys(
    analyzer: DataAnalyzer, result: QueryResult, decision: ReferenceDecision
) -> list[ReferenceKey]:
    keys: list[ReferenceKey] = []
    seen_values: set[tuple[str, str, str]] = set()
    for tag in decision.return_entities:
        entity_type = _entity_type_by_tag(analyzer, tag)
        key_attribute = (
            entity_type.key.attribute_tag
            if entity_type is not None and entity_type.key is not None
            else None
        )
        for label in decision.return_instances.get(tag, []):
            instance = result.source.node(label)
            key = _key_of_instance(analyzer, instance, tag, key_attribute)
            if key is None:
                continue
            marker = (key.entity_tag, key.attribute_tag, key.value.lower())
            if marker in seen_values:
                for existing in keys:
                    if (
                        existing.entity_tag,
                        existing.attribute_tag,
                        existing.value.lower(),
                    ) == marker:
                        existing.instances.extend(key.instances)
                continue
            seen_values.add(marker)
            keys.append(key)
    return keys


def _key_of_instance(
    analyzer: DataAnalyzer, instance: XMLNode, entity_tag: str, key_attribute: str | None
) -> ReferenceKey | None:
    if key_attribute is not None:
        child = instance.find_child(key_attribute)
        if child is not None and child.has_text_value:
            return ReferenceKey(entity_tag, key_attribute, child.text or "", [child.dewey], True)
    for child in instance.children:
        if _is(analyzer, child, NodeCategory.ATTRIBUTE) and child.has_text_value:
            return ReferenceKey(entity_tag, child.tag, child.text or "", [child.dewey], False)
    return None


# ---------------------------------------------------------------------- #
# the IList
# ---------------------------------------------------------------------- #
@dataclass
class ReferenceItem:
    kind: str
    text: str
    identity: str
    instances: list[Dewey] = field(default_factory=list)
    score: float = 0.0
    feature: ReferenceScoredFeature | None = None
    result_key: ReferenceKey | None = None

    @property
    def has_instances(self) -> bool:
        return bool(self.instances)


@dataclass
class ReferenceIList:
    items: list[ReferenceItem] = field(default_factory=list)
    return_entity_decision: ReferenceDecision | None = None
    statistics: ReferenceStatistics | None = None

    def __iter__(self):
        return iter(self.items)

    def texts(self) -> list[str]:
        return [item.text for item in self.items]

    def coverable_items(self) -> list[ReferenceItem]:
        return [item for item in self.items if item.has_instances]


def reference_ilist(
    analyzer: DataAnalyzer, query: KeywordQuery, result: QueryResult
) -> ReferenceIList:
    entities, attributes = reference_scan(analyzer, result.root_node)
    statistics = reference_extract_features(analyzer, result, attributes)
    decision = reference_return_entities(analyzer, query, entities)
    ilist = ReferenceIList(return_entity_decision=decision, statistics=statistics)
    seen: set[str] = set()

    def append(item: ReferenceItem) -> None:
        if item.identity not in seen:
            seen.add(item.identity)
            ilist.items.append(item)

    nodes = result.source.nodes_by_pre
    for keyword in query.keywords:
        instances = [nodes[pre].dewey for pre in result.matches.get(keyword, ())]
        if not instances:
            instances = [
                node.dewey
                for node in result.iter_nodes()
                if matches_keyword(node.tag, keyword)
                or (node.has_text_value and matches_keyword(node.text or "", keyword))
            ]
        append(ReferenceItem("keyword", keyword, normalize_token(keyword), instances))

    instances_by_tag: dict[str, list[Dewey]] = {}
    for node in entities:
        instances_by_tag.setdefault(node.tag, []).append(node.dewey)
    for tag in sorted(instances_by_tag, key=lambda tag: (-len(instances_by_tag[tag]), tag)):
        append(ReferenceItem("entity", tag, normalize_token(tag), instances_by_tag[tag]))

    for key in reference_result_keys(analyzer, result, decision):
        append(
            ReferenceItem(
                "key", key.value, normalize_value(key.value), list(key.instances), result_key=key
            )
        )

    for scored in reference_ranked(statistics, dominant_only=True):
        append(
            ReferenceItem(
                "feature",
                scored.display_value,
                scored.feature.value,
                scored.instances,
                score=scored.score,
                feature=scored,
            )
        )
    return ilist


# ---------------------------------------------------------------------- #
# the snippet tree and the greedy selector (§2.4)
# ---------------------------------------------------------------------- #
class ReferenceSnippet:
    """A growing snippet tree; instances are labels, resolved per question."""

    def __init__(self, result: QueryResult):
        self.result = result
        self.root: Dewey = result.root
        root_node = result.root_node
        self._find_node = result.source.find_node
        self._first_pre = root_node.pre
        self._last_post = root_node.post
        self._selected: dict[int, XMLNode] = {root_node.pre: root_node}
        self.covered_items: list[ReferenceItem] = []
        self.chosen_instances: dict[str, Dewey] = {}

    @property
    def node_labels(self) -> set[Dewey]:
        return {node.dewey for node in self._selected.values()}

    @property
    def size_edges(self) -> int:
        return len(self._selected) - 1

    def _node_in_result(self, instance: Dewey) -> XMLNode | None:
        node = self._find_node(instance)
        if node is None or node.pre < self._first_pre or node.post > self._last_post:
            return None
        return node

    def _resolve(self, instance: Dewey) -> XMLNode:
        node = self._node_in_result(instance)
        if node is None:
            raise SnippetError(
                f"instance {instance} lies outside the result rooted at {self.root}"
            )
        return node

    def _hops(self, node: XMLNode) -> int:
        selected = self._selected
        hops = 0
        while node.pre not in selected:
            hops += 1
            node = node.parent
        return hops

    def path_labels(self, instance: Dewey) -> list[Dewey]:
        self._resolve(instance)
        return [instance.prefix(depth) for depth in range(self.root.depth, instance.depth + 1)]

    def cost_of(self, instance: Dewey) -> int:
        return self._hops(self._resolve(instance))

    def cheapest_instance(self, instances: Iterable[Dewey]) -> tuple[Dewey, int] | None:
        best: tuple[int, int, Dewey] | None = None
        for instance in instances:
            node = self._node_in_result(instance)
            if node is None:
                continue
            candidate = (self._hops(node), node.pre, instance)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return best[2], best[0]

    def add_instance(self, item: ReferenceItem, instance: Dewey) -> int:
        node = self._resolve(instance)
        selected = self._selected
        added = 0
        while node.pre not in selected:
            selected[node.pre] = node
            node = node.parent
            added += 1
        self.covered_items.append(item)
        self.chosen_instances[item.identity] = instance
        return added

    def covers(self, identity: str) -> bool:
        return identity in self.chosen_instances

    def to_tree(self) -> XMLTree:
        node = self._selected[self._first_pre]
        selected = self._selected
        root_copy = XMLNode(node.tag, node.text)
        pending = [(node, root_copy)]
        while pending:
            source, copy = pending.pop()
            for child in source.children:
                if child.pre in selected:
                    child_copy = XMLNode(child.tag, child.text)
                    copy._attach(child_copy)
                    pending.append((child, child_copy))
        return XMLTree(root_copy, name="reference-snippet")


def reference_select(
    result: QueryResult,
    ilist: ReferenceIList,
    size_bound: int,
    strategy: str = "greedy_closest",
    skip_unfitting_items: bool = True,
) -> ReferenceSnippet:
    """The greedy selector: cheapest instance first, ties in document
    order (``first_instance`` takes the first valid instance instead)."""
    if not isinstance(size_bound, int) or isinstance(size_bound, bool) or size_bound <= 0:
        raise InvalidSizeBoundError(size_bound)
    snippet = ReferenceSnippet(result)
    for item in ilist:
        if not item.has_instances or snippet.covers(item.identity):
            continue
        if strategy == "greedy_closest":
            chosen = snippet.cheapest_instance(item.instances)
        else:
            valid = [label for label in item.instances if _contains(result, label)]
            chosen = (min(valid), snippet.cost_of(min(valid))) if valid else None
        if chosen is None:
            continue
        instance, cost = chosen
        if snippet.size_edges + cost > size_bound:
            if skip_unfitting_items:
                continue
            break
        snippet.add_instance(item, instance)
    return snippet


# ---------------------------------------------------------------------- #
# rendering
# ---------------------------------------------------------------------- #
def reference_render_text(
    result: QueryResult, ilist: ReferenceIList, snippet: ReferenceSnippet
) -> str:
    tree = snippet.to_tree()
    lines: list[str] = []
    header = f"Result #{result.result_id}"
    key_texts = [item.text for item in ilist.items if item.kind == "key"]
    if key_texts:
        header += f" — {key_texts[0]}"
    header += (
        f"  [snippet: {snippet.size_edges} edges, "
        f"{len(snippet.covered_items)}/{len(ilist.coverable_items())} items]"
    )
    lines.append(header)

    def render(node: XMLNode, level: int) -> None:
        suffix = f": {node.text}" if node.text else ""
        lines.append(f"{'  ' * level}{node.tag}{suffix}")
        for child in node.children:
            render(child, level + 1)

    render(tree.root, 1)
    return "\n".join(lines)
