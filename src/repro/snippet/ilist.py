"""The Snippet Information List (IList) of a query result (§2, Figure 3).

The IList holds "the most important information from each query result ...
in the order of their importances":

1. the query keywords (the IList is *initialised* with them, in query
   order),
2. the names of the entities involved in the query result (§2.1,
   self-containment),
3. the key of the query result — the key value of the return entity (§2.2,
   distinguishability),
4. the dominant features, in decreasing dominance-score order (§2.3,
   representativeness).

Duplicates are kept out: in the running example the entity name
``retailer`` is already present as a keyword, and the trivially dominant
feature value ``Texas`` is already present as a keyword, which is exactly
why neither appears twice in Figure 3.

Every item carries the node instances of the query result that *cover* it
— their ``pre`` ids, document order — because the Instance Selector (§2.4)
chooses among those instances.

Groups 2 and 4 are properties of the result subtree alone: the entity names
are found in it, and §2.3's ``N(e, a, v)``, ``N(e, a)`` and ``D(e, a)`` are
counted inside it.  So is everything the return-entity rules read: the
entity tags, their instances and their attribute names.  Only the keywords
and the choice of return entity depend on the query, and the result key
depends on that choice alone.  So the builder keeps, per result root, the
subtree's entity tags, its feature statistics, its entity-name items and
its ranked dominant-feature items, plus the key items of every set of
return entities a query has chosen there (:class:`RootStatistics`); a
second query whose result has the same root decides its return entity
over the root's entity tags and adds only its keyword items on top.  The
memo is bounded by work, not by roots: an entry weighs its root's subtree
nodes, and the budget is :data:`ROOT_MEMO_BUDGET` times the document's
node count.  A builder serves one document version — its analyzer's; a
text-only update carries over to the next version's builder every root
with no edit under it (:func:`repro.corpus._carry_serving_state`).  Items
are shared between the ILists of one root and never mutated after
:meth:`IListBuilder.build`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from repro.classify.analyzer import DataAnalyzer
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.snippet.dominant import DominantFeatureIdentifier, ScoredFeature
from repro.snippet.features import FeatureStatistics, extract_features
from repro.snippet.result_key import QueryResultKeyIdentifier, ResultKey
from repro.snippet.return_entity import (
    ResultEntities,
    ReturnEntityDecision,
    ReturnEntityIdentifier,
)
from repro.utils.cache import DEFAULT_CACHE_SIZE, LRUCache
from repro.utils.text import matches_keyword, normalize_token
from repro.utils.timing import TimingBreakdown

#: the root memo's budget, in subtree nodes per node of the document: the
#: roots of one document's results overlap — a store's subtree sits inside
#: its retailer's — and on the ``cold_browse`` documents the roots their
#: query pools reach sum to 2.1–3.4 times the node count, so 4 keeps them all
ROOT_MEMO_BUDGET = 4


class ItemKind(str, Enum):
    """Why an item is in the IList."""

    KEYWORD = "keyword"
    ENTITY_NAME = "entity"
    RESULT_KEY = "key"
    DOMINANT_FEATURE = "feature"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class IListItem:
    """One entry of the IList.

    ``instances`` are positions (``pre`` ids) in ``result.source``, the
    tree the item's result was cut from.  A position means the same node
    in every version of a document that has the same shape, which is why a
    memoised root's items survive the text-only updates its entry survives.
    """

    kind: ItemKind
    #: display text (what the user reads in the snippet / Figure 3)
    text: str
    #: normalised identity used for de-duplication
    identity: str
    #: candidate node instances in the query result covering this item:
    #: sorted ``pre`` ids (a keyword item holds the result's match slice)
    instances: Sequence[int] = field(default_factory=list)
    #: dominance score for feature items, 0 otherwise
    score: float = 0.0
    #: the scored feature / result key behind the item, when applicable
    feature: ScoredFeature | None = None
    result_key: ResultKey | None = None

    @property
    def has_instances(self) -> bool:
        return len(self.instances) > 0

    def __repr__(self) -> str:
        return f"<IListItem {self.kind.value}:{self.text!r} instances={len(self.instances)}>"


@dataclass
class IList:
    """The ordered Snippet Information List of one query result."""

    items: list[IListItem] = field(default_factory=list)
    return_entity_decision: ReturnEntityDecision | None = None
    statistics: FeatureStatistics | None = None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[IListItem]:
        return iter(self.items)

    def __getitem__(self, index: int) -> IListItem:
        return self.items[index]

    def texts(self) -> list[str]:
        """The display texts in order — directly comparable to Figure 3."""
        return [item.text for item in self.items]

    def identities(self) -> list[str]:
        return [item.identity for item in self.items]

    def items_of_kind(self, kind: ItemKind) -> list[IListItem]:
        return [item for item in self.items if item.kind == kind]

    def coverable_items(self) -> list[IListItem]:
        """Items that have at least one instance in the result."""
        return [item for item in self.items if item.has_instances]

    def __repr__(self) -> str:
        return f"<IList {', '.join(self.texts())}>"


class RootStatistics(NamedTuple):
    """The query-independent half of the IList of one result root."""

    #: what the return-entity rules read of the subtree
    entities: ResultEntities
    statistics: FeatureStatistics
    entity_items: list[IListItem]
    feature_items: list[IListItem]
    #: return-entity tags → the key items they give in this subtree,
    #: filled by the queries that chose them
    key_items: dict[tuple[str, ...], list[IListItem]]


class IListBuilder:
    """Builds the IList of a query result (ties §2.1–§2.3 together).

    ``roots`` memoises :class:`RootStatistics` by root ``pre`` for results
    of the analyzer's own tree.  An entry weighs its root's subtree nodes
    and the memo holds :data:`ROOT_MEMO_BUDGET` times the document's node
    count of them, least recently used out first; a ``cache_size`` of 0
    keeps no root.
    """

    def __init__(self, analyzer: DataAnalyzer, cache_size: int = DEFAULT_CACHE_SIZE):
        self.analyzer = analyzer
        self.return_entity_identifier = ReturnEntityIdentifier(analyzer)
        self.key_identifier = QueryResultKeyIdentifier(analyzer)
        self.dominant_identifier = DominantFeatureIdentifier(analyzer)
        budget = ROOT_MEMO_BUDGET * analyzer.tree.size_nodes if cache_size else 0
        self.roots = LRUCache(budget)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build(
        self,
        query: KeywordQuery,
        result: QueryResult,
        timings: TimingBreakdown | None = None,
        use_cache: bool = True,
    ) -> IList:
        """Construct the IList of ``result`` for ``query``.

        The four groups are appended in the paper's order; duplicates
        (same normalised identity) keep their earliest, most important
        position.  The root's statistics come from the memo when an
        earlier query's result had the same root; otherwise they are
        computed — feature extraction timed as the ``features`` phase of
        ``timings`` when the caller passes a breakdown — and, unless
        ``use_cache`` is false, kept.  So are the key items of the return
        entities the query chose.  Concurrent builders of one root
        converge on the first entry stored.
        """
        root = result.root_node
        memo = use_cache and self.analyzer.covers(root)
        part = self.roots.get(root.pre) if memo else None
        if part is None:
            part = self._root_statistics(result, timings)
            if memo:
                part = self.roots.setdefault(root.pre, part, weight=len(root.subtree_ids()))
        decision = self.return_entity_identifier.decide(query, result, part.entities)
        tags = tuple(decision.return_entities)
        key_items = part.key_items.get(tags)
        if key_items is None:
            key_items = self._key_items(result, decision)
            if memo:
                key_items = part.key_items.setdefault(tags, key_items)

        ilist = IList(return_entity_decision=decision, statistics=part.statistics)
        seen: set[str] = set()

        for item in self._keyword_items(query, result):
            self._append(ilist, item, seen)
        for item in part.entity_items:
            self._append(ilist, item, seen)
        for item in key_items:
            self._append(ilist, item, seen)
        for item in part.feature_items:
            self._append(ilist, item, seen)
        return ilist

    def _root_statistics(
        self, result: QueryResult, timings: TimingBreakdown | None
    ) -> RootStatistics:
        """Scan, count and rank the subtree under ``result``'s root."""
        entities = ReturnEntityIdentifier.entities(self.analyzer.scan_subtree(result.root_node))
        breakdown = timings if timings is not None else TimingBreakdown()
        with breakdown.measure("features"):
            statistics = extract_features(self.analyzer, result)
        return RootStatistics(
            entities,
            statistics,
            self._entity_name_items(entities),
            self._feature_items(result, statistics),
            {},
        )

    # ------------------------------------------------------------------ #
    # item construction
    # ------------------------------------------------------------------ #
    def _append(self, ilist: IList, item: IListItem, seen: set[str]) -> None:
        if item.identity in seen:
            return
        seen.add(item.identity)
        ilist.items.append(item)

    def _keyword_items(self, query: KeywordQuery, result: QueryResult) -> list[IListItem]:
        items: list[IListItem] = []
        for keyword in query.keywords:
            instances = result.matches.get(keyword, ())
            if not len(instances):
                instances = self._scan_keyword_instances(result, keyword)
            items.append(
                IListItem(
                    kind=ItemKind.KEYWORD,
                    text=keyword,
                    identity=normalize_token(keyword),
                    instances=instances,
                )
            )
        return items

    def _scan_keyword_instances(self, result: QueryResult, keyword: str) -> list[int]:
        """Fallback when the result carries no precomputed matches."""
        return [
            node.pre
            for node in result.iter_nodes()
            if matches_keyword(node.tag, keyword)
            or (node.has_text_value and matches_keyword(node.text or "", keyword))
        ]

    def _entity_name_items(self, entities: ResultEntities) -> list[IListItem]:
        """Entity names, most frequent entity type in the result first.

        The paper's Figure 3 lists ``clothes`` before ``store``; ordering
        entity names by decreasing instance count inside the result
        reproduces that (the result has far more clothes than stores) and
        is a sensible importance proxy: the more instances an entity type
        has, the more of the result it describes.
        """
        instances = entities.instances
        ordered = sorted(entities.tags, key=lambda tag: (-len(instances[tag]), tag))
        return [
            IListItem(
                kind=ItemKind.ENTITY_NAME,
                text=tag,
                identity=normalize_token(tag),
                instances=instances[tag],
            )
            for tag in ordered
        ]

    def _key_items(self, result: QueryResult, decision: ReturnEntityDecision) -> list[IListItem]:
        keys = self.key_identifier.identify(result, decision)
        nodes = result.source.nodes_by_pre
        normalized_value = self.analyzer.normalized_value
        return [
            IListItem(
                kind=ItemKind.RESULT_KEY,
                text=key.value,
                # the key value is the text of its (first) instance
                identity=normalized_value(nodes[key.instances[0]]),
                instances=list(key.instances),
                result_key=key,
            )
            for key in keys
        ]

    def _feature_items(
        self, result: QueryResult, statistics: FeatureStatistics
    ) -> list[IListItem]:
        dominant = self.dominant_identifier.identify(result, statistics)
        return [
            IListItem(
                kind=ItemKind.DOMINANT_FEATURE,
                text=scored.display_value,
                identity=scored.feature.value,
                instances=scored.instances,
                score=scored.score,
                feature=scored,
            )
            for scored in dominant
        ]
