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
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

from repro.classify.analyzer import DataAnalyzer, SubtreeScan
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.snippet.dominant import DominantFeatureIdentifier, ScoredFeature
from repro.snippet.features import FeatureStatistics, extract_features
from repro.snippet.result_key import QueryResultKeyIdentifier, ResultKey
from repro.snippet.return_entity import ReturnEntityDecision, ReturnEntityIdentifier
from repro.utils.text import matches_keyword, normalize_token
from repro.utils.timing import TimingBreakdown


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
    cached IList survives the text-only updates its cache entry survives.
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


class IListBuilder:
    """Builds the IList of a query result (ties §2.1–§2.3 together)."""

    def __init__(self, analyzer: DataAnalyzer):
        self.analyzer = analyzer
        self.return_entity_identifier = ReturnEntityIdentifier(analyzer)
        self.key_identifier = QueryResultKeyIdentifier(analyzer)
        self.dominant_identifier = DominantFeatureIdentifier(analyzer)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build(
        self, query: KeywordQuery, result: QueryResult, timings: TimingBreakdown | None = None
    ) -> IList:
        """Construct the IList of ``result`` for ``query``.

        The four groups are appended in the paper's order; duplicates
        (same normalised identity) keep their earliest, most important
        position.  The entities of the result subtree are found once, for
        return-entity identification and the entity names.  Feature
        extraction — counting the result's features — is timed as the
        ``features`` phase of ``timings`` when the caller passes a
        breakdown.
        """
        scan = self.analyzer.scan_subtree(result.root_node)
        breakdown = timings if timings is not None else TimingBreakdown()
        with breakdown.measure("features"):
            statistics = extract_features(self.analyzer, result)
        decision = self.return_entity_identifier.identify(query, result, scan)

        ilist = IList(return_entity_decision=decision, statistics=statistics)
        seen: set[str] = set()

        for item in self._keyword_items(query, result):
            self._append(ilist, item, seen)
        for item in self._entity_name_items(scan):
            self._append(ilist, item, seen)
        for item in self._key_items(result, decision):
            self._append(ilist, item, seen)
        for item in self._feature_items(result, statistics):
            self._append(ilist, item, seen)
        return ilist

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

    def _entity_name_items(self, scan: SubtreeScan) -> list[IListItem]:
        """Entity names, most frequent entity type in the result first.

        The paper's Figure 3 lists ``clothes`` before ``store``; ordering
        entity names by decreasing instance count inside the result
        reproduces that (the result has far more clothes than stores) and
        is a sensible importance proxy: the more instances an entity type
        has, the more of the result it describes.
        """
        instances_by_tag: dict[str, list[int]] = {}
        for node in scan.entities:
            instances_by_tag.setdefault(node.tag, []).append(node.pre)
        ordered = sorted(instances_by_tag, key=lambda tag: (-len(instances_by_tag[tag]), tag))
        return [
            IListItem(
                kind=ItemKind.ENTITY_NAME,
                text=tag,
                identity=normalize_token(tag),
                instances=instances_by_tag[tag],
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
