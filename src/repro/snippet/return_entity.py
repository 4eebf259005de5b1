"""Return Entity Identifier (§2.2, Figure 4).

Each query has a search goal.  The entities of a query result are split
into *return entities* (what the user is looking for) and *supporting
entities* (used to describe return entities).  The paper's heuristics:

* "an entity in a query result is a return entity if its name matches a
  keyword or its attribute name matches a keyword";
* "If there is no such entity, we use the highest entity (i.e. entities
  that do not have ancestor entities) in the query result as the default
  return entity."

The identifier works at the level of entity *types* present in the result
(the decision "retailer is the return entity" is about the type) while
also exposing the concrete return-entity instances, which the key
identifier needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.classify.analyzer import DataAnalyzer, EntityType, SubtreeScan
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.utils.text import normalize_token, singularize
from repro.xmltree.node import XMLNode


@dataclass
class ReturnEntityDecision:
    """The outcome of return-entity identification for one query result."""

    #: entity tags present in the result, in document order of first instance
    entities_in_result: list[str] = field(default_factory=list)
    #: the chosen return entity tags (usually one)
    return_entities: list[str] = field(default_factory=list)
    #: entity tags that are supporting entities
    supporting_entities: list[str] = field(default_factory=list)
    #: why each return entity was chosen: "name-match", "attribute-match" or "default-highest"
    reasons: dict[str, str] = field(default_factory=dict)
    #: concrete instances of the return entities inside the result, as
    #: ``pre`` ids in document order
    return_instances: dict[str, list[int]] = field(default_factory=dict)

    @property
    def primary(self) -> str | None:
        """The single most important return entity tag (first chosen)."""
        return self.return_entities[0] if self.return_entities else None

    def is_return_entity(self, tag: str) -> bool:
        return tag in self.return_entities

    def __repr__(self) -> str:
        return (
            f"<ReturnEntityDecision return={self.return_entities} "
            f"supporting={self.supporting_entities}>"
        )


class ReturnEntityIdentifier:
    """Implements the §2.2 return-entity heuristics."""

    def __init__(self, analyzer: DataAnalyzer):
        self.analyzer = analyzer

    def identify(
        self, query: KeywordQuery, result: QueryResult, scan: SubtreeScan | None = None
    ) -> ReturnEntityDecision:
        """Classify the entities of ``result`` into return vs. supporting.

        The result root itself counts as an entity occurrence even when the
        schema cannot prove it repeats (a single ``retailer`` document):
        the root of a self-contained result plays the entity role for the
        purposes of the default-highest rule.  ``scan`` is the analyzer's
        scan of the result subtree when the caller already has one.
        """
        if scan is None:
            scan = self.analyzer.scan_subtree(result.root_node)
        decision = ReturnEntityDecision()
        # the scan is in document order, so the tags come out ordered by
        # the ``pre`` of their first instance
        instances_by_tag: dict[str, list[XMLNode]] = {}
        for node in scan.entities:
            instances_by_tag.setdefault(node.tag, []).append(node)
        decision.entities_in_result = list(instances_by_tag)

        # Keyword comparison is plural-insensitive ("stores" finds <store>).
        keywords = {singularize(normalize_token(keyword)) for keyword in query.keywords}

        # Rule 1: entity name matches a keyword.
        for tag in decision.entities_in_result:
            if singularize(normalize_token(tag)) in keywords:
                decision.return_entities.append(tag)
                decision.reasons[tag] = "name-match"

        # Rule 2: an attribute name of the entity matches a keyword.
        if not decision.return_entities:
            for tag in decision.entities_in_result:
                if self._attribute_name_matches(tag, instances_by_tag[tag], keywords):
                    decision.return_entities.append(tag)
                    decision.reasons[tag] = "attribute-match"

        # Rule 3: default — the highest entities (no ancestor entity in the
        # result).  The result root plays the entity role and every other
        # node of the result has it for an ancestor, so that is the root.
        if not decision.return_entities:
            tag = result.root_node.tag
            decision.return_entities.append(tag)
            decision.reasons[tag] = "default-highest"

        decision.supporting_entities = [
            tag for tag in decision.entities_in_result if tag not in decision.return_entities
        ]
        for tag in decision.return_entities:
            decision.return_instances[tag] = [node.pre for node in instances_by_tag[tag]]
        return decision

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _attribute_name_matches(
        self, tag: str, instances: list[XMLNode], keywords: set[str]
    ) -> bool:
        entity_type: EntityType | None = self.analyzer.entity_type_by_tag(tag)
        attribute_tags: set[str] = set(entity_type.attribute_tags) if entity_type else set()
        # Also look at the concrete instances: a result may expose attribute
        # children the schema-wide entity type does not know about (e.g.
        # when the analyzer was built on a larger corpus).
        for instance in instances:
            for child in instance.children:
                if self.analyzer.is_attribute(child):
                    attribute_tags.add(child.tag)
        return any(singularize(normalize_token(attribute)) in keywords for attribute in attribute_tags)
