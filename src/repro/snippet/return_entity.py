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
identifier needs.  Everything the rules read of a result is a property of
its subtree alone — the entity tags, their instances and their attribute
names (:class:`ResultEntities`) — so a caller that keeps that per result
root (:class:`repro.snippet.ilist.RootStatistics`) decides a query in
O(keywords × entity tags) with :meth:`ReturnEntityIdentifier.decide`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.classify.analyzer import DataAnalyzer, EntityType, SubtreeScan
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.utils.text import normalize_token, singularize


def _word(name: str) -> str:
    """How a rule compares a tag with a keyword: plural-insensitively
    ("stores" finds <store>)."""
    return singularize(normalize_token(name))


class ResultEntities(NamedTuple):
    """What rules 1–3 read of one result subtree, by entity tag.

    Every query whose result has this root may share it.  The first three
    members are never mutated once built, and a decision's
    ``return_instances`` are lists of ``instances``.
    """

    #: the entity tags, in document order of their first instance — the
    #: result root's tag first
    tags: list[str]
    #: per tag, its instances in the result as ``pre`` ids, document order
    instances: dict[str, list[int]]
    #: per tag, the word rule 1 compares with the keywords
    words: dict[str, str]
    #: per tag, the words of its attribute names that rule 2 compares: the
    #: schema's attribute tags of the entity type plus the attribute
    #: children its instances in the result have.  Filled a tag at a time
    #: by the first query that reaches rule 2 — most never do: one of their
    #: keywords names an entity
    attribute_words: dict[str, frozenset[str]]


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
        return self.decide(query, result, self.entities(scan))

    @staticmethod
    def entities(scan: SubtreeScan) -> ResultEntities:
        """The entity tags of a scanned result subtree, with the words
        rule 1 compares."""
        # the scan is in document order, root first, so the tags come out
        # ordered by the ``pre`` of their first instance
        instances: dict[str, list[int]] = {}
        for node in scan.entities:
            instances.setdefault(node.tag, []).append(node.pre)
        return ResultEntities(
            tags=list(instances),
            instances=instances,
            words={tag: _word(tag) for tag in instances},
            attribute_words={},
        )

    def decide(
        self, query: KeywordQuery, result: QueryResult, entities: ResultEntities
    ) -> ReturnEntityDecision:
        """Rules 1–3 over the entity tags of ``result`` (``entities``):
        O(keywords × entity tags) once rule 2 has read the result's
        attribute names."""
        keywords = {_word(keyword) for keyword in query.keywords}
        decision = ReturnEntityDecision(entities_in_result=list(entities.tags))

        # Rule 1: entity name matches a keyword.
        for tag in entities.tags:
            if entities.words[tag] in keywords:
                decision.return_entities.append(tag)
                decision.reasons[tag] = "name-match"

        # Rule 2: an attribute name of the entity matches a keyword.
        if not decision.return_entities:
            for tag in entities.tags:
                if not self._attribute_words(result, entities, tag).isdisjoint(keywords):
                    decision.return_entities.append(tag)
                    decision.reasons[tag] = "attribute-match"

        # Rule 3: default — the highest entities (no ancestor entity in the
        # result).  The result root plays the entity role and every other
        # node of the result has it for an ancestor, so that is the root,
        # whose tag comes first.
        if not decision.return_entities:
            tag = entities.tags[0]
            decision.return_entities.append(tag)
            decision.reasons[tag] = "default-highest"

        decision.supporting_entities = [
            tag for tag in entities.tags if tag not in decision.return_entities
        ]
        for tag in decision.return_entities:
            decision.return_instances[tag] = entities.instances[tag]
        return decision

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _attribute_words(
        self, result: QueryResult, entities: ResultEntities, tag: str
    ) -> frozenset[str]:
        """``entities.attribute_words[tag]``, read off the result the first
        time a query asks."""
        words = entities.attribute_words.get(tag)
        if words is not None:
            return words
        entity_type: EntityType | None = self.analyzer.entity_type_by_tag(tag)
        names: set[str] = set(entity_type.attribute_tags) if entity_type else set()
        # Also look at the concrete instances: a result may expose attribute
        # children the schema-wide entity type does not know about (e.g.
        # when the analyzer was built on a larger corpus).
        nodes = result.source.nodes_by_pre
        is_attribute = self.analyzer.is_attribute
        for pre in entities.instances[tag]:
            names.update(child.tag for child in nodes[pre].children if is_attribute(child))
        # equal sets either way, so a concurrent first reader may store its own
        return entities.attribute_words.setdefault(tag, frozenset(_word(name) for name in names))
