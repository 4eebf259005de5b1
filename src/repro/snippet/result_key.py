"""Query Result Key Identifier (§2.2, Figure 4).

"The Query Result Key Identifier finds the key value of the return entity,
which serves as the key of the query result to distinguish different query
results."  In the running example, the key of the ``retailer`` return
entity is its ``name`` attribute, so the key of the result is the value
``Brook Brothers``.

When the return entity type has no mined key attribute (see
:class:`repro.classify.keys.KeyMiner`), the identifier falls back to the
first attribute child of the return entity instance — a snippet with *some*
identifying value is strictly better than one with none.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify.analyzer import DataAnalyzer
from repro.search.results import QueryResult
from repro.snippet.return_entity import ReturnEntityDecision
from repro.xmltree.node import XMLNode


@dataclass
class ResultKey:
    """The key of one query result."""

    entity_tag: str
    attribute_tag: str
    value: str
    #: the attribute node instances carrying the key value inside the
    #: result, as ``pre`` ids in document order
    instances: list[int]
    #: whether the key attribute came from key mining or from the fallback
    mined: bool = True

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"<ResultKey {self.entity_tag}.{self.attribute_tag}={self.value!r}>"


class QueryResultKeyIdentifier:
    """Finds the key value(s) of the return entity inside one result."""

    def __init__(self, analyzer: DataAnalyzer):
        self.analyzer = analyzer

    def identify(self, result: QueryResult, decision: ReturnEntityDecision) -> list[ResultKey]:
        """Key values of the return entity instances, in document order.

        A result normally has one return-entity instance and therefore one
        key; when the return entity occurs several times inside one result
        (e.g. the default-highest rule picked a repeated entity), one key
        per distinct value is reported, first instance first — and every
        one of them becomes a key item of the IList.
        """
        nodes = result.source.nodes_by_pre
        keys: dict[tuple[str, str, str], ResultKey] = {}
        for tag in decision.return_entities:
            key_attribute = self._key_attribute_for(tag)
            for pre in decision.return_instances.get(tag, []):
                key = self._key_of_instance(nodes[pre], tag, key_attribute)
                if key is None:
                    continue
                marker = (key.entity_tag, key.attribute_tag, key.value.lower())
                existing = keys.setdefault(marker, key)
                if existing is not key:
                    # merge instances of the same key value
                    existing.instances.extend(key.instances)
        return list(keys.values())

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _key_attribute_for(self, entity_tag: str) -> str | None:
        entity_type = self.analyzer.entity_type_by_tag(entity_tag)
        if entity_type is not None and entity_type.key is not None:
            return entity_type.key.attribute_tag
        return None

    def _key_of_instance(
        self, instance: XMLNode, entity_tag: str, key_attribute: str | None
    ) -> ResultKey | None:
        if key_attribute is not None:
            child = instance.find_child(key_attribute)
            if child is not None and child.has_text_value:
                return ResultKey(
                    entity_tag=entity_tag,
                    attribute_tag=key_attribute,
                    value=child.text or "",
                    instances=[child.pre],
                    mined=True,
                )
        # Fallback: the first attribute child with a value.
        for child in instance.children:
            if self.analyzer.is_attribute(child) and child.has_text_value:
                return ResultKey(
                    entity_tag=entity_tag,
                    attribute_tag=child.tag,
                    value=child.text or "",
                    instances=[child.pre],
                    mined=False,
                )
        return None
