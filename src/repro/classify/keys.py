"""Key mining: which attribute serves as the key of each entity type.

§2.2: "After mining the keys of entities in the data, eXtract adds the
value of the key attribute of retailer: Brook Brothers ... to IList."

The paper does not spell out the mining procedure, so we implement the
standard key-discovery recipe used by XSeek-style systems, in priority
order:

1. an attribute declared with type ``ID`` in the DTD,
2. an attribute whose values are *unique* across all instances of the
   entity and *present* on (almost) every instance — the classic candidate
   key condition, with a small tolerance for missing values,
3. among several candidates, prefer conventional naming (``id``, ``name``,
   ``title``, ``key``) and then the attribute appearing earliest in
   document order (keys are usually listed first).

The result is a :class:`KeyInfo` per entity schema path, or ``None`` when
no attribute qualifies (the snippet then simply has no key item).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.classify.categories import attribute_paths_of
from repro.utils.text import NormalizedValues
from repro.xmltree.schema import SchemaSummary, TagPath
from repro.xmltree.tree import XMLTree

#: attribute names that conventionally act as identifiers, best first
PREFERRED_KEY_NAMES: tuple[str, ...] = ("id", "name", "title", "key", "isbn", "ssn", "code")

#: fraction of entity instances that must carry the attribute for it to be
#: considered a key (tolerates sparse dirty data)
MIN_COVERAGE = 0.9


@dataclass
class KeyInfo:
    """The mined key attribute of one entity type."""

    entity_path: TagPath
    attribute_path: TagPath
    coverage: float
    uniqueness: float
    from_dtd: bool = False

    @property
    def entity_tag(self) -> str:
        return self.entity_path[-1]

    @property
    def attribute_tag(self) -> str:
        return self.attribute_path[-1]

    def __repr__(self) -> str:
        return (
            f"<KeyInfo {self.entity_tag}.{self.attribute_tag} "
            f"coverage={self.coverage:.2f} uniqueness={self.uniqueness:.2f}>"
        )


class KeyMiner:
    """Mines key attributes for every entity type of a document.

    Mining reads the per-path ``pre`` lists of the tree's tag-path column
    (:attr:`XMLTree.paths`), never the tree as a whole: an entity type's
    instances are its path's list, and an entity's value of a candidate
    attribute is the text of the first instance of the attribute path under
    it — the attribute list holds the children of one entity next to each
    other, so that is the first id per parent.  The full build and the
    text-only re-mine (whose tree adopted the column of the version it
    updates) go through the same :meth:`mine`.
    """

    def __init__(self, schema: SchemaSummary, min_coverage: float = MIN_COVERAGE):
        self.schema = schema
        self.min_coverage = min_coverage

    def mine(
        self,
        tree: XMLTree,
        entity_paths_: Iterable[TagPath],
        values: NormalizedValues | None = None,
    ) -> dict[TagPath, KeyInfo]:
        """Return the key of each entity path that has one.

        ``values`` is the memo each distinct raw text is normalised through
        (default: a fresh one).
        """
        if values is None:
            values = NormalizedValues()
        keys: dict[TagPath, KeyInfo] = {}
        for entity_path in entity_paths_:
            info = self._mine_entity(tree, entity_path, values)
            if info is not None:
                keys[entity_path] = info
        return keys

    def _mine_entity(
        self, tree: XMLTree, entity_path: TagPath, values: NormalizedValues
    ) -> KeyInfo | None:
        """Mine the key attribute of a single entity type."""
        candidates = attribute_paths_of(self.schema, entity_path)
        if not candidates:
            return None

        dtd = self.schema.dtd
        dtd_ids = set(dtd.id_attributes(entity_path[-1])) if dtd is not None else set()

        instances_of = tree.paths.instances_of
        entity_count = len(instances_of(entity_path))
        if not entity_count:
            return None

        nodes = tree.nodes_by_pre
        parent = tree.shape.parent
        scored: list[tuple[tuple[float, ...], KeyInfo]] = []
        for order, attribute_path in enumerate(candidates):
            attribute_tag = attribute_path[-1]
            found: list[str] = []
            owner = -1
            for pre in instances_of(attribute_path):
                if parent[pre] == owner:
                    continue  # a later same-tag child of the same entity
                owner = parent[pre]
                text = nodes[pre].text
                if text:
                    found.append(values[text])
            present = len(found)
            if present == 0:
                continue
            coverage = present / entity_count
            uniqueness = len(set(found)) / present
            from_dtd = attribute_tag in dtd_ids
            if not from_dtd and coverage < self.min_coverage:
                continue
            if not from_dtd and uniqueness < 1.0:
                continue
            name_rank = _name_preference(attribute_tag)
            # larger tuple sorts better: DTD IDs first, then preferred names,
            # then earliest-declared attribute
            score = (
                1.0 if from_dtd else 0.0,
                name_rank,
                coverage,
                -float(order),
            )
            scored.append(
                (
                    score,
                    KeyInfo(
                        entity_path=entity_path,
                        attribute_path=attribute_path,
                        coverage=coverage,
                        uniqueness=uniqueness,
                        from_dtd=from_dtd,
                    ),
                )
            )
        if not scored:
            return None
        scored.sort(key=lambda item: item[0], reverse=True)
        return scored[0][1]


def _name_preference(attribute_tag: str) -> float:
    """Higher is better; preferred identifier names rank above others."""
    lowered = attribute_tag.lower()
    for rank, name in enumerate(PREFERRED_KEY_NAMES):
        if lowered == name:
            return float(len(PREFERRED_KEY_NAMES) - rank)
    return 0.0
