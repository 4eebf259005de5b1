"""The Data Analyzer component (Figure 4).

"The Data Analyzer parses the input XML data and identifies the entities,
attributes and connection nodes."  This module ties together schema
inference, node classification and key mining into a single object that
the rest of the system (index builder, search engine, snippet generator)
consumes.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.classify.categories import (
    NodeCategory,
    attribute_paths_of,
    classify_schema,
    entity_paths,
)
from repro.classify.keys import KeyInfo, KeyMiner
from repro.utils.text import NormalizedValues, normalize_value
from repro.xmltree.dtd import DTD
from repro.xmltree.node import XMLNode
from repro.xmltree.schema import SchemaSummary, infer_schema
from repro.xmltree.tree import TagPath, XMLTree


@dataclass
class EntityType:
    """Everything known about one entity type (schema-level)."""

    tag_path: TagPath
    tag: str
    instance_count: int
    attribute_paths: list[TagPath] = field(default_factory=list)
    key: KeyInfo | None = None

    @property
    def attribute_tags(self) -> list[str]:
        return [path[-1] for path in self.attribute_paths]

    def __repr__(self) -> str:
        key_name = self.key.attribute_tag if self.key else None
        return f"<EntityType {self.tag} instances={self.instance_count} key={key_name}>"


# Category codes of the per-node table (one byte per node).
_CONNECTION, _ATTRIBUTE, _ENTITY = 0, 1, 2
_CATEGORY_OF_CODE = (NodeCategory.CONNECTION, NodeCategory.ATTRIBUTE, NodeCategory.ENTITY)
_CODE_OF_CATEGORY = {category: code for code, category in enumerate(_CATEGORY_OF_CODE)}


class SubtreeScan(NamedTuple):
    """What the snippet pipeline needs to know about one result subtree."""

    #: the entity instances of the subtree in document order; the subtree
    #: root always counts as one (it plays the entity role for its result)
    entities: list[XMLNode]


#: a phase name → a context manager around that phase's work (e.g.
#: :meth:`repro.utils.timing.TimingBreakdown.measure`)
Measure = Callable[[str], AbstractContextManager[object]]


def _unmeasured(phase: str) -> AbstractContextManager[object]:
    return nullcontext()


#: what a feature id stands for: ``(owning-entity tag, attribute tag,
#: normalised value)`` — the owner tag is ``None`` for an attribute no
#: entity owns
FeatureKey = tuple[str | None, str, str]


class FeatureTable(NamedTuple):
    """The §2.3 feature every node of a document carries, as interned ids.

    ``ids[pre]`` is the id of the feature of the attribute node at ``pre``
    — ``(tag of its owning entity, its own tag, its normalised value)`` —
    and ``-1`` for every node that carries none (not an attribute, no
    value, or a value that normalises to nothing).  Counting the features
    of a result subtree is counting a slice of ``ids``.  None of the three
    members is edited once the table is published; a text-only update
    patches a copy (:meth:`DataAnalyzer.rebound_to_same_shape`), so
    whoever holds a table — the analyzer of a retired version, a cached
    :class:`~repro.snippet.features.FeatureStatistics` — keeps reading the
    version it was computed on.
    """

    #: per node, by ``pre``: its feature id, ``-1`` for none
    ids: list[int]
    #: per feature id: what it stands for
    keys: list[FeatureKey]
    #: the inverse of ``keys``
    id_of: dict[FeatureKey, int]


class DataAnalyzer:
    """Analyzes one document: schema, node categories, entities and keys.

    Every step reads the tree's tag-path column (:attr:`XMLTree.paths`)
    rather than walking ancestors: schema inference counts per path id,
    key mining reads per-path ``pre`` lists, and binding turns per-path
    category codes into per-node ones.  Each distinct raw text is normalised
    once for the whole analysis.

    Classification is a schema-level fact (``categories``, per tag path);
    binding the analyzer to its tree resolves it for every node once, into
    two flat tables indexed by ``node.pre``: the node's category code and
    the ``pre`` of its owning entity (the nearest ancestor-or-self entity,
    ``-1`` when there is none).  ``category_of`` / ``is_entity`` /
    ``is_attribute`` / ``owning_entity`` are reads of those tables, and
    :meth:`scan_subtree` is a search of a slice of them.  The tables are
    built before the constructor (or :meth:`rebound` /
    :meth:`rebound_to_same_shape`) returns and never change afterwards, so
    a published analyzer can be read from any thread; they are valid for as
    long as the tree is not edited — a bound analyzer means an immutable
    tree, every update builds a new tree and a new analyzer.  A node the
    tables do not cover (a node of another tree, a detached node) is
    classified by its own tag path instead.

    A third table, :attr:`feature_table` — the interned feature id of every
    attribute node — is built the first time a snippet is generated for
    the document (a document nobody snippets never pays for it; concurrent
    first readers build it once) and has the same lifetime: immutable once
    published, carried over a text-only update as a patched copy.

    >>> from repro.xmltree.builder import tree_from_dict
    >>> tree = tree_from_dict("retailer", {
    ...     "name": "Brook Brothers",
    ...     "store": [
    ...         {"name": "Galleria", "city": "Houston"},
    ...         {"name": "West Village", "city": "Austin"},
    ...     ],
    ... })
    >>> analyzer = DataAnalyzer(tree)
    >>> sorted(analyzer.entity_tags())
    ['store']
    >>> analyzer.entity_types[("retailer", "store")].key.attribute_tag
    'name'
    """

    def __init__(self, tree: XMLTree, dtd: DTD | None = None, measure: Measure = _unmeasured):
        """Analyze ``tree``; ``measure(phase)`` wraps each step — ``schema``
        (inference and classification), ``keys`` (entity types and their
        keys) and ``bind`` (the per-node tables) — so a caller can time
        them (:class:`~repro.index.builder.IndexBuilder` does)."""
        with measure("schema"):
            values = NormalizedValues()
            schema = infer_schema(tree, dtd=dtd, values=values)
            categories = classify_schema(schema)
        with measure("keys"):
            entity_types = _mine_entity_types(tree, schema, values)
        self._adopt(tree, dtd, schema, categories, entity_types)
        with measure("bind"):
            self._bind_nodes()

    @classmethod
    def rebound(
        cls,
        tree: XMLTree,
        dtd: DTD | None,
        schema: SchemaSummary,
        categories: dict[TagPath, NodeCategory],
        entity_types: dict[TagPath, EntityType],
    ) -> "DataAnalyzer":
        """An analyzer assembled from precomputed state.

        The v4 snapshot reader decodes the state; this constructor binds it
        to the tree without re-running schema inference, classification or
        key mining.  The caller is responsible for the state being exactly
        what ``DataAnalyzer(tree, dtd)`` would compute — the snapshot
        round-trip tests hold it to that.
        """
        analyzer = cls.__new__(cls)
        analyzer._adopt(tree, dtd, schema, categories, entity_types)
        analyzer._bind_nodes()
        return analyzer

    def rebound_to_same_shape(
        self,
        tree: XMLTree,
        schema: SchemaSummary,
        entity_types: dict[TagPath, EntityType],
        changed_pres: Iterable[int],
    ) -> "DataAnalyzer":
        """This analyzer re-bound to a tree that differs in text values only.

        The text-only update path: same elements in the same places, so the
        categories are copied verbatim and the per-node tables — ints keyed
        by ``pre`` — are carried over as they are; only the node list is
        the new tree's.  The feature table, when this analyzer has built
        one, is carried as a copy in which only the nodes at
        ``changed_pres`` — the nodes whose text differs — are re-derived;
        this analyzer keeps its own.  ``schema`` and ``entity_types`` are
        the caller's patched copies, as for :meth:`rebound`; that ``tree``
        has this analyzer's tree's shape is the caller's to guarantee
        (:func:`repro.index.incremental.apply_text_update` accepts only a
        text-only diff).
        """
        analyzer = type(self).__new__(type(self))
        analyzer._adopt(tree, self.dtd, schema, dict(self.categories), entity_types)
        analyzer._nodes = tree.nodes_by_pre
        analyzer._node_codes = self._node_codes
        analyzer._node_owners = self._node_owners
        carried = self._features
        if carried is not None:
            table = FeatureTable(list(carried.ids), list(carried.keys), dict(carried.id_of))
            for pre in changed_pres:
                table.ids[pre] = analyzer._feature_id_of(pre, table, normalize_value)
            analyzer._features = table
        return analyzer

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _adopt(
        self,
        tree: XMLTree,
        dtd: DTD | None,
        schema: SchemaSummary,
        categories: dict[TagPath, NodeCategory],
        entity_types: dict[TagPath, EntityType],
    ) -> None:
        self.tree = tree
        self.dtd = dtd
        self.schema = schema
        self.categories = categories
        self.entity_types = entity_types
        self._entity_type_of_tag = _first_entity_type_per_tag(entity_types)
        self._features: FeatureTable | None = None
        self._features_lock = threading.Lock()

    def _bind_nodes(self) -> None:
        """Resolve category and owning entity of every node of the tree.

        Classification is per path, so the tree's tag-path column
        (:attr:`XMLTree.paths`) turns it into one code per path id and one
        table read per node.  Owners are resolved path by path in id order —
        a path's parent path comes first — each node owning itself or
        inheriting its parent's owner.
        """
        tree = self.tree
        columns = tree.paths
        categories = self.categories
        path_codes = [
            _CODE_OF_CATEGORY[categories.get(path, NodeCategory.CONNECTION)]
            for path in columns.paths
        ]
        parent = tree.shape.parent
        owners = [-1] * len(columns.ids)
        for path_id, instances in enumerate(columns.instances):
            if path_codes[path_id] == _ENTITY:
                for pre in instances:
                    owners[pre] = pre
            elif path_id:  # the root, when no entity, is owned by none
                for pre in instances:
                    owners[pre] = owners[parent[pre]]
        self._nodes = tree.nodes_by_pre
        self._node_codes = bytes(map(path_codes.__getitem__, columns.ids))
        self._node_owners = owners

    # ------------------------------------------------------------------ #
    # the feature table
    # ------------------------------------------------------------------ #
    @property
    def feature_table(self) -> FeatureTable:
        """The interned feature id of every node of the bound tree.

        Built on first use, under a lock: threads that ask for the table of
        a cold document at the same moment wait for one build and share
        its result.
        """
        table = self._features
        if table is None:
            with self._features_lock:
                table = self._features
                if table is None:
                    table = self._features = self._build_feature_table()
        return table

    @property
    def built_feature_table(self) -> FeatureTable | None:
        """The feature table if a snippet has built it (or an update carried
        it), ``None`` otherwise; reading this never builds one."""
        return self._features

    def normalized_value(self, node: XMLNode) -> str:
        """``normalize_value(node.text)`` — read off the feature table for
        an attribute node of the bound tree, where it is already there."""
        if self.covers(node) and self._node_codes[node.pre] == _ATTRIBUTE:
            table = self.feature_table
            feature_id = table.ids[node.pre]
            return table.keys[feature_id][2] if feature_id >= 0 else ""
        return normalize_value(node.text or "")

    def _build_feature_table(self) -> FeatureTable:
        """One pass over the nodes; a raw value that repeats — most do —
        is normalised once for the whole document."""
        table = FeatureTable([-1] * len(self._nodes), [], {})
        normalise = NormalizedValues().__getitem__
        ids = table.ids
        for pre in range(len(ids)):
            ids[pre] = self._feature_id_of(pre, table, normalise)
        return table

    def _feature_id_of(self, pre: int, table: FeatureTable, normalise) -> int:
        """The id of the feature the node at ``pre`` carries now, interned
        into ``table`` when it is new; ``-1`` when the node carries none."""
        if self._node_codes[pre] != _ATTRIBUTE:
            return -1
        node = self._nodes[pre]
        raw = node.text
        if not raw:
            return -1
        value = normalise(raw)
        if not value:
            return -1
        owner = self._node_owners[pre]
        key = (self._nodes[owner].tag if owner >= 0 else None, node.tag, value)
        feature_id = table.id_of.get(key)
        if feature_id is None:
            feature_id = table.id_of[key] = len(table.keys)
            table.keys.append(key)
        return feature_id

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def category_of_path(self, tag_path: TagPath) -> NodeCategory:
        """The category of a schema node (entity / attribute / connection)."""
        # A path never seen during analysis (e.g. from a different
        # document) is a connection node: it is known neither to repeat
        # nor to carry a value, and the analyzer answers instead of erroring.
        return self.categories.get(tag_path, NodeCategory.CONNECTION)

    def covers(self, node: XMLNode) -> bool:
        """Is ``node`` a node of the bound tree, i.e. do the per-node tables
        (:attr:`node_owners`, :attr:`feature_table`) hold it?"""
        pre = node.pre
        return pre < len(self._nodes) and self._nodes[pre] is node

    def _code_of(self, node: XMLNode) -> int:
        """The category code of a node: a table read for a node of the
        analyzer's own tree, its tag path's category for any other."""
        if self.covers(node):
            return self._node_codes[node.pre]
        return _CODE_OF_CATEGORY[self.category_of_path(node.tag_path)]

    def category_of(self, node: XMLNode) -> NodeCategory:
        """The category of a concrete node instance."""
        return _CATEGORY_OF_CODE[self._code_of(node)]

    def is_entity(self, node: XMLNode) -> bool:
        return self._code_of(node) == _ENTITY

    def is_attribute(self, node: XMLNode) -> bool:
        return self._code_of(node) == _ATTRIBUTE

    def is_connection(self, node: XMLNode) -> bool:
        return self._code_of(node) == _CONNECTION

    def entity_tags(self) -> set[str]:
        """Tags of all entity types in the document."""
        return {entity.tag for entity in self.entity_types.values()}

    def entity_type_of(self, node: XMLNode) -> EntityType | None:
        """The entity type a node instance belongs to, if it is an entity."""
        return self.entity_types.get(node.tag_path)

    def entity_type_by_tag(self, tag: str) -> EntityType | None:
        """The (first, highest) entity type with the given tag."""
        return self._entity_type_of_tag.get(tag)

    def key_of_entity_path(self, entity_path: TagPath) -> KeyInfo | None:
        entity = self.entity_types.get(entity_path)
        return entity.key if entity else None

    def owning_entity(self, node: XMLNode) -> XMLNode | None:
        """The nearest ancestor-or-self node that is an entity instance.

        This is how an attribute instance such as ``city: Houston`` is
        associated with the entity instance (the ``store``) it describes,
        which defines the feature triple of §2.3.
        """
        if self.covers(node):
            owner = self._node_owners[node.pre]
            return self._nodes[owner] if owner >= 0 else None
        for candidate in node.iter_ancestors(include_self=True):
            if self.is_entity(candidate):
                return candidate
        return None

    @property
    def node_owners(self) -> list[int]:
        """Per node of the bound tree, by ``pre``: the ``pre`` of its
        owning entity (nearest ancestor-or-self entity), ``-1`` for none.
        Read-only, like everything the analyzer hands out."""
        return self._node_owners

    def scan_subtree(self, root: XMLNode) -> SubtreeScan:
        """The entity instances of the subtree under ``root``.

        For a node of the analyzer's tree the subtree is the ``pre`` range
        ``[root.pre, root.pre + size)``, so this is one search of that
        slice of the category table per entity found.  Any other root is
        walked and classified node by node, with the same outcome.
        """
        if self.covers(root):
            nodes = self._nodes
            start = root.pre
            codes = self._node_codes
            end = root.post + root.level + 1  # = start + subtree size
            entities = [] if codes[start] == _ENTITY else [root]
            pre = codes.find(_ENTITY, start, end)
            while pre >= 0:
                entities.append(nodes[pre])
                pre = codes.find(_ENTITY, pre + 1, end)
            return SubtreeScan(entities)
        return SubtreeScan(
            [
                node
                for node in root.iter_subtree()
                if node is root or self._code_of(node) == _ENTITY
            ]
        )

    def attribute_children(self, entity_node: XMLNode) -> list[XMLNode]:
        """The attribute instances directly under an entity instance."""
        return [child for child in entity_node.children if self.is_attribute(child)]

    def summary(self) -> dict[str, int]:
        """Counts of schema nodes per category (used in examples / docs)."""
        counts = {"entity": 0, "attribute": 0, "connection": 0}
        for category in self.categories.values():
            counts[category.value] += 1
        return counts

    def __repr__(self) -> str:
        counts = self.summary()
        return (
            f"<DataAnalyzer tree={self.tree.name!r} entities={counts['entity']} "
            f"attributes={counts['attribute']} connections={counts['connection']}>"
        )


def _mine_entity_types(
    tree: XMLTree, schema: SchemaSummary, values: NormalizedValues
) -> dict[TagPath, EntityType]:
    """The entity types of a document with their mined keys, read from the
    tree's tag-path column; ``values`` is the normalisation memo schema
    inference filled, so a value both read is normalised once."""
    paths = entity_paths(schema)
    keys = KeyMiner(schema).mine(tree, paths, values=values)
    return {
        path: EntityType(
            tag_path=path,
            tag=path[-1],
            instance_count=schema.node_for(path).instance_count,
            attribute_paths=attribute_paths_of(schema, path),
            key=keys.get(path),
        )
        for path in paths
    }


def _first_entity_type_per_tag(entity_types: dict[TagPath, EntityType]) -> dict[str, EntityType]:
    """Per entity tag, the entity type highest in the document (shortest
    tag path, then the smallest path) — what a tag alone refers to."""
    by_tag: dict[str, EntityType] = {}
    for entity in sorted(
        entity_types.values(), key=lambda entity: (len(entity.tag_path), entity.tag_path)
    ):
        by_tag.setdefault(entity.tag, entity)
    return by_tag
