"""The Data Analyzer component (Figure 4).

"The Data Analyzer parses the input XML data and identifies the entities,
attributes and connection nodes."  This module ties together schema
inference, node classification and key mining into a single object that
the rest of the system (index builder, search engine, snippet generator)
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.classify.categories import (
    NodeCategory,
    attribute_paths_of,
    classify_schema,
    entity_paths,
)
from repro.classify.keys import KeyInfo, KeyMiner
from repro.xmltree.dtd import DTD
from repro.xmltree.node import XMLNode
from repro.xmltree.schema import SchemaSummary, TagPath, infer_schema
from repro.xmltree.tree import XMLTree


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
    #: every attribute instance of the subtree in document order, paired
    #: with its owning entity — ``None`` when the attribute has no owning
    #: entity or the owner lies above the subtree root
    attributes: list[tuple[XMLNode, XMLNode | None]]


class DataAnalyzer:
    """Analyzes one document: schema, node categories, entities and keys.

    Classification is a schema-level fact (``categories``, per tag path);
    binding the analyzer to its tree resolves it for every node once, into
    two flat tables indexed by ``node.pre``: the node's category code and
    the ``pre`` of its owning entity (the nearest ancestor-or-self entity,
    ``-1`` when there is none).  ``category_of`` / ``is_entity`` /
    ``is_attribute`` / ``owning_entity`` are reads of those tables, and
    :meth:`scan_subtree` is one pass over a slice of them.  The tables are
    built before the constructor (or :meth:`rebound` /
    :meth:`rebound_to_same_shape`) returns and never change afterwards, so
    a published analyzer can be read from any thread; they are valid for as
    long as the tree is not edited — a bound analyzer means an immutable
    tree, every update builds a new tree and a new analyzer.  A node the
    tables do not cover (a node of another tree, a detached node) is
    classified by its own tag path instead.

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

    def __init__(self, tree: XMLTree, dtd: DTD | None = None):
        self.tree = tree
        self.dtd = dtd
        self.schema: SchemaSummary = infer_schema(tree, dtd=dtd)
        self.categories: dict[TagPath, NodeCategory] = classify_schema(self.schema)
        self.entity_types: dict[TagPath, EntityType] = {}
        self._build_entity_types()
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
        """An analyzer assembled from precomputed state (incremental updates).

        :mod:`repro.index.incremental` patches the previous analyzer's
        schema and re-mines only the entity keys an edit can affect; this
        constructor binds that state to the edited tree without re-running
        schema inference, classification or full key mining.  The caller is
        responsible for the state being exactly what ``DataAnalyzer(tree,
        dtd)`` would compute — the incremental-update property tests hold it
        to that.
        """
        analyzer = cls._assembled(tree, dtd, schema, categories, entity_types)
        analyzer._bind_nodes()
        return analyzer

    def rebound_to_same_shape(
        self,
        tree: XMLTree,
        schema: SchemaSummary,
        entity_types: dict[TagPath, EntityType],
    ) -> "DataAnalyzer":
        """This analyzer re-bound to a tree that differs in text values only.

        The text-only update path: same elements in the same places, so the
        categories are copied verbatim and the per-node tables — ints keyed
        by ``pre`` — are carried over as they are; only the node list is
        the new tree's.  ``schema`` and ``entity_types`` are the caller's
        patched copies, as for :meth:`rebound`; that ``tree`` has this
        analyzer's tree's shape is the caller's to guarantee
        (:func:`repro.index.incremental.apply_text_update` accepts only a
        text-only diff).
        """
        analyzer = self._assembled(tree, self.dtd, schema, dict(self.categories), entity_types)
        analyzer._nodes = tree.nodes_by_pre
        analyzer._node_codes = self._node_codes
        analyzer._node_owners = self._node_owners
        return analyzer

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _assembled(
        cls,
        tree: XMLTree,
        dtd: DTD | None,
        schema: SchemaSummary,
        categories: dict[TagPath, NodeCategory],
        entity_types: dict[TagPath, EntityType],
    ) -> "DataAnalyzer":
        analyzer = cls.__new__(cls)
        analyzer.tree = tree
        analyzer.dtd = dtd
        analyzer.schema = schema
        analyzer.categories = categories
        analyzer.entity_types = entity_types
        return analyzer

    def _bind_nodes(self) -> None:
        """Resolve category and owning entity of every node of the tree.

        One pass in document order: a node's tag path is its parent's
        (already interned) path extended by one tag, so each distinct path
        is built and looked up in ``categories`` once, and the owning
        entity is the node itself or whatever its parent resolved to.
        """
        nodes = self.tree.nodes_by_pre
        categories = self.categories
        count = len(nodes)
        codes = bytearray(count)
        # One slot past the end stands for "above the root", so the root's
        # parent index -1 reads the empty path (id 0) and no owner.
        owners = [-1] * (count + 1)
        path_ids = [0] * (count + 1)
        paths: list[TagPath] = [()]
        path_codes = [_CONNECTION]
        extended: dict[tuple[int, str], int] = {}
        for pre, node in enumerate(nodes):
            parent = node.parent
            parent_pre = parent.pre if parent is not None else -1
            key = (path_ids[parent_pre], node.tag)
            path_id = extended.get(key)
            if path_id is None:
                path = paths[key[0]] + (node.tag,)
                path_id = extended[key] = len(paths)
                paths.append(path)
                path_codes.append(
                    _CODE_OF_CATEGORY[categories.get(path, NodeCategory.CONNECTION)]
                )
            path_ids[pre] = path_id
            code = codes[pre] = path_codes[path_id]
            owners[pre] = pre if code == _ENTITY else owners[parent_pre]
        owners.pop()
        self._nodes = nodes
        self._node_codes = bytes(codes)
        self._node_owners = owners

    def _build_entity_types(self) -> None:
        paths = entity_paths(self.schema)
        miner = KeyMiner(self.schema)
        keys = miner.mine(self.tree, paths)
        for path in paths:
            schema_node = self.schema.node_for(path)
            self.entity_types[path] = EntityType(
                tag_path=path,
                tag=path[-1],
                instance_count=schema_node.instance_count,
                attribute_paths=attribute_paths_of(self.schema, path),
                key=keys.get(path),
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def category_of_path(self, tag_path: TagPath) -> NodeCategory:
        """The category of a schema node (entity / attribute / connection)."""
        # A path never seen during analysis (e.g. from a different
        # document) is a connection node: it is known neither to repeat
        # nor to carry a value, and the analyzer answers instead of erroring.
        return self.categories.get(tag_path, NodeCategory.CONNECTION)

    def _covers(self, node: XMLNode) -> bool:
        """Is ``node`` a node of the bound tree, i.e. do the tables hold it?"""
        pre = node.pre
        return pre < len(self._nodes) and self._nodes[pre] is node

    def _code_of(self, node: XMLNode) -> int:
        """The category code of a node: a table read for a node of the
        analyzer's own tree, its tag path's category for any other."""
        if self._covers(node):
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
        matches = [entity for entity in self.entity_types.values() if entity.tag == tag]
        if not matches:
            return None
        matches.sort(key=lambda entity: (len(entity.tag_path), entity.tag_path))
        return matches[0]

    def key_of_entity_path(self, entity_path: TagPath) -> KeyInfo | None:
        entity = self.entity_types.get(entity_path)
        return entity.key if entity else None

    def owning_entity(self, node: XMLNode) -> XMLNode | None:
        """The nearest ancestor-or-self node that is an entity instance.

        This is how an attribute instance such as ``city: Houston`` is
        associated with the entity instance (the ``store``) it describes,
        which defines the feature triple of §2.3.
        """
        if self._covers(node):
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
        """The entity and attribute instances of the subtree under ``root``.

        For a node of the analyzer's tree the subtree is the ``pre`` range
        ``[root.pre, root.pre + size)``, so this is one pass over that
        slice of the tables; an owner is an ancestor-or-self of a node in
        the range, hence inside the subtree exactly when its ``pre`` is not
        below the root's.  Any other root is walked and classified node by
        node, with the same outcome.
        """
        entities: list[XMLNode] = []
        attributes: list[tuple[XMLNode, XMLNode | None]] = []
        if self._covers(root):
            nodes = self._nodes
            owners = self._node_owners
            start = root.pre
            end = root.post + root.level + 1  # = start + subtree size
            if self._node_codes[start] != _ENTITY:
                entities.append(root)
            for pre, code in enumerate(self._node_codes[start:end], start):
                if code == _ATTRIBUTE:
                    owner = owners[pre]
                    attributes.append((nodes[pre], nodes[owner] if owner >= start else None))
                elif code == _ENTITY:
                    entities.append(nodes[pre])
            return SubtreeScan(entities, attributes)
        root_depth = root.dewey.depth
        for node in root.iter_subtree():
            code = self._code_of(node)
            if code == _ENTITY or node is root:
                entities.append(node)
            if code == _ATTRIBUTE:
                owner = self.owning_entity(node)
                if owner is not None and owner.dewey.depth < root_depth:
                    owner = None
                attributes.append((node, owner))
        return SubtreeScan(entities, attributes)

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
