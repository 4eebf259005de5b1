"""Schema summary inferred from XML data.

eXtract classifies nodes using "DTD or XML data structure" (§2.1).  When no
DTD is available, the structure of the data itself tells us which elements
are ``*``-nodes: a *schema node* (identified by its root-to-node tag path)
is a ``*``-node if **some** instance of its parent schema node has two or
more children of that tag — i.e. the element demonstrably repeats.

The schema summary also records, per schema node:

* how many instances exist,
* whether instances carry their own text and whether they have element
  children (needed for the attribute-node rule),
* the set of distinct text values and per-value occurrence counts (needed
  by key mining and by the dominant-feature statistics).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import SchemaError
from repro.utils.text import NormalizedValues
from repro.xmltree.dtd import DTD
from repro.xmltree.tree import TagPath, XMLTree

_text_of = attrgetter("text")


@dataclass
class SchemaNode:
    """Aggregate information about all instances sharing one tag path."""

    tag_path: TagPath
    tag: str
    instance_count: int = 0
    #: max number of same-tag siblings observed under a single parent instance
    max_siblings_per_parent: int = 0
    with_text: int = 0
    with_element_children: int = 0
    child_paths: set[TagPath] = field(default_factory=set)
    value_counts: Counter[str] = field(default_factory=Counter)

    @property
    def repeats_in_data(self) -> bool:
        """True when some parent instance holds >= 2 children of this tag."""
        return self.max_siblings_per_parent >= 2

    @property
    def always_leaf_with_text(self) -> bool:
        """True when every instance is a text leaf (no element children)."""
        return self.with_element_children == 0 and self.with_text == self.instance_count > 0

    @property
    def distinct_values(self) -> int:
        return len(self.value_counts)

    def __repr__(self) -> str:
        return (
            f"<SchemaNode {'/'.join(self.tag_path)} instances={self.instance_count} "
            f"max_siblings={self.max_siblings_per_parent}>"
        )


class SchemaSummary:
    """The inferred schema of one document (or a corpus of documents).

    :meth:`add_tree` reads a document through its tag-path column
    (:attr:`XMLTree.paths`), not node by node: ``nodes`` lists the schema
    nodes in path-id order, which is the order a top-down reading first
    meets them.
    """

    def __init__(self, dtd: DTD | None = None):
        self.nodes: dict[TagPath, SchemaNode] = {}
        self.dtd = dtd

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_tree(self, tree: XMLTree, values: NormalizedValues | None = None) -> None:
        """Fold one document into the summary (may be called repeatedly).

        Reads the tree's tag-path column (:attr:`XMLTree.paths`), one path
        at a time: the counts of a schema node are counts over its
        instances' ``pre`` ids, and its sibling maximum is the largest
        number of its instances sharing one parent ``pre``.  Each distinct
        raw text is normalised once, through ``values`` — pass the memo
        key mining will read to share it.
        """
        if values is None:
            values = NormalizedValues()
        columns = tree.paths
        nodes = tree.nodes_by_pre
        shape = tree.shape
        parent_of, size_of = shape.parent.__getitem__, shape.size.__getitem__
        entries: list[SchemaNode] = []
        for path in columns.paths:
            entry = self.nodes.get(path)
            if entry is None:
                entry = self.nodes[path] = SchemaNode(tag_path=path, tag=path[-1])
            entries.append(entry)
        for path_id, instances in enumerate(columns.instances):
            entry = entries[path_id]
            entry.instance_count += len(instances)
            # a node has element children iff its subtree is more than itself
            entry.with_element_children += len(instances) - list(
                map(size_of, instances)
            ).count(1)
            texts = [text for text in map(_text_of, map(nodes.__getitem__, instances)) if text]
            entry.with_text += len(texts)
            entry.value_counts.update(map(values.__getitem__, texts))
            if path_id:  # the root's path has no parent, and no siblings
                widest = max(Counter(map(parent_of, instances)).values())
                if widest > entry.max_siblings_per_parent:
                    entry.max_siblings_per_parent = widest
                parent_path_id = columns.ids[parent_of(instances[0])]
                entries[parent_path_id].child_paths.add(entry.tag_path)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def node_for(self, tag_path: TagPath) -> SchemaNode:
        try:
            return self.nodes[tag_path]
        except KeyError as exc:
            raise SchemaError(f"unknown schema node {'/'.join(tag_path)}") from exc

    def is_star_node(self, tag_path: TagPath) -> bool:
        """Is the schema node a ``*``-node (and hence an entity candidate)?

        The DTD answer, when the DTD declares the parent/child pair, takes
        precedence; otherwise we fall back to what the data shows.  The
        document root is never a ``*``-node (it cannot repeat).
        """
        if len(tag_path) <= 1:
            return False
        entry = self.nodes.get(tag_path)
        if self.dtd is not None:
            from_dtd = self.dtd.is_repeatable_child(tag_path[-2], tag_path[-1])
            if from_dtd is not None:
                return from_dtd
        if entry is None:
            raise SchemaError(f"unknown schema node {'/'.join(tag_path)}")
        return entry.repeats_in_data

    def star_node_paths(self) -> list[TagPath]:
        """All ``*``-node tag paths, shortest first."""
        paths = [path for path in self.nodes if self.is_star_node(path)]
        return sorted(paths, key=lambda path: (len(path), path))

    def tags_of_star_nodes(self) -> set[str]:
        return {path[-1] for path in self.star_node_paths()}

    def paths_with_tag(self, tag: str) -> list[TagPath]:
        """All schema paths ending in ``tag``."""
        return sorted(path for path in self.nodes if path[-1] == tag)

    def child_paths_of(self, tag_path: TagPath) -> list[TagPath]:
        entry = self.nodes.get(tag_path)
        if entry is None:
            return []
        return sorted(entry.child_paths)

    def total_instances(self) -> int:
        return sum(entry.instance_count for entry in self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"<SchemaSummary paths={len(self.nodes)} dtd={'yes' if self.dtd else 'no'}>"


def infer_schema(
    tree: XMLTree, dtd: DTD | None = None, values: NormalizedValues | None = None
) -> SchemaSummary:
    """Infer the schema summary of a single document (``values``: see
    :meth:`SchemaSummary.add_tree`).

    >>> from repro.xmltree.builder import tree_from_dict
    >>> tree = tree_from_dict("retailer", {
    ...     "name": "Brook Brothers",
    ...     "store": [{"city": "Houston"}, {"city": "Austin"}],
    ... })
    >>> schema = infer_schema(tree)
    >>> schema.is_star_node(("retailer", "store"))
    True
    >>> schema.is_star_node(("retailer", "name"))
    False
    """
    summary = SchemaSummary(dtd=dtd)
    summary.add_tree(tree, values)
    return summary


def infer_schema_from_trees(trees: list[XMLTree], dtd: DTD | None = None) -> SchemaSummary:
    """Infer a schema summary over a corpus of documents."""
    summary = SchemaSummary(dtd=dtd)
    for tree in trees:
        summary.add_tree(tree)
    return summary
