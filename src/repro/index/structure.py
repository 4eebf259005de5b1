"""Structure index: the instances and the category of every schema node.

Figure 4 lists "information about node category, and parent-children
relationship" as index content.  The parent/children relationship lives in
the tree's own tables (:class:`~repro.xmltree.tree.TreeShape`); this index
adds:

* tag path → posting list (all instances of a schema node),
* node category per tag path (entity / attribute / connection).

It is what the snapshot formats persist beside the keyword postings, and
what incremental key re-mining reads to find an entity type's instances
without walking the document.
"""

from __future__ import annotations

from array import array

from repro.classify.analyzer import DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.errors import IndexNotBuiltError
from repro.index.postings import PostingList
from repro.xmltree.schema import TagPath
from repro.xmltree.tree import TreeShape, XMLTree


class StructureIndex:
    """Tag-path/category index over one document."""

    def __init__(self) -> None:
        self._by_path: dict[TagPath, PostingList] = {}
        self._category_of_path: dict[TagPath, NodeCategory] = {}
        self._shape: TreeShape | None = None
        self._built = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, tree: XMLTree, analyzer: DataAnalyzer) -> "StructureIndex":
        by_path: dict[TagPath, array[int]] = {}
        for pre, node in enumerate(tree.nodes_by_pre):
            path = node.tag_path
            ids = by_path.get(path)
            if ids is None:
                by_path[path] = array("I", (pre,))
            else:
                ids.append(pre)
        shape = tree.shape
        return self._assemble(
            shape,
            {path: PostingList._trusted(shape, ids) for path, ids in by_path.items()},
            analyzer,
        )

    def _assemble(
        self, shape: TreeShape, by_path: dict[TagPath, PostingList], analyzer: DataAnalyzer
    ) -> "StructureIndex":
        """Adopt per-path lists that partition the tree with ``shape``."""
        self._shape = shape
        self._by_path = by_path
        self._category_of_path = dict(analyzer.categories)
        self._built = True
        return self

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def instances_of_path(self, tag_path: TagPath) -> PostingList:
        """The instances of a schema node in document order (empty for a
        path the document does not have)."""
        self._ensure_built()
        return self._by_path.get(tag_path) or PostingList(self._shape)

    def category_of_path(self, tag_path: TagPath) -> NodeCategory:
        self._ensure_built()
        return self._category_of_path.get(tag_path, NodeCategory.CONNECTION)

    @property
    def known_tags(self) -> list[str]:
        self._ensure_built()
        return sorted({path[-1] for path in self._by_path})

    @property
    def known_paths(self) -> list[TagPath]:
        self._ensure_built()
        return sorted(self._by_path)

    def entity_paths(self) -> list[TagPath]:
        """Tag paths classified as entities (shortest first)."""
        self._ensure_built()
        return sorted(
            (path for path, cat in self._category_of_path.items() if cat == NodeCategory.ENTITY),
            key=lambda path: (len(path), path),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("StructureIndex used before build() was called")

    def __repr__(self) -> str:
        status = f"paths={len(self._by_path)}" if self._built else "unbuilt"
        return f"<StructureIndex {status}>"
