"""Structure index: the instances and the category of every schema node.

Figure 4 lists "information about node category, and parent-children
relationship" as index content.  The parent/children relationship lives in
the tree's own tables (:class:`~repro.xmltree.tree.TreeShape`); this index
adds:

* tag path → posting list (all instances of a schema node),
* node category per tag path (entity / attribute / connection).

The per-path lists are the tree's tag-path column
(:attr:`~repro.xmltree.tree.XMLTree.paths`) wrapped as posting lists: a
build reads no node, and a v4 load checks the stored lists against the
column and then wraps the column too, so the lists have one owner.  It is
what the snapshot formats persist beside the keyword postings.
"""

from __future__ import annotations

from repro.classify.analyzer import DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.errors import IndexNotBuiltError
from repro.index.postings import PostingList
from repro.xmltree.tree import TagPath, TreeShape, XMLTree


class StructureIndex:
    """Tag-path/category index over one document: :meth:`build` wraps the
    tree's tag-path column."""

    def __init__(self) -> None:
        self._by_path: dict[TagPath, PostingList] = {}
        self._category_of_path: dict[TagPath, NodeCategory] = {}
        self._shape: TreeShape | None = None
        self._built = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, tree: XMLTree, analyzer: DataAnalyzer) -> "StructureIndex":
        columns = tree.paths
        shape = self._shape = tree.shape
        self._by_path = {
            path: PostingList._trusted(shape, ids)
            for path, ids in zip(columns.paths, columns.instances)
        }
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
