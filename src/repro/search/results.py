"""Query result representation.

A query result is a subtree of the source document (the paper's Figure 1
shows one: the ``retailer`` subtree with its stores and clothes).  We keep
results *as references into the source document* — the result's root node
plus the per-keyword matches as ``pre`` ids — rather than as copies, because:

* the snippet generator needs the document-level schema classification
  (entity / attribute / connection is defined on source tag paths), and
* instance selection reasons about distances between source nodes.

Materialised copies for display are produced on demand by
:meth:`QueryResult.to_tree`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import ExtractError
from repro.search.query import KeywordQuery
from repro.utils.paging import page_slice
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


@dataclass
class QueryResult:
    """One query result: the subtree of ``source`` rooted at ``root_node``.

    Search and snippet generation name nodes by ``pre`` id —
    ``root_node.pre``, the ids in ``matches``, the instances of the
    result's IList — and every id here indexes ``source``, the tree the
    result holds.  The Dewey label is derived for display: :attr:`root`.

    ``source`` (with ``root_node``, a node of it) is the one pointer from
    a result — and from every snippet artefact computed for it — to a
    document version.  A text-only update keeps a position naming the same
    node, so a result it keeps is moved onto the live version with
    :meth:`rebind`, and the retired tree is held by nothing the caches
    keep.
    """

    query: KeywordQuery
    source: XMLTree
    root_node: XMLNode
    #: per keyword, the ``pre`` ids of the matching nodes inside this
    #: result subtree, in document order
    matches: dict[str, Sequence[int]] = field(default_factory=dict)
    score: float = 0.0
    result_id: int = 0

    # ------------------------------------------------------------------ #
    # node access
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Dewey:
        """The root's Dewey label — what the wire prints as ``root``."""
        return self.root_node.dewey

    def iter_nodes(self) -> Iterator[XMLNode]:
        """All source nodes inside the result subtree, document order."""
        return self.root_node.iter_subtree()

    def contains(self, pre: int) -> bool:
        """Is the node at ``pre`` (of ``source``) part of this result
        subtree?  A subtree is the id range ``[root.pre, root.pre + size)``."""
        root = self.root_node
        return root.pre <= pre <= root.post + root.level

    @property
    def size_nodes(self) -> int:
        """Number of nodes in the result subtree.

        The root is a node of an indexed tree, where a subtree's size
        follows from the node's ids: ``post - pre`` counts the descendants
        minus the ancestors, and ``level`` is the number of ancestors.
        """
        root = self.root_node
        return root.post - root.pre + root.level + 1

    @property
    def size_edges(self) -> int:
        return self.size_nodes - 1

    @property
    def matched_keywords(self) -> list[str]:
        """Keywords that have at least one match inside the result."""
        return [keyword for keyword, ids in self.matches.items() if len(ids)]

    def all_matches(self) -> list[int]:
        """The ``pre`` id of every match of every keyword, de-duplicated,
        in document order."""
        return sorted(set().union(*self.matches.values()))

    def rebind(self, tree: XMLTree) -> None:
        """Point this result at ``tree``: a later version of its document
        with the same shape (``tree`` adopted this result's tree's
        :class:`~repro.xmltree.tree.TreeShape`), in which no node of this
        result's subtree changed.

        The root position, matches, score and id stay as they are.  Every
        value read through the result — tags, texts and ids of its subtree,
        the ordinals its root label is made of — is the same in both
        versions, so a reader that sees the pointer move mid-request reads
        what it would have read either way.
        """
        if tree is self.source:  # a result two cache entries share
            return
        if tree.shape is not self.source.shape:
            raise ExtractError(
                f"cannot rebind a result of {self.source.name!r} to a tree of another shape"
            )
        self.root_node = tree.nodes_by_pre[self.root_node.pre]
        self.source = tree

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def to_tree(self) -> XMLTree:
        """A standalone deep copy of the result subtree (for display)."""
        return self.source.copy_nodes(self.root_node.subtree_ids())

    def text_content(self) -> str:
        """The flattened text of the result (used by the text baseline)."""
        return self.root_node.full_text()

    def __repr__(self) -> str:
        return (
            f"<QueryResult #{self.result_id} root={self.root_node.tag}@{self.root} "
            f"nodes={self.size_nodes} score={self.score:.3f}>"
        )


@dataclass
class ResultSet:
    """All results of one query over one document, in rank order.

    ``total_results`` is the number of results *before* any ``limit``
    truncation (a result page knows how many hits exist in total); when the
    engine applied no limit it equals ``len(self)``.
    """

    query: KeywordQuery
    document_name: str
    results: list[QueryResult] = field(default_factory=list)
    algorithm: str = "slca"
    total_results: int | None = None

    def __post_init__(self) -> None:
        if self.total_results is None:
            self.total_results = len(self.results)

    @property
    def is_truncated(self) -> bool:
        """Did a ``limit`` cut results off this page?"""
        return (self.total_results or 0) > len(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def is_empty(self) -> bool:
        return not self.results

    def top(self, count: int) -> list[QueryResult]:
        """The ``count`` best-ranked results."""
        return self.results[:count]

    def page(self, page: int, page_size: int | None) -> list[QueryResult]:
        """The results of one page, for paginated serving (conventions in
        :mod:`repro.utils.paging`)."""
        return page_slice(self.results, page, page_size)

    def total_result_edges(self) -> int:
        """Combined size of all result subtrees (drives experiment E1)."""
        return sum(result.size_edges for result in self.results)

    def __repr__(self) -> str:
        return (
            f"<ResultSet query={str(self.query)!r} doc={self.document_name!r} "
            f"results={len(self.results)} algorithm={self.algorithm}>"
        )
