"""Posting lists of ``pre`` ids.

A posting list is the document-order list of the nodes that match one
term, each named by its ``pre`` id — its position in document order, the
node identity of :class:`~repro.xmltree.tree.TreeShape`.  It is stored as
a sorted ``array('I')``, which is also what a v4 snapshot's posting blob
is: loading a list is one ``frombytes``.  SLCA/ELCA evaluation and result
construction work directly on these lists, so the class offers the
binary-search primitives they rely on — closest match, subtree
containment, subtree slice — as integer bisects.

An integer carries no provenance: an id from another document is not an
error the way a foreign label was, it is a plausible wrong answer.  So a
list holds the :class:`~repro.xmltree.tree.TreeShape` its ids index (the
tables the primitives read), ids are range-checked wherever they enter
(the constructor, :meth:`PostingList.from_labels`, the snapshot reader),
and search code refuses lists of different shapes.  A text-only update
keeps the shape — and with it every list it did not touch.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import IndexError_
from repro.xmltree.dewey import Dewey
from repro.xmltree.tree import TreeShape, XMLTree


class PostingList:
    """An immutable, sorted, de-duplicated list of ``pre`` ids of one tree."""

    __slots__ = ("shape", "_ids")

    def __init__(self, shape: TreeShape, ids: Iterable[int] = ()):
        ordered = sorted(set(ids))
        if ordered and not 0 <= ordered[0] <= ordered[-1] < len(shape.size):
            raise IndexError_(
                f"posting ids {ordered[0]}..{ordered[-1]} lie outside the "
                f"{len(shape.size)}-node tree they are meant to index"
            )
        self.shape = shape
        self._ids = array("I", ordered)

    @classmethod
    def _trusted(cls, shape: TreeShape, ids: "array[int]") -> "PostingList":
        """A list over ``ids`` as they are — an ``array('I')`` already
        sorted, de-duplicated and in range (cut or merged from valid
        lists, appended in document order by the index build, or checked
        by the snapshot reader)."""
        postings = cls.__new__(cls)
        postings.shape = shape
        postings._ids = ids
        return postings

    @classmethod
    def from_labels(cls, labels: Iterable[Dewey], tree: XMLTree) -> "PostingList":
        """The boundary constructor for formats that spell nodes as Dewey
        labels (the v3 text snapshot).  A label ``tree`` does not have
        raises :class:`~repro.errors.ExtractError`."""
        return cls(tree.shape, (tree.node(label).pre for label in labels))

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __getitem__(self, index: int) -> int:
        return self._ids[index]

    def __contains__(self, pre: int) -> bool:
        position = bisect_left(self._ids, pre)
        return position < len(self._ids) and self._ids[position] == pre

    def __eq__(self, other: object) -> bool:
        """Same positions; the shapes are not compared, so lists of two
        loads of one document are equal."""
        if not isinstance(other, PostingList):
            return NotImplemented
        return self._ids == other._ids

    def __repr__(self) -> str:
        preview = ", ".join(str(pre) for pre in self._ids[:4])
        suffix = ", ..." if len(self._ids) > 4 else ""
        return f"<PostingList n={len(self._ids)} [{preview}{suffix}]>"

    @property
    def ids(self) -> "array[int]":
        """A copy of the underlying sorted ``array('I')``."""
        return self._ids[:]

    @property
    def is_empty(self) -> bool:
        return not self._ids

    # ------------------------------------------------------------------ #
    # binary-search primitives (used by SLCA / ELCA and construction)
    # ------------------------------------------------------------------ #
    def closest_match(self, pre: int) -> int | None:
        """The posting whose LCA with ``pre`` is deepest (closest match).

        This is the core primitive of the Indexed Lookup Eager SLCA
        algorithm [7]: the closest match is always the left neighbour
        ``lm`` (the largest posting ``<= pre``) or the right neighbour
        ``rm`` (the smallest ``>= pre``) in document order, whichever
        yields the deeper LCA with ``pre``.

        **Tie-break** (symmetric matches): when both neighbours yield an
        equal-depth LCA, those two LCAs are the *same node* — each is the
        ancestor of ``pre`` at that depth — so the choice cannot change
        any LCA computed from the returned match.  Following the
        ``lm``-first orientation of the definition in [7] we
        deterministically return the **left** neighbour, which keeps
        downstream traversals stable across runs and documents.
        """
        ids = self._ids
        position = bisect_left(ids, pre)
        if position == len(ids):
            return ids[-1] if ids else None
        right = ids[position]
        if right == pre or position == 0:
            return right
        left = ids[position - 1]
        shape = self.shape
        level = shape.level
        # documented tie-break: prefer lm (see docstring)
        return left if level[shape.lca(left, pre)] >= level[shape.lca(pre, right)] else right

    def has_descendant_of(self, ancestor: int) -> bool:
        """Does any posting lie in the subtree rooted at ``ancestor``?"""
        ids = self._ids
        position = bisect_left(ids, ancestor)
        return position < len(ids) and ids[position] < ancestor + self.shape.size[ancestor]

    def descendants_of(self, ancestor: int) -> "array[int]":
        """All postings within the subtree rooted at ``ancestor``: the
        slice between two bisects on ``[ancestor, ancestor + size)``."""
        ids = self._ids
        start = bisect_left(ids, ancestor)
        return ids[start : bisect_left(ids, ancestor + self.shape.size[ancestor], start)]

    # ------------------------------------------------------------------ #
    # merging (index lookup and incremental maintenance)
    # ------------------------------------------------------------------ #
    @staticmethod
    def union_all(lists: "Iterable[PostingList]") -> "PostingList":
        """The union of lists of one tree (at least one)."""
        lists = list(lists)
        shape = PostingList.common_shape(lists)
        merged = set().union(*(postings._ids for postings in lists))
        return PostingList._trusted(shape, array("I", sorted(merged)))

    @staticmethod
    def common_shape(lists: "Sequence[PostingList]") -> TreeShape:
        """The one tree shape all of ``lists`` (at least one) index.

        Ids of different trees compare without complaint, so mixing them is
        refused wherever lists meet: a merge, a query's keyword lists.
        """
        shape = lists[0].shape
        if any(postings.shape is not shape for postings in lists):
            raise IndexError_("posting lists of different trees cannot be combined")
        return shape

    def with_changes(
        self, added: Iterable[int] = (), removed: Iterable[int] = ()
    ) -> "PostingList":
        """A new list equal to ``(self - removed) | added``.

        The posting-level primitive of incremental index updates
        (:meth:`repro.index.inverted.InvertedIndex.apply_delta`).  An id
        present in both ``removed`` and ``added`` ends up present; an
        added id outside the tree raises as in the constructor.

        >>> shape = TreeShape([-1, 0, 0], [0, 1, 1], [3, 1, 1])
        >>> list(PostingList(shape, [0, 1]).with_changes(added=[2], removed=[0]))
        [1, 2]
        """
        ids = set(self._ids)
        ids.difference_update(removed)
        ids.update(added)
        return PostingList(self.shape, ids)
