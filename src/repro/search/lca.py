"""Brute-force LCA-family reference implementations.

These are deliberately simple O(n · k · depth) algorithms used as ground
truth in property-based tests for the optimised SLCA/ELCA implementations,
and as a readable specification of the semantics:

* **LCA set** — every node that is the lowest common ancestor of one match
  per keyword, for some combination of matches.
* **SLCA** — the LCAs that have no other LCA as a descendant
  ("smallest" LCAs) [7].
* **ELCA** — nodes that are the LCA of a *witness* combination of matches
  none of which lies inside a descendant that already contains all
  keywords [2].

Like the optimised implementations they speak ``pre`` ids and read the
:class:`~repro.xmltree.tree.TreeShape` the posting lists hold.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.index.postings import PostingList


def _ancestor_closure(ids: Iterable[int], parent: list[int]) -> set[int]:
    closure: set[int] = set()
    for pre in ids:
        while pre >= 0:
            closure.add(pre)
            pre = parent[pre]
    return closure


def common_ancestor_candidates(posting_lists: Sequence[PostingList]) -> set[int]:
    """All nodes that are ancestors-or-self of >= 1 match of *every* keyword."""
    if not posting_lists:
        return set()
    parent = posting_lists[0].shape.parent
    closure = _ancestor_closure(posting_lists[0], parent)
    for postings in posting_lists[1:]:
        closure &= _ancestor_closure(postings, parent)
    return closure


def brute_force_slca(posting_lists: Sequence[PostingList]) -> list[int]:
    """SLCA by definition: common ancestors with no common-ancestor descendant.

    >>> from repro.xmltree.builder import tree_from_dict
    >>> shape = tree_from_dict("r", {"s": [{"a": "x", "b": "y"}, {"a": "x", "b": "y"}]}).shape
    >>> a, b = PostingList(shape, [2, 5]), PostingList(shape, [3, 6])
    >>> brute_force_slca([a, b])
    [1, 4]
    """
    if not posting_lists or any(postings.is_empty for postings in posting_lists):
        return []
    candidates = common_ancestor_candidates(posting_lists)
    # Keep the candidates that have no descendant candidate: exactly the
    # "deepest" antichain of the candidate set.
    return posting_lists[0].shape.remove_ancestors(candidates)


def brute_force_elca(posting_lists: Sequence[PostingList]) -> list[int]:
    """ELCA by definition.

    A node ``v`` is an ELCA iff for every keyword there exists a match that
    is a descendant-or-self of ``v`` and is **not** contained in any child
    subtree of ``v`` that already contains matches of all keywords (i.e.
    not under a descendant common-ancestor candidate below ``v``).
    """
    if not posting_lists or any(postings.is_empty for postings in posting_lists):
        return []
    candidates = common_ancestor_candidates(posting_lists)
    return [
        candidate
        for candidate in sorted(candidates)
        if _is_elca(candidate, candidates, posting_lists)
    ]


def _is_elca(
    candidate: int, candidates: set[int], posting_lists: Sequence[PostingList]
) -> bool:
    size = posting_lists[0].shape.size
    # Descendant candidates of this node: matches inside them are "used up".
    blocking = [
        other for other in candidates if candidate < other < candidate + size[candidate]
    ]
    for postings in posting_lists:
        if all(
            any(block <= match < block + size[block] for block in blocking)
            for match in postings.descendants_of(candidate)
        ):
            return False
    return True
