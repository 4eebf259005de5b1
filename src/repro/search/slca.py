"""Smallest Lowest Common Ancestor (SLCA) computation.

Implements the Indexed Lookup approach of Xu & Papakonstantinou
[SIGMOD 2005, reference 7 of the paper]: iterate over the *shortest*
keyword posting list; for each of its matches, repeatedly replace the
current anchor by its LCA with the *closest* match (left or right
neighbour in document order, found by binary search) from every other
posting list.  Each anchor yields one SLCA candidate; the final SLCA set
is the deepest antichain of the candidates.

Nodes are ``pre`` ids throughout: the binary search is an integer bisect
and an LCA is a few ``parent`` hops on the tree's
:class:`~repro.xmltree.tree.TreeShape`.

Complexity: ``O(|S1| · k · (log|S| + h))`` where ``S1`` is the shortest
posting list and ``h`` the number of hops between a match and its LCA
with the anchor — the asymptotics of the original Indexed Lookup Eager
algorithm, which is what makes SLCA-based engines scale to large
documents.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.index.postings import PostingList


def compute_slca(posting_lists: Sequence[PostingList]) -> list[int]:
    """Compute the SLCA set of the given keyword posting lists: the
    ``pre`` ids of the result roots, in document order.

    Returns an empty list when any keyword has no match (conjunctive
    keyword semantics: every keyword must appear in a result).

    >>> from repro.xmltree.builder import tree_from_dict
    >>> shape = tree_from_dict("retailer", {"store": [
    ...     {"state": "Texas"}, {"merchandises": {"state": "Texas"}}]}).shape
    >>> stores = PostingList(shape, [1, 3])
    >>> texas = PostingList(shape, [2, 5])
    >>> compute_slca([stores, texas])
    [1, 3]
    """
    if not posting_lists:
        return []
    if any(postings.is_empty for postings in posting_lists):
        return []
    shape = PostingList.common_shape(posting_lists)
    if len(posting_lists) == 1:
        # Single-keyword query: every match is its own smallest "LCA".
        return shape.remove_ancestors(posting_lists[0])

    ordered = sorted(posting_lists, key=len)
    anchor_list, others = ordered[0], ordered[1:]

    candidates: list[int] = []
    for anchor in anchor_list:
        current = anchor
        for postings in others:
            current = shape.lca(current, postings.closest_match(current))
            if current == 0:
                break
        candidates.append(current)

    # The candidate set may contain ancestors of other candidates and
    # duplicates; the SLCA set is the deepest antichain.
    slcas = shape.remove_ancestors(candidates)
    # Every SLCA must actually contain matches of all keywords.  With the
    # closest-match construction this holds, but we keep the check cheap
    # and explicit to guard against degenerate posting lists.
    return [
        pre
        for pre in slcas
        if all(postings.has_descendant_of(pre) for postings in posting_lists)
    ]
