"""Tests for posting lists (sorted ``pre`` ids of one tree)."""

from __future__ import annotations

from array import array

import pytest

from repro.errors import ExtractError, IndexError_
from repro.index.postings import PostingList
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.dewey import Dewey
from repro.xmltree.parser import parse_xml

#: three subtrees of three leaves each — labels ``a.b`` with a, b in 0..2
_GRID = "<r>" + "<s><l/><l/><l/></s>" * 3 + "</r>"


@pytest.fixture(scope="module")
def tree():
    return parse_xml(_GRID).tree


def plist(tree, *texts: str) -> PostingList:
    return PostingList.from_labels((Dewey.parse(text) for text in texts), tree)


def pre(tree, text: str) -> int:
    return tree.node(Dewey.parse(text)).pre


def labels(tree, ids) -> list[str]:
    return [str(tree.nodes_by_pre[i].dewey) for i in ids]


class TestBasics:
    def test_sorted_and_deduplicated(self, tree):
        postings = PostingList(tree.shape, [7, 1, 7, 3])
        assert list(postings) == [1, 3, 7]
        assert postings.ids == array("I", [1, 3, 7])

    def test_len_iter_getitem_contains(self, tree):
        postings = PostingList(tree.shape, [1, 5])
        assert len(postings) == 2
        assert postings[1] == 5
        assert 1 in postings
        assert 2 not in postings

    def test_is_empty(self, tree):
        assert PostingList(tree.shape).is_empty
        assert not PostingList(tree.shape, [0]).is_empty

    def test_equality(self, tree):
        assert PostingList(tree.shape, [0, 1]) == PostingList(tree.shape, [1, 0])
        assert PostingList(tree.shape, [0]) != PostingList(tree.shape, [1])

    def test_ids_returns_copy(self, tree):
        postings = PostingList(tree.shape, [0])
        copy = postings.ids
        copy.append(9)
        assert len(postings) == 1

    def test_repr_preview(self, tree):
        postings = PostingList(tree.shape, [0, 1, 2, 3, 4])
        assert "n=5" in repr(postings) and "..." in repr(postings)


class TestProvenance:
    """An id carries no provenance, so it is checked where it enters."""

    def test_from_labels_converts_in_document_order(self, tree):
        postings = plist(tree, "1.2", "0", "1.2", "0.1")
        assert labels(tree, postings) == ["0", "0.1", "1.2"]
        assert postings.shape is tree.shape

    def test_from_labels_rejects_a_label_of_another_tree(self, tree):
        other = tree_from_dict("r", {"s": {"l": ["a", "b", "c", "d"]}})
        foreign = other.node(Dewey.parse("0.3")).dewey
        with pytest.raises(ExtractError, match="no node with Dewey label 0.3"):
            PostingList.from_labels([foreign], tree)

    @pytest.mark.parametrize("ids", [[-1], [0, 13], [4, 10**9]])
    def test_out_of_range_ids_are_an_error_not_a_wrap_around(self, tree, ids):
        assert tree.size_nodes == 13
        with pytest.raises(IndexError_, match="outside the 13-node tree"):
            PostingList(tree.shape, ids)

    def test_with_changes_checks_what_it_adds(self, tree):
        with pytest.raises(IndexError_):
            PostingList(tree.shape, [1]).with_changes(added=[13])

    def test_union_refuses_lists_of_different_trees(self, tree):
        other = parse_xml(_GRID).tree
        with pytest.raises(IndexError_, match="different trees"):
            PostingList.union_all([PostingList(tree.shape, [1]), PostingList(other.shape, [2])])


class TestSubtreeQueries:
    def test_has_descendant_of(self, tree):
        postings = plist(tree, "0.1", "2")
        assert postings.has_descendant_of(pre(tree, "0"))
        assert postings.has_descendant_of(pre(tree, "0.1"))
        assert postings.has_descendant_of(pre(tree, "2"))
        assert not postings.has_descendant_of(pre(tree, "0.2"))
        assert not postings.has_descendant_of(pre(tree, "1"))

    def test_descendants_of(self, tree):
        postings = plist(tree, "0", "0.1", "0.2", "1")
        assert labels(tree, postings.descendants_of(pre(tree, "0"))) == ["0", "0.1", "0.2"]
        assert labels(tree, postings.descendants_of(pre(tree, "0.1"))) == ["0.1"]

    def test_descendants_of_root(self, tree):
        postings = plist(tree, "0", "1.2")
        assert labels(tree, postings.descendants_of(0)) == ["0", "1.2"]

    def test_descendants_of_no_match(self, tree):
        assert len(plist(tree, "2").descendants_of(pre(tree, "1"))) == 0


class TestMerging:
    def test_union_all(self, tree):
        lists = [PostingList(tree.shape, [0]), PostingList(tree.shape, [1]), PostingList(tree.shape, [0])]
        merged = PostingList.union_all(lists)
        assert list(merged) == [0, 1]
        assert merged.shape is tree.shape


class TestClosestMatch:
    """``closest_match`` (Indexed Lookup Eager, [7]): the neighbour with the
    deeper LCA, with the documented lm-first tie-break."""

    def closest(self, tree, postings, text):
        found = postings.closest_match(pre(tree, text))
        return None if found is None else str(tree.nodes_by_pre[found].dewey)

    def test_prefers_deeper_lca(self, tree):
        # anchor 0.1: the left neighbour shares the subtree 0, the right nothing
        assert self.closest(tree, plist(tree, "0.0", "1.2"), "0.1") == "0.0"

    def test_exact_hit(self, tree):
        assert self.closest(tree, plist(tree, "0.0", "1", "2"), "1") == "1"

    def test_symmetric_neighbours_prefer_left(self, tree):
        # Anchor 1.1 sits exactly between matches 1.0 and 1.2: both
        # neighbours yield the LCA "1" (depth 1).  The tie must break left.
        assert self.closest(tree, plist(tree, "1.0", "1.2"), "1.1") == "1.0"

    def test_symmetric_document_slca_unaffected_by_tie(self, tree):
        # In a perfectly symmetric document the SLCA is identical whichever
        # neighbour wins the tie, because equal-depth LCAs with the anchor
        # are the same node (both are ancestors of the anchor).
        from repro.search.lca import brute_force_slca
        from repro.search.slca import compute_slca

        anchors = plist(tree, "0.1", "1.1")
        matches = plist(tree, "0.0", "0.2", "1.0", "1.2")
        assert compute_slca([anchors, matches]) == brute_force_slca([anchors, matches])
        assert labels(tree, compute_slca([anchors, matches])) == ["0", "1"]

    def test_deeper_left_lca_wins(self, tree):
        assert self.closest(tree, plist(tree, "1.0", "2"), "1.1") == "1.0"

    def test_deeper_right_lca_wins(self, tree):
        assert self.closest(tree, plist(tree, "0", "1.1"), "1.0") == "1.1"

    def test_only_left_neighbour(self, tree):
        assert self.closest(tree, plist(tree, "0.0"), "2") == "0.0"

    def test_only_right_neighbour(self, tree):
        assert self.closest(tree, plist(tree, "2.0"), "0") == "2.0"

    def test_empty_list_returns_none(self, tree):
        assert PostingList(tree.shape).closest_match(1) is None
