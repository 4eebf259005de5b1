"""Tests for Dewey labels."""

from __future__ import annotations

import pytest

from repro.errors import DeweyError
from repro.xmltree.dewey import Dewey
from tests.search.reference_lca import common_ancestor_of_all, remove_ancestors


class TestConstruction:
    def test_root(self):
        assert Dewey.root().is_root
        assert Dewey.root().depth == 0

    def test_components(self):
        assert Dewey((0, 2, 1)).components == (0, 2, 1)

    def test_negative_component_rejected(self):
        with pytest.raises(DeweyError):
            Dewey((0, -1))

    def test_parse_round_trip(self):
        label = Dewey((3, 0, 7))
        assert Dewey.parse(str(label)) == label

    def test_parse_root_forms(self):
        assert Dewey.parse("r") == Dewey.root()
        assert Dewey.parse("") == Dewey.root()

    def test_parse_malformed(self):
        with pytest.raises(DeweyError):
            Dewey.parse("1.x.2")

    def test_str_of_root(self):
        assert str(Dewey.root()) == "r"

    def test_repr(self):
        assert repr(Dewey((1, 2))) == "Dewey('1.2')"


class TestNavigation:
    def test_child(self):
        assert Dewey((0,)).child(3) == Dewey((0, 3))

    def test_child_negative_rejected(self):
        with pytest.raises(DeweyError):
            Dewey((0,)).child(-1)

    def test_parent(self):
        assert Dewey((0, 3)).parent() == Dewey((0,))

    def test_parent_of_root_raises(self):
        with pytest.raises(DeweyError):
            Dewey.root().parent()

    def test_ordinal(self):
        assert Dewey((0, 3)).ordinal == 3

    def test_ordinal_of_root_raises(self):
        with pytest.raises(DeweyError):
            _ = Dewey.root().ordinal

    def test_ancestors_excluding_self(self):
        ancestors = list(Dewey((1, 2, 3)).ancestors())
        assert ancestors == [Dewey(()), Dewey((1,)), Dewey((1, 2))]

    def test_ancestors_including_self(self):
        ancestors = list(Dewey((1, 2)).ancestors(include_self=True))
        assert ancestors[-1] == Dewey((1, 2))

    def test_prefix(self):
        assert Dewey((1, 2, 3)).prefix(2) == Dewey((1, 2))

    def test_prefix_out_of_range(self):
        with pytest.raises(DeweyError):
            Dewey((1,)).prefix(5)


class TestRelationships:
    def test_is_ancestor_of(self):
        assert Dewey((0,)).is_ancestor_of(Dewey((0, 1, 2)))
        assert not Dewey((0,)).is_ancestor_of(Dewey((1,)))

    def test_ancestor_is_strict(self):
        assert not Dewey((0, 1)).is_ancestor_of(Dewey((0, 1)))

    def test_is_descendant_of(self):
        assert Dewey((0, 1)).is_descendant_of(Dewey((0,)))

    def test_ancestor_or_self(self):
        assert Dewey((0, 1)).is_ancestor_or_self(Dewey((0, 1)))
        assert Dewey((0,)).is_ancestor_or_self(Dewey((0, 1)))
        assert not Dewey((0, 2)).is_ancestor_or_self(Dewey((0, 1)))

    def test_siblings(self):
        assert Dewey((0, 1)).is_sibling_of(Dewey((0, 2)))
        assert not Dewey((0, 1)).is_sibling_of(Dewey((0, 1)))
        assert not Dewey((0, 1)).is_sibling_of(Dewey((1, 1)))

    def test_root_has_no_siblings(self):
        assert not Dewey.root().is_sibling_of(Dewey((0,)))

    def test_common_ancestor(self):
        assert Dewey.common_ancestor(Dewey((0, 1, 2)), Dewey((0, 1, 5))) == Dewey((0, 1))
        assert Dewey.common_ancestor(Dewey((0,)), Dewey((1,))) == Dewey.root()

    def test_common_ancestor_with_ancestor(self):
        assert Dewey.common_ancestor(Dewey((0, 1)), Dewey((0,))) == Dewey((0,))

    def test_common_ancestor_of_all(self):
        labels = [Dewey((0, 1, 2)), Dewey((0, 1, 3)), Dewey((0, 2))]
        assert common_ancestor_of_all(labels) == Dewey((0,))

    def test_common_ancestor_of_all_empty_raises(self):
        with pytest.raises(DeweyError):
            common_ancestor_of_all([])

    def test_distance_to_ancestor(self):
        assert Dewey((0, 1, 2)).distance_to_ancestor(Dewey((0,))) == 2
        assert Dewey((0, 1)).distance_to_ancestor(Dewey((0, 1))) == 0

    def test_distance_to_non_ancestor_raises(self):
        with pytest.raises(DeweyError):
            Dewey((0, 1)).distance_to_ancestor(Dewey((1,)))

    def test_tree_distance(self):
        assert Dewey((0, 1)).tree_distance(Dewey((0, 2))) == 2
        assert Dewey((0,)).tree_distance(Dewey((0, 1, 2))) == 2
        assert Dewey((0,)).tree_distance(Dewey((0,))) == 0


class TestOrdering:
    def test_document_order_ancestor_first(self):
        assert Dewey((0,)) < Dewey((0, 1))

    def test_document_order_siblings(self):
        assert Dewey((0, 1)) < Dewey((0, 2))

    def test_sorting(self):
        labels = [Dewey((1,)), Dewey((0, 5)), Dewey((0,)), Dewey.root()]
        assert sorted(labels) == [Dewey.root(), Dewey((0,)), Dewey((0, 5)), Dewey((1,))]

    def test_hashable(self):
        assert len({Dewey((0, 1)), Dewey((0, 1)), Dewey((0, 2))}) == 2

    def test_equality_with_other_types(self):
        assert Dewey((0,)) != "0"

    def test_len_iter_getitem(self):
        label = Dewey((4, 5, 6))
        assert len(label) == 3
        assert list(label) == [4, 5, 6]
        assert label[1] == 5


class TestAntichainHelpers:
    def test_remove_ancestors(self):
        labels = [Dewey((0,)), Dewey((0, 1)), Dewey((0, 2)), Dewey((1,))]
        assert remove_ancestors(labels) == [Dewey((0, 1)), Dewey((0, 2)), Dewey((1,))]

    def test_remove_ancestors_chain(self):
        labels = [Dewey(()), Dewey((0,)), Dewey((0, 1)), Dewey((0, 1, 2))]
        assert remove_ancestors(labels) == [Dewey((0, 1, 2))]

    def test_remove_ancestors_deduplicates(self):
        labels = [Dewey((0,)), Dewey((0,))]
        assert remove_ancestors(labels) == [Dewey((0,))]
