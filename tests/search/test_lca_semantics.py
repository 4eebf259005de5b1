"""Tests for SLCA/ELCA semantics (optimised and brute-force reference)."""

from __future__ import annotations

import pytest

from repro.errors import IndexError_
from repro.index.postings import PostingList
from repro.search.elca import compute_elca
from repro.search.lca import brute_force_elca, brute_force_slca, common_ancestor_candidates
from repro.search.slca import compute_slca
from repro.xmltree.parser import parse_xml
from tests.search.label_doc import LabelDoc


def slca(*keywords) -> list[str]:
    doc = LabelDoc(*keywords)
    return doc.texts(compute_slca(doc.lists))


def elca(*keywords) -> list[str]:
    doc = LabelDoc(*keywords)
    return doc.texts(compute_elca(doc.lists))


class TestSLCA:
    def test_basic_two_results(self):
        # two stores each containing both keywords
        assert slca(["0.0", "1.0"], ["0.1", "1.1"]) == ["0", "1"]

    def test_root_is_slca_when_matches_split(self):
        assert slca(["0.0"], ["1.0"]) == ["r"]

    def test_smaller_lca_excludes_ancestor(self):
        # one tight match pair under 0.0 and a stray match of b at 1;
        # the SLCA is 0.0 only (the root is an ancestor of an LCA)
        assert slca(["0.0.0"], ["0.0.1", "1"]) == ["0.0"]

    def test_single_keyword(self):
        # every match is a result; ancestors removed
        assert slca(["0.1", "0.1.2", "2"]) == ["0.1.2", "2"]

    def test_empty_posting_list_gives_no_results(self):
        assert slca(["0"], []) == []
        assert compute_slca([]) == []

    def test_same_node_matches_all_keywords(self):
        assert slca(["0.3"], ["0.3"]) == ["0.3"]

    def test_three_keywords(self):
        assert slca(["0.0", "1.0"], ["0.1", "1.1"], ["0.2", "2"]) == ["0"]

    def test_matches_brute_force_on_fixed_cases(self):
        cases = [
            LabelDoc(["0.0", "1.0"], ["0.1", "1.1"]),
            LabelDoc(["0.0.0", "0.1"], ["0.0.1", "1"], ["0.0.2"]),
            LabelDoc(["0", "1", "2"], ["1.5", "2.9"]),
            LabelDoc(["0.1.2.3"], ["0.1.2.4", "0.2"]),
        ]
        for doc in cases:
            assert compute_slca(doc.lists) == brute_force_slca(doc.lists)

    def test_lists_of_two_trees_are_refused(self):
        # ids of different trees compare without complaint; the shapes do not
        first = parse_xml("<r><a/><b/></r>").tree
        second = parse_xml("<r><a/><b/></r>").tree
        lists = [PostingList(first.shape, [1]), PostingList(second.shape, [2])]
        with pytest.raises(IndexError_, match="different trees"):
            compute_slca(lists)
        with pytest.raises(IndexError_, match="different trees"):
            compute_elca(lists)


class TestELCA:
    def test_elca_includes_ancestor_with_own_witness(self):
        # 0 contains both keywords; the root additionally has its own
        # matches (a at 2, b at 1) -> both 0 and the root are ELCAs.
        assert elca(["0.0", "2"], ["0.1", "1"]) == ["r", "0"]

    def test_elca_excludes_ancestor_without_own_witness(self):
        assert elca(["0.0"], ["0.1"]) == ["0"]

    def test_elca_superset_of_slca(self):
        doc = LabelDoc(["0.0", "2", "1.0.0"], ["0.1", "1", "1.0.1"])
        assert set(compute_slca(doc.lists)) <= set(compute_elca(doc.lists))

    def test_single_keyword_every_match_is_elca(self):
        assert elca(["0", "1.2"]) == ["0", "1.2"]

    def test_empty_input(self):
        assert compute_elca([]) == []
        assert elca(["0"], []) == []

    def test_blocked_witnesses_do_not_count(self):
        # child 0 contains all keywords; the root's only extra match is of
        # keyword a (at 1), keyword b occurs only inside 0 -> root is NOT an ELCA.
        assert elca(["0.0", "1"], ["0.1"]) == ["0"]

    def test_matches_brute_force_on_fixed_cases(self):
        cases = [
            LabelDoc(["0.0", "2"], ["0.1", "1"]),
            LabelDoc(["0.0", "1"], ["0.1"]),
            LabelDoc(["0.0.0", "0.1"], ["0.0.1", "0.2"]),
            LabelDoc(["0", "1"], ["0.0", "1.0"], ["0.1", "1.1"]),
        ]
        for doc in cases:
            assert compute_elca(doc.lists) == brute_force_elca(doc.lists)


class TestBruteForceHelpers:
    def test_common_ancestor_candidates(self):
        doc = LabelDoc(["0.0"], ["0.1"])
        assert doc.texts(sorted(common_ancestor_candidates(doc.lists))) == ["r", "0"]

    def test_candidates_empty_when_no_overlap(self):
        # still share the root
        doc = LabelDoc(["0"], ["1"])
        assert doc.texts(common_ancestor_candidates(doc.lists)) == ["r"]

    def test_candidates_of_empty_input(self):
        assert common_ancestor_candidates([]) == set()

    def test_brute_force_empty_lists(self):
        assert brute_force_slca([]) == []
        doc = LabelDoc(["0"], [])
        assert brute_force_elca(doc.lists) == []
