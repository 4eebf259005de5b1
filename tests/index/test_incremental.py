"""Tests for posting-level deltas and incremental DocumentIndex updates.

The invariant throughout: the incrementally updated index must be
*observably identical* to a from-scratch build of the edited document —
same vocabulary, same posting lists, same analyzer summary and keys.
"""

from __future__ import annotations

import pytest

from repro.errors import IndexError_
from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.postings import PostingList
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.diff import diff_trees


#: a flat ten-node document: with_changes is pure id arithmetic
SHAPE = tree_from_dict("r", {"leaf": ["x"] * 9}).shape


class TestPostingListWithChanges:
    def test_add_and_remove(self):
        plist = PostingList(SHAPE, [0, 2, 4])
        changed = plist.with_changes(added=[1, 6], removed=[2])
        assert list(changed) == [0, 1, 4, 6]

    def test_original_untouched(self):
        plist = PostingList(SHAPE, [0, 1])
        plist.with_changes(removed=[0])
        assert list(plist) == [0, 1]

    def test_add_existing_id_is_idempotent(self):
        plist = PostingList(SHAPE, [0])
        assert list(plist.with_changes(added=[0])) == [0]

    def test_remove_then_add_same_id_keeps_it(self):
        plist = PostingList(SHAPE, [0, 1])
        changed = plist.with_changes(added=[1], removed=[1])
        assert list(changed) == [0, 1]

    def test_empty_base(self):
        changed = PostingList(SHAPE).with_changes(added=[2, 1])
        assert list(changed) == [1, 2]

    def test_matches_constructor_semantics(self):
        base = [0, 2, 5, 7]
        added = [1, 4, 2]
        removed = [7, 3]
        merged = PostingList(SHAPE, base).with_changes(added=added, removed=removed)
        expected = PostingList(SHAPE, (set(base) - set(removed)) | set(added))
        assert merged == expected
        assert merged.shape is SHAPE


class TestInvertedApplyDelta:
    def build(self, city):
        tree = tree_from_dict(
            "shop",
            {"store": [{"city": city}, {"city": "Austin"}]},
            name="shop",
        )
        return tree, IndexBuilder().build(tree)

    def test_delta_matches_rebuild(self):
        _, old = self.build("Houston")
        new_tree, fresh = self.build("Dallas")
        diff = diff_trees(old.tree, new_tree)
        update = apply_text_update(old, new_tree, diff)
        assert update.index.inverted.vocabulary == fresh.inverted.vocabulary
        for term, postings in fresh.inverted.postings_dict().items():
            assert update.index.inverted.postings_dict()[term] == postings, term

    def test_untouched_posting_lists_are_shared(self):
        _, old = self.build("Houston")
        new_tree, _ = self.build("Dallas")
        update = apply_text_update(old, new_tree, diff_trees(old.tree, new_tree))
        old_postings = old.inverted.postings_dict()
        new_postings = update.index.inverted.postings_dict()
        assert new_postings["austin"] is old_postings["austin"]
        assert new_postings["store"] is old_postings["store"]

    def test_term_leaving_vocabulary(self):
        _, old = self.build("Houston")
        new_tree, _ = self.build("Dallas")
        update = apply_text_update(old, new_tree, diff_trees(old.tree, new_tree))
        assert "houston" not in update.index.inverted.postings_dict()
        assert update.index.inverted.lookup("houston").is_empty
        assert not update.index.inverted.lookup("dallas").is_empty

    def test_text_sharing_tag_token_keeps_tag_posting(self):
        # The node <store>store</store> is indexed under "store" via BOTH its
        # tag and its text; removing the text must not remove the label.
        tree = tree_from_dict("shop", {"store": [{"name": "store"}, {"name": "other"}]})
        old = IndexBuilder().build(tree)
        new_tree = tree_from_dict("shop", {"store": [{"name": "changed"}, {"name": "other"}]})
        update = apply_text_update(old, new_tree, diff_trees(tree, new_tree))
        fresh = IndexBuilder().build(new_tree)
        assert update.index.inverted.postings_dict() == fresh.inverted.postings_dict()
        assert not update.index.inverted.lookup("name").is_empty

    def test_structural_diff_rejected(self):
        tree = tree_from_dict("shop", {"store": [{"city": "Houston"}]})
        old = IndexBuilder().build(tree)
        bigger = tree_from_dict("shop", {"store": [{"city": "Houston"}, {"city": "Austin"}]})
        with pytest.raises(IndexError_):
            apply_text_update(old, bigger, diff_trees(tree, bigger))


class TestAnalyzerRebind:
    def trees(self, galleria_city, downtown_name="Downtown"):
        return tree_from_dict(
            "retailer",
            {
                "name": "Brook Brothers",
                "store": [
                    {"name": "Galleria", "city": galleria_city},
                    {"name": downtown_name, "city": "Austin"},
                ],
            },
            name="retailer",
        )

    def apply(self, old_tree, new_tree):
        old = IndexBuilder().build(old_tree)
        return apply_text_update(old, new_tree, diff_trees(old_tree, new_tree)), old

    def test_summary_and_categories_preserved(self):
        update, old = self.apply(self.trees("Houston"), self.trees("Dallas"))
        fresh = IndexBuilder().build(self.trees("Dallas"))
        analyzer = update.index.analyzer
        assert analyzer.summary() == fresh.analyzer.summary()
        assert analyzer.categories == fresh.analyzer.categories
        assert analyzer.tree is update.index.tree

    def test_schema_value_counts_follow_edit(self):
        update, _ = self.apply(self.trees("Houston"), self.trees("Dallas"))
        fresh = IndexBuilder().build(self.trees("Dallas"))
        for path, node in fresh.analyzer.schema.nodes.items():
            assert update.index.analyzer.schema.nodes[path].value_counts == node.value_counts, path

    def test_non_key_edit_does_not_remine(self):
        update, _ = self.apply(self.trees("Houston"), self.trees("Dallas"))
        # "city" is not the mined key ("name" is); the edit touches a
        # non-key attribute of store, so store's key IS re-mined (city is a
        # candidate) but keeps the same attribute.
        assert not update.key_attributes_changed
        key = update.index.analyzer.entity_types[("retailer", "store")].key
        assert key is not None and key.attribute_tag == "name"

    def test_key_uniqueness_break_flips_key(self):
        # Make the two store names collide: "name" loses uniqueness and the
        # mined key must move (to "city"), exactly as a fresh build decides.
        old_tree = self.trees("Houston")
        new_tree = self.trees("Houston", downtown_name="Galleria")
        update, _ = self.apply(old_tree, new_tree)
        fresh = IndexBuilder().build(self.trees("Houston", downtown_name="Galleria"))
        incr_key = update.index.analyzer.entity_types[("retailer", "store")].key
        fresh_key = fresh.analyzer.entity_types[("retailer", "store")].key
        assert (incr_key and incr_key.attribute_path) == (
            fresh_key and fresh_key.attribute_path
        )
        assert update.key_attributes_changed

    def test_structure_index_shared(self):
        update, old = self.apply(self.trees("Houston"), self.trees("Dallas"))
        assert update.index.structure is old.structure


class TestChangedTermBookkeeping:
    def test_changed_terms_include_both_forms(self):
        old_tree = tree_from_dict("shop", {"store": [{"note": "stores"}, {"x": "y"}]})
        new_tree = tree_from_dict("shop", {"store": [{"note": "boxes"}, {"x": "y"}]})
        old = IndexBuilder().build(old_tree)
        update = apply_text_update(old, new_tree, diff_trees(old_tree, new_tree))
        # plural and singular forms of both old and new tokens are changed
        assert {"stores", "store", "boxes", "box"} <= set(update.changed_terms)
        assert update.touches_keyword("store")
        assert update.touches_keyword("boxes")
        assert not update.touches_keyword("y")

    def test_changed_pres_are_the_edited_nodes(self):
        old_tree = tree_from_dict("shop", {"a": "one", "b": "two"})
        new_tree = tree_from_dict("shop", {"a": "one", "b": "three"})
        old = IndexBuilder().build(old_tree)
        update = apply_text_update(old, new_tree, diff_trees(old_tree, new_tree))
        assert len(update.changed_pres) == 1
        assert update.index.tree.nodes_by_pre[update.changed_pres[0]].text == "three"

    def test_the_updated_tree_adopts_the_old_shape(self):
        old_tree = tree_from_dict("shop", {"a": "one", "b": "two"})
        new_tree = tree_from_dict("shop", {"a": "one", "b": "three"})
        old = IndexBuilder().build(old_tree)
        update = apply_text_update(old, new_tree, diff_trees(old_tree, new_tree))
        # ... so untouched lists (shared objects) index the new tree too
        assert new_tree.shape is old_tree.shape
        assert update.index.keyword_matches("one") is old.keyword_matches("one")
        assert update.index.keyword_matches("three").shape is new_tree.shape
