"""Tests for the document-tree diff behind incremental updates."""

from __future__ import annotations

import pytest

from repro.xmltree.builder import tree_from_dict
from repro.errors import DeweyError, ExtractError
from repro.xmltree.diff import apply_text_edits, clone_tree, diff_trees
from repro.xmltree.parser import parse_xml


def shop(city="Houston", category="suit"):
    return tree_from_dict(
        "shop",
        {
            "name": "Levis",
            "store": [
                {"name": "Galleria", "city": city},
                {"name": "Downtown", "city": "Austin"},
            ],
            "clothes": [{"category": category}],
        },
        name="shop",
    )


class TestEmptyAndTextOnly:
    def test_identical_trees_diff_empty(self):
        diff = diff_trees(shop(), shop())
        assert diff.is_empty
        assert not diff.is_text_only
        assert not diff.is_structural

    def test_clone_diffs_empty(self):
        tree = shop()
        diff = diff_trees(tree, clone_tree(tree))
        assert diff.is_empty

    def test_single_text_edit(self):
        diff = diff_trees(shop(city="Houston"), shop(city="Dallas"))
        assert diff.is_text_only
        assert len(diff.text_edits) == 1
        edit = diff.text_edits[0]
        assert (edit.old_text, edit.new_text) == ("Houston", "Dallas")
        assert edit.tag == "city"
        assert edit.tag_path[-1] == "city"

    def test_multiple_text_edits_in_document_order(self):
        diff = diff_trees(shop("Houston", "suit"), shop("Dallas", "jeans"))
        assert diff.is_text_only
        assert [edit.new_text for edit in diff.text_edits] == ["Dallas", "jeans"]
        labels = [edit.label for edit in diff.text_edits]
        assert labels == sorted(labels)


class TestStructural:
    def test_added_node_is_structural(self):
        old = tree_from_dict("shop", {"store": [{"city": "Houston"}]})
        new = tree_from_dict("shop", {"store": [{"city": "Houston"}, {"city": "Austin"}]})
        diff = diff_trees(old, new)
        assert diff.is_structural
        assert "node count" in diff.structural_reason

    def test_renamed_tag_is_structural(self):
        old = tree_from_dict("shop", {"store": [{"city": "Houston"}]})
        new = tree_from_dict("shop", {"store": [{"town": "Houston"}]})
        diff = diff_trees(old, new)
        assert diff.is_structural
        assert "tag" in diff.structural_reason

    def test_text_presence_flip_is_structural(self):
        # A value disappearing can reclassify the schema node (attribute ->
        # connection), so it must not take the delta path.
        old = tree_from_dict("shop", {"store": [{"city": "Houston"}]})
        new = clone_tree(old)
        for node in new.iter_nodes():
            if node.tag == "city":
                node.text = None
        diff = diff_trees(old, new)
        assert diff.is_structural
        assert "presence" in diff.structural_reason

    def test_empty_string_to_text_is_structural(self):
        # has_text_value is truthiness-based: "" and None are both "no
        # text" to the pipeline, so filling in "" flips classification
        # inputs exactly like filling in None would — structural.
        old = tree_from_dict("shop", {"store": [{"name": "x", "city": "Austin"}]})
        for node in old.iter_nodes():
            if node.tag == "name":
                node.text = ""
        new = tree_from_dict("shop", {"store": [{"name": "Levis", "city": "Austin"}]})
        diff = diff_trees(old, new)
        assert diff.is_structural
        assert "presence" in diff.structural_reason

    def test_empty_string_vs_none_is_no_edit(self):
        # "" and None are indistinguishable to indexing, schema inference
        # and feature extraction; the diff must not manufacture an edit.
        old = tree_from_dict("shop", {"store": [{"name": "x", "city": "Austin"}]})
        new = clone_tree(old)
        for tree in (old, new):
            for node in tree.iter_nodes():
                if node.tag == "name":
                    node.text = "" if tree is old else None
        assert diff_trees(old, new).is_empty

    def test_changed_attributes_are_structural(self):
        old = tree_from_dict("shop", {"store": [{"city": "Houston"}]})
        new = clone_tree(old)
        new.root.raw_attributes["version"] = "2"
        diff = diff_trees(old, new)
        assert diff.is_structural

    def test_reshaped_tree_with_same_node_count_is_structural(self):
        old = tree_from_dict("shop", {"a": {"b": "x"}, "c": "y"})
        new = tree_from_dict("shop", {"a": "x", "c": {"b": "y"}})
        assert old.size_nodes == new.size_nodes
        assert diff_trees(old, new).is_structural

    @pytest.mark.parametrize(
        "old_xml, new_xml",
        [
            # <c> moves from beside <b> to under it
            ("<s><a><b/><c/></a></s>", "<s><a><b><c/></b></a></s>"),
            # <x> moves out of <a>, up to its parent
            ("<s><a><x/></a><b/></s>", "<s><a/><x/><b/></s>"),
            # the last <a> moves from one sibling to under the other
            ("<s><a><a/></a><a/></s>", "<s><a/><a><a/></a></s>"),
            # a whole subtree moves one level down, its text along with it
            ("<s><a>1</a><b><c>2</c></b><d/></s>", "<s><a>1<b><c>2</c></b></a><d/></s>"),
        ],
    )
    def test_reparented_subtree_with_same_tags_in_same_order_is_structural(
        self, old_xml, new_xml
    ):
        # Same node count and the same tags at every pre-order position:
        # only the depth sequence tells the two shapes apart.
        old, new = parse_xml(old_xml).tree, parse_xml(new_xml).tree
        assert [node.tag for node in old.iter_nodes()] == [node.tag for node in new.iter_nodes()]
        for before, after in ((old, new), (new, old)):
            diff = diff_trees(before, after)
            assert diff.is_structural
            assert "shape" in diff.structural_reason

    def test_shape_reason_names_the_first_diverging_labels(self):
        old = parse_xml("<s><a><b/><c/></a></s>").tree
        new = parse_xml("<s><a><b><c/></b></a></s>").tree
        assert diff_trees(old, new).structural_reason == "tree shape changed near 0.1 / 0.0.0"

    def test_same_shape_is_judged_by_content_not_by_label_objects(self):
        old = parse_xml("<s><a><b>x</b><c/></a></s>").tree
        new = parse_xml("<s>\n <a>\n  <b>y</b>\n  <c/>\n </a>\n</s>").tree
        diff = diff_trees(old, new)
        assert diff.is_text_only
        assert [(str(edit.label), edit.old_text, edit.new_text) for edit in diff.text_edits] == [
            ("0.0", "x", "y")
        ]


class TestCloneTree:
    def test_clone_preserves_name_and_content(self):
        tree = shop()
        copy = clone_tree(tree)
        assert copy.name == tree.name
        assert copy.size_nodes == tree.size_nodes
        assert [node.dewey for node in copy.iter_nodes()] == [
            node.dewey for node in tree.iter_nodes()
        ]

    def test_clone_is_independent(self):
        tree = shop()
        copy = clone_tree(tree)
        for node in copy.iter_nodes():
            if node.tag == "city":
                node.text = "Elsewhere"
        assert diff_trees(tree, copy).is_text_only

    def test_clone_rename(self):
        assert clone_tree(shop(), name="other").name == "other"


class TestApplyTextEdits:
    """How a journal ``update`` record and a replication delta are applied."""

    def test_edits_spelled_by_a_diff_reproduce_the_new_version(self):
        old, new = shop(city="Houston", category="suit"), shop(city="Dallas", category="coat")
        edits = [(str(edit.label), edit.new_text) for edit in diff_trees(old, new).text_edits]
        assert len(edits) == 2

        edited = apply_text_edits(old, edits)

        assert edited is not old and edited.name == old.name
        assert diff_trees(edited, new).is_empty
        assert diff_trees(old, shop()).is_empty  # the source is not touched

    def test_an_empty_text_clears_the_value(self):
        city = shop().find_by_tag("city")[0]
        edited = apply_text_edits(shop(), [(str(city.dewey), "")])
        assert edited.node(city.dewey).text is None

    def test_each_edit_costs_one_lookup(self, monkeypatch):
        tree = shop()
        labels = [str(node.dewey) for node in tree.find_by_tag("city")]
        lookups = []
        find_node = type(tree).find_node
        monkeypatch.setattr(
            type(tree), "find_node", lambda self, label: lookups.append(label) or find_node(self, label)
        )
        apply_text_edits(tree, [(label, "Waco") for label in labels])
        assert [str(label) for label in lookups] == labels

    @pytest.mark.parametrize("label", ["9.9.9", "1.0.0", "4"])
    def test_a_label_that_names_no_node_is_named(self, label):
        with pytest.raises(ExtractError, match=f"^missing node {label}$"):
            apply_text_edits(shop(), [("1.0", "fine"), (label, "nowhere")])

    def test_a_malformed_label_is_a_dewey_error(self):
        with pytest.raises(DeweyError, match="malformed Dewey label text '1.x'"):
            apply_text_edits(shop(), [("1.x", "nowhere")])
