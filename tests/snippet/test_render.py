"""Tests for snippet rendering (text and HTML)."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.xseek import build_result_tree
from repro.snippet.baselines import TextWindowSnippetGenerator
from repro.snippet.generator import SnippetGenerator
from repro.snippet.ilist import IListItem, ItemKind
from repro.snippet.render import (
    render_batch_text,
    render_result_page,
    render_snippet_html,
    render_snippet_text,
    render_text_snippet,
    write_result_page,
)
from repro.xmltree.builder import tree_from_dict
from tests.search.test_search_off_label_path import query_pool


@pytest.fixture()
def figure5_batch(figure5_idx):
    results = SearchEngine(figure5_idx).search("store texas")
    return SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)


class TestTextRendering:
    def test_snippet_text_shows_tags_and_values(self, figure5_batch):
        text = render_snippet_text(figure5_batch[0])
        assert "store" in text
        assert "Texas" in text
        assert "edges" in text

    def test_snippet_text_header_contains_key(self, figure5_batch):
        text = render_snippet_text(figure5_batch[0])
        assert ("Levis" in text) or ("ESprit" in text)

    def test_show_ilist_flag(self, figure5_batch):
        with_ilist = render_snippet_text(figure5_batch[0], show_ilist=True)
        without = render_snippet_text(figure5_batch[0], show_ilist=False)
        assert "IList:" in with_ilist
        assert "IList:" not in without

    def test_batch_rendering_includes_query_and_all_results(self, figure5_batch):
        text = render_batch_text(figure5_batch)
        assert "store texas" in text
        assert text.count("Result #") == len(figure5_batch)

    def test_text_snippet_rendering(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        flat = TextWindowSnippetGenerator().generate(results[0], 6)
        rendered = render_text_snippet(flat)
        assert rendered.startswith("Result #")
        assert "..." in rendered


def tree_walk_render_text(generated, show_ilist=False) -> str:
    """The text renderer as it was when it copied the snippet into a tree
    (``Snippet.to_tree``) and walked the copy: the oracle for the renderer
    that walks the selected ``pre`` ids."""
    tree = generated.snippet.to_tree()
    lines: list[str] = []
    header = f"Result #{generated.result.result_id}"
    key_texts = [item.text for item in generated.ilist.items if item.kind.value == "key"]
    if key_texts:
        header += f" — {key_texts[0]}"
    header += (
        f"  [snippet: {generated.snippet.size_edges} edges, "
        f"{generated.covered_items}/{len(generated.ilist.coverable_items())} items]"
    )
    lines.append(header)

    def walk(node, level):
        suffix = f": {node.text}" if node.text else ""
        lines.append(f"{'  ' * level}{node.tag}{suffix}")
        for child in node.children:
            walk(child, level + 1)

    walk(tree.root, 1)
    if show_ilist:
        lines.append("  IList: " + ", ".join(generated.ilist.texts()))
    return "\n".join(lines)


def unselected_children(generated) -> int:
    """The most unselected children any selected node of the snippet has."""
    snippet = generated.snippet
    nodes = snippet.result.source.nodes_by_pre
    return max(
        sum(not snippet.contains(child.pre) for child in nodes[pre].children)
        for pre in snippet.selected_pres()
    )


class TestRenderingFromIds:
    @pytest.mark.parametrize("builtin", ["retail", "movies"])
    def test_every_snippet_renders_as_the_tree_walk_did(self, builtin):
        corpus = Corpus()
        corpus.add_builtin(builtin)
        index = corpus.system(builtin).index
        engine = SearchEngine(index)
        generator = SnippetGenerator(index.analyzer)
        rendered = widest = 0
        for query in query_pool(index):
            for result in engine.search(query):
                for bound in (6, 14):
                    generated = generator.generate(result, size_bound=bound)
                    assert render_snippet_text(generated) == tree_walk_render_text(
                        generated
                    ), (query, str(result.root), bound)
                    widest = max(widest, unselected_children(generated))
                    rendered += 1
            assert render_snippet_text(generated, show_ilist=True) == tree_walk_render_text(
                generated, show_ilist=True
            )
        assert rendered > 100
        # selected nodes whose children the snippet mostly leaves out
        assert widest >= 5

    def test_a_selected_node_with_many_unselected_children(self):
        shop = tree_from_dict(
            "shop",
            {
                "name": "Corner",
                "item": [
                    {"label": f"item {n}", "parts": {"part": [f"p{n}a", f"p{n}b"]}}
                    for n in range(40)
                ],
            },
            name="shop",
        )
        index = IndexBuilder().build(shop)
        result = build_result_tree(index, KeywordQuery.parse("shop"), 0)
        nodes = index.tree.nodes_by_pre
        generated = SnippetGenerator(index.analyzer).generate(result, size_bound=1)
        snippet = generated.snippet
        assert snippet.selected_pres() == [0, 2]  # the shop and its first item
        # two deep nodes far apart: the shop keeps 38 of its 41 children
        # unselected, and the paths to them lie between those children
        for label in ("item 3", "item 31"):
            part = next(
                node.children[1].children[1].pre
                for node in nodes
                if node.tag == "item" and node.children[0].text == label
            )
            item = IListItem(kind=ItemKind.KEYWORD, text=label, identity=label, instances=[part])
            snippet.add_instance(item, part)
        assert unselected_children(generated) == 38
        text = render_snippet_text(generated)
        assert text == tree_walk_render_text(generated)
        assert text.splitlines()[1:] == [
            "  shop",
            "    item",
            "    item",
            "      parts",
            "        part: p3b",
            "    item",
            "      parts",
            "        part: p31b",
        ]


class TestHtmlRendering:
    def test_fragment_contains_tags_and_values(self, figure5_batch):
        html_fragment = render_snippet_html(figure5_batch[0])
        assert '<div class="snippet">' in html_fragment
        assert "store" in html_fragment
        assert "Texas" in html_fragment

    def test_fragment_escapes_content(self, figure5_batch):
        html_fragment = render_snippet_html(figure5_batch[0])
        assert "<Texas>" not in html_fragment  # values are escaped/wrapped

    def test_full_page_structure(self, figure5_batch):
        page = render_result_page(figure5_batch)
        assert page.startswith("<!DOCTYPE html>")
        assert page.count('<div class="snippet">') == len(figure5_batch)
        assert "store texas" in page

    def test_full_result_embedded_for_drill_down(self, figure5_batch):
        page = render_result_page(figure5_batch)
        assert "<details>" in page and "full query result" in page

    def test_write_result_page(self, figure5_batch, tmp_path):
        target = tmp_path / "page.html"
        written = write_result_page(figure5_batch, target)
        assert written == str(target)
        assert target.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
