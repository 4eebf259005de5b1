"""Snippet presentation: plain text and static HTML.

The original demo presented snippets on a PHP web page (Figure 5) with a
link from each snippet to its full query result.  The reproduction renders
the same artefacts without a server: a terminal-friendly text rendering
used by the example scripts, and a standalone HTML page that can be opened
in a browser.
"""

from __future__ import annotations

import html
import os
from typing import TYPE_CHECKING

from repro.snippet.generator import GeneratedSnippet, SnippetBatch
from repro.xmltree.node import XMLNode
from repro.xmltree.serialize import to_xml_string

if TYPE_CHECKING:
    from repro.snippet.baselines import TextSnippet


# ---------------------------------------------------------------------- #
# text rendering
# ---------------------------------------------------------------------- #
def render_snippet_text(generated: GeneratedSnippet, show_ilist: bool = False) -> str:
    """Render one snippet as an indented outline (terminal friendly).

    The outline is the pre-order walk of the snippet tree, which is the
    selected ``pre`` ids in ascending order (:meth:`Snippet.selected_pres`);
    a line's depth is the node's level below the result root, plus one.

    >>> # see examples/quickstart.py for output samples
    """
    snippet = generated.snippet
    header = f"Result #{generated.result.result_id}"
    key_texts = [item.text for item in generated.ilist.items if item.kind.value == "key"]
    if key_texts:
        header += f" — {key_texts[0]}"
    header += (
        f"  [snippet: {snippet.size_edges} edges, "
        f"{generated.covered_items}/{generated.coverable_items} items]"
    )
    lines = [header]
    source = snippet.result.source
    nodes, level = source.nodes_by_pre, source.shape.level
    pres = snippet.selected_pres()
    base = level[pres[0]] - 1
    for pre in pres:
        node = nodes[pre]
        text = node.text
        indent = "  " * (level[pre] - base)
        lines.append(f"{indent}{node.tag}: {text}" if text else f"{indent}{node.tag}")
    if show_ilist:
        lines.append("  IList: " + ", ".join(generated.ilist.texts()))
    return "\n".join(lines)


def render_batch_text(batch: SnippetBatch, show_ilist: bool = False) -> str:
    """Render all snippets of a result set, rank order."""
    blocks = [render_snippet_text(generated, show_ilist=show_ilist) for generated in batch]
    title = f'Query: "{batch.query.raw}"  (size bound: {batch.size_bound} edges, {len(batch)} results)'
    return "\n\n".join([title] + blocks)


def render_text_snippet(snippet: TextSnippet) -> str:
    """Render a flat text-window snippet (the Google-Desktop baseline)."""
    return f"Result #{snippet.result.result_id} — ...{snippet.text}..."


# ---------------------------------------------------------------------- #
# HTML rendering (Figure 5 analogue)
# ---------------------------------------------------------------------- #
_PAGE_TEMPLATE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>eXtract — {query}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
.snippet {{ border: 1px solid #ccc; border-radius: 6px; padding: 0.8em 1.2em; margin: 1em 0; }}
.snippet h3 {{ margin: 0 0 0.4em 0; }}
.snippet ul {{ list-style: none; padding-left: 1.2em; margin: 0.2em 0; }}
.tag {{ color: #7b2d8b; }}
.value {{ color: #1a4d8f; font-weight: bold; }}
.meta {{ color: #777; font-size: 0.85em; }}
details {{ margin-top: 0.5em; }}
pre {{ background: #f7f7f7; padding: 0.6em; overflow-x: auto; }}
</style>
</head>
<body>
<h1>eXtract result snippets</h1>
<p>Query: <b>{query}</b> &nbsp;|&nbsp; snippet size bound: {bound} edges &nbsp;|&nbsp; {count} results</p>
{snippets}
</body>
</html>
"""

_SNIPPET_TEMPLATE = """<div class="snippet">
<h3>Result #{rank}{key}</h3>
{tree}
<p class="meta">snippet: {edges} edges &middot; IList items covered: {covered}/{total}</p>
<details><summary>full query result</summary><pre>{full}</pre></details>
</div>
"""


def render_snippet_html(generated: GeneratedSnippet) -> str:
    """Render one snippet as an HTML fragment (nested list + result link)."""
    tree = generated.snippet.to_tree()
    key_texts = [item.text for item in generated.ilist.items if item.kind.value == "key"]
    key = f" — {html.escape(key_texts[0])}" if key_texts else ""
    return _SNIPPET_TEMPLATE.format(
        rank=generated.result.result_id,
        key=key,
        tree=_render_node_html(tree.root),
        edges=generated.snippet.size_edges,
        covered=generated.covered_items,
        total=generated.coverable_items,
        full=html.escape(to_xml_string(generated.result.to_tree(), include_declaration=False)),
    )


def _render_node_html(node: XMLNode) -> str:
    value = f' <span class="value">{html.escape(node.text)}</span>' if node.text else ""
    children = "".join(f"<li>{_render_node_html(child)}</li>" for child in node.children)
    children_html = f"<ul>{children}</ul>" if children else ""
    return f'<span class="tag">{html.escape(node.tag)}</span>{value}{children_html}'


def render_result_page(batch: SnippetBatch) -> str:
    """Render a complete standalone HTML page for a snippet batch."""
    snippets = "\n".join(render_snippet_html(generated) for generated in batch)
    return _PAGE_TEMPLATE.format(
        query=html.escape(batch.query.raw),
        bound=batch.size_bound,
        count=len(batch),
        snippets=snippets,
    )


def write_result_page(batch: SnippetBatch, path: str | os.PathLike[str]) -> str:
    """Write the HTML page to disk and return the path written."""
    target = os.fspath(path)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(render_result_page(batch))
    return target
