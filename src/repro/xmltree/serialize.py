"""Serialisation of :class:`~repro.xmltree.tree.XMLTree` back to text.

Round-tripping through :func:`to_xml_string` and
:func:`repro.xmltree.parser.parse_xml` is exercised by property-based tests
to make sure the parser and serialiser agree on the data model.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
}


def escape_text(text: str) -> str:
    """Escape characters that are markup-significant in element content."""
    for char, replacement in _ESCAPES.items():
        text = text.replace(char, replacement)
    return text


def to_xml_string(
    tree_or_node: XMLTree | XMLNode,
    indent: str = "  ",
    include_declaration: bool = True,
) -> str:
    """Serialise a tree (or a detached subtree) to pretty-printed XML.

    Leaf elements are rendered on one line (``<city>Houston</city>``);
    elements with children get one line per child, indented.
    """
    node = tree_or_node.root if isinstance(tree_or_node, XMLTree) else tree_or_node
    lines: list[str] = []
    if include_declaration:
        lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    # Iterative (depth is data, not interpreter stack): an element with
    # children leaves its end-tag line on the stack, under its children.
    pending: list[tuple[XMLNode, int] | str] = [(node, 0)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, level = item
        pad = indent * level
        text = escape_text(node.text) if node.text else ""
        if not node.children:
            if text:
                lines.append(f"{pad}<{node.tag}>{text}</{node.tag}>")
            else:
                lines.append(f"{pad}<{node.tag}/>")
            continue
        lines.append(f"{pad}<{node.tag}>")
        if text:
            lines.append(f"{pad}{indent}{text}")
        pending.append(f"{pad}</{node.tag}>")
        pending.extend((child, level + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"


def to_plain_dict(tree_or_node: XMLTree | XMLNode) -> dict[str, object]:
    """Convert a tree to plain nested dictionaries (JSON-friendly).

    Each node becomes ``{"tag": ..., "text": ..., "children": [...]}``.
    The inverse of :func:`from_plain_dict`.
    """
    node = tree_or_node.root if isinstance(tree_or_node, XMLTree) else tree_or_node
    return {
        "tag": node.tag,
        "text": node.text,
        "children": [to_plain_dict(child) for child in node.children],
    }


def from_plain_dict(data: Mapping[str, object], name: str = "document") -> XMLTree:
    """Rebuild a tree from the output of :func:`to_plain_dict`."""
    root = _node_from_plain(data)
    return XMLTree(root, name=name)


def _node_from_plain(data: Mapping[str, object]) -> XMLNode:
    node = XMLNode(str(data["tag"]), data.get("text") if data.get("text") else None)
    for child in data.get("children", []):  # type: ignore[union-attr]
        node._attach(_node_from_plain(child))  # type: ignore[arg-type]
    return node


def to_outline(tree_or_node: XMLTree | XMLNode, max_depth: int | None = None) -> str:
    """Render an indented tag outline for debugging and examples.

    >>> from repro.xmltree.builder import tree_from_dict
    >>> print(to_outline(tree_from_dict("a", {"b": "1"})))
    a
      b: 1
    """
    node = tree_or_node.root if isinstance(tree_or_node, XMLTree) else tree_or_node
    lines: list[str] = []
    _outline(node, lines, 0, max_depth)
    return "\n".join(lines)


def _outline(node: XMLNode, lines: list[str], level: int, max_depth: int | None) -> None:
    if max_depth is not None and level > max_depth:
        return
    suffix = f": {node.text}" if node.text else ""
    lines.append(f"{'  ' * level}{node.tag}{suffix}")
    for child in node.children:
        _outline(child, lines, level + 1, max_depth)
