"""The scanner ``repro.xmltree.parser`` was before the tokenizer rewrite, frozen.

TEST-ONLY REFERENCE.  This is the cursor-and-recursion parser exactly as it
stood at commit f87575b (the parent of the rewrite), kept so that
``tests/property/test_property_parser_differential.py`` can hold the
tokenizer parser to the same accepted language, the same trees and the
same rejections.  Nothing under ``src/`` imports it and nothing should: it
is O(n * depth) in labelling work, recursive (a 1,200-deep document is a
``RecursionError``) and lets ``ValueError`` / ``OverflowError`` escape for
out-of-range character references.  Do not fix it — its bugs are the two
named divergences the differential test permits.
"""


from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.errors import XMLParseError
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_.\-:]*")
_ATTR_RE = re.compile(
    r"""\s+([A-Za-z_:][A-Za-z0-9_.\-:]*)\s*=\s*("([^"]*)"|'([^']*)')"""
)
_CHARREF_RE = re.compile(r"&(#x?[0-9A-Fa-f]+|[A-Za-z]+);")

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


@dataclass
class ParseResult:
    """The outcome of parsing: the tree plus the raw internal DTD subset."""

    tree: XMLTree
    dtd_text: str | None
    doctype_name: str | None


class _Cursor:
    """Tracks position in the source text and computes line/column lazily."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.text)

    def location(self) -> tuple[int, int]:
        prefix = self.text[: self.pos]
        line = prefix.count("\n") + 1
        column = self.pos - (prefix.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> XMLParseError:
        line, column = self.location()
        return XMLParseError(message, line=line, column=column)

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def skip_whitespace(self) -> None:
        while not self.exhausted and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def consume(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def find(self, token: str) -> int:
        return self.text.find(token, self.pos)


def decode_entities(text: str) -> str:
    """Replace predefined entities and character references in ``text``."""

    def _replace(match: re.Match[str]) -> str:
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        if body in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[body]
        # Unknown named entity: keep it verbatim rather than failing, the
        # datasets we parse never rely on external entity definitions.
        return match.group(0)

    return _CHARREF_RE.sub(_replace, text)


def parse_xml(
    text: str,
    name: str = "document",
    attributes_as_children: bool = True,
) -> ParseResult:
    """Parse XML text into a :class:`ParseResult`.

    >>> result = parse_xml("<a><b>hi</b></a>")
    >>> result.tree.root.tag
    'a'
    >>> result.tree.root.children[0].text
    'hi'
    """
    if not isinstance(text, str):
        raise XMLParseError(f"expected XML text as str, got {type(text).__name__}")
    cursor = _Cursor(text)
    dtd_text: str | None = None
    doctype_name: str | None = None

    # ---- prolog: XML declaration, comments, PIs, DOCTYPE ---- #
    root: XMLNode | None = None
    while True:
        cursor.skip_whitespace()
        if cursor.exhausted:
            raise cursor.error("document contains no root element")
        if cursor.startswith("<?"):
            _skip_processing_instruction(cursor)
        elif cursor.startswith("<!--"):
            _skip_comment(cursor)
        elif cursor.startswith("<!DOCTYPE"):
            doctype_name, dtd_text = _parse_doctype(cursor)
        elif cursor.startswith("<"):
            root = _parse_element(cursor, attributes_as_children)
            break
        else:
            raise cursor.error("unexpected content before root element")

    # ---- trailing misc ---- #
    while True:
        cursor.skip_whitespace()
        if cursor.exhausted:
            break
        if cursor.startswith("<?"):
            _skip_processing_instruction(cursor)
        elif cursor.startswith("<!--"):
            _skip_comment(cursor)
        else:
            raise cursor.error("unexpected content after root element")

    assert root is not None
    return ParseResult(tree=XMLTree(root, name=name), dtd_text=dtd_text, doctype_name=doctype_name)


def parse_xml_file(path: str | os.PathLike[str], attributes_as_children: bool = True) -> ParseResult:
    """Parse an XML file from disk (UTF-8)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_xml(text, name=os.fspath(path), attributes_as_children=attributes_as_children)


# ---------------------------------------------------------------------- #
# internal parsing helpers
# ---------------------------------------------------------------------- #
def _skip_processing_instruction(cursor: _Cursor) -> None:
    end = cursor.find("?>")
    if end < 0:
        raise cursor.error("unterminated processing instruction")
    cursor.pos = end + 2


def _skip_comment(cursor: _Cursor) -> None:
    end = cursor.find("-->")
    if end < 0:
        raise cursor.error("unterminated comment")
    cursor.pos = end + 3


def _parse_doctype(cursor: _Cursor) -> tuple[str, str | None]:
    cursor.consume("<!DOCTYPE")
    cursor.skip_whitespace()
    match = _NAME_RE.match(cursor.text, cursor.pos)
    if not match:
        raise cursor.error("DOCTYPE declaration without a document element name")
    doctype_name = match.group(0)
    cursor.pos = match.end()

    dtd_text: str | None = None
    depth_guard = 0
    while True:
        if cursor.exhausted:
            raise cursor.error("unterminated DOCTYPE declaration")
        char = cursor.text[cursor.pos]
        if char == "[":
            # internal subset: capture verbatim up to the matching ']'
            end = cursor.find("]")
            if end < 0:
                raise cursor.error("unterminated DOCTYPE internal subset")
            dtd_text = cursor.text[cursor.pos + 1 : end]
            cursor.pos = end + 1
        elif char == ">":
            cursor.pos += 1
            return doctype_name, dtd_text
        else:
            cursor.pos += 1
            depth_guard += 1
            if depth_guard > 10_000_000:  # pragma: no cover - defensive
                raise cursor.error("DOCTYPE declaration too long")


def _parse_attributes(cursor: _Cursor, tag_end: int) -> dict[str, str]:
    attributes: dict[str, str] = {}
    segment = cursor.text[cursor.pos : tag_end]
    for match in _ATTR_RE.finditer(segment):
        name = match.group(1)
        value = match.group(3) if match.group(3) is not None else match.group(4)
        attributes[name] = decode_entities(value)
    return attributes


def _parse_element(cursor: _Cursor, attributes_as_children: bool) -> XMLNode:
    cursor.consume("<")
    match = _NAME_RE.match(cursor.text, cursor.pos)
    if not match:
        raise cursor.error("malformed start tag: missing element name")
    tag = match.group(0)
    cursor.pos = match.end()

    # find the end of the start tag, honouring quoted attribute values
    tag_end = _find_tag_end(cursor)
    attributes = _parse_attributes(cursor, tag_end)
    self_closing = cursor.text[tag_end - 1] == "/"
    content_start = tag_end + 1
    node = XMLNode(tag)
    node.raw_attributes.update(attributes)
    if attributes_as_children:
        for attr_name, attr_value in attributes.items():
            node.append_child(XMLNode(attr_name, attr_value))

    cursor.pos = content_start
    if self_closing:
        return node

    text_pieces: list[str] = []
    while True:
        if cursor.exhausted:
            raise cursor.error(f"unterminated element <{tag}>")
        if cursor.startswith("</"):
            cursor.consume("</")
            close_match = _NAME_RE.match(cursor.text, cursor.pos)
            if not close_match or close_match.group(0) != tag:
                found = close_match.group(0) if close_match else "?"
                raise cursor.error(f"mismatched end tag </{found}> for <{tag}>")
            cursor.pos = close_match.end()
            cursor.skip_whitespace()
            cursor.consume(">")
            break
        if cursor.startswith("<!--"):
            _skip_comment(cursor)
        elif cursor.startswith("<![CDATA["):
            end = cursor.find("]]>")
            if end < 0:
                raise cursor.error("unterminated CDATA section")
            text_pieces.append(cursor.text[cursor.pos + 9 : end])
            cursor.pos = end + 3
        elif cursor.startswith("<?"):
            _skip_processing_instruction(cursor)
        elif cursor.startswith("<"):
            node.append_child(_parse_element(cursor, attributes_as_children))
        else:
            next_angle = cursor.find("<")
            if next_angle < 0:
                raise cursor.error(f"unterminated element <{tag}>")
            text_pieces.append(decode_entities(cursor.text[cursor.pos : next_angle]))
            cursor.pos = next_angle

    text = " ".join(piece.strip() for piece in text_pieces if piece.strip())
    if text:
        node.text = text
    return node


def _find_tag_end(cursor: _Cursor) -> int:
    """Index of the ``>`` closing the current start tag (quote-aware)."""
    position = cursor.pos
    text = cursor.text
    quote: str | None = None
    while position < len(text):
        char = text[position]
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "\"'":
            quote = char
        elif char == ">":
            return position
        position += 1
    raise cursor.error("unterminated start tag")
