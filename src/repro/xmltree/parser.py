"""A self-contained XML parser producing :class:`~repro.xmltree.tree.XMLTree`.

One compiled tokenizer regex drives an explicit stack of open elements:
no recursion (document depth is data, not interpreter stack), one pass over
the text — nodes are wired with ``XMLNode._attach`` and the one ``XMLTree``
reindex that follows assigns every pre/post/level id.

The accepted language is the subset of XML that keyword-search datasets
use, with the leniencies those datasets need.  Accepted:

* elements with attributes and character data; the text of an element is
  its character-data pieces (text runs and CDATA sections), each stripped,
  the non-empty ones joined by one space — so whitespace between child
  elements is ignored and mixed content collapses to one value;
* comments and processing instructions anywhere (skipped), an XML
  declaration (a processing instruction like any other), CDATA sections
  inside elements (taken verbatim, *not* entity-decoded);
* ``<!DOCTYPE name ...>`` before the root: the name and the *internal
  subset* (between ``[`` and the first ``]``) are captured and handed to
  :mod:`repro.xmltree.dtd`, because the paper uses the DTD to classify
  ``*``-nodes (§2.1); external identifiers are ignored;
* the five predefined entities and decimal/hex character references, in
  text and in attribute values; an **unknown named entity and a bare**
  ``&`` **are kept verbatim** (no dataset relies on external entity
  definitions);
* attribute values in either quote kind, ``>`` allowed inside them; a
  **duplicate attribute** keeps its first position and takes its last
  value; anything in a start tag that is not ``name = "value"`` (**junk**)
  is ignored;
* a start tag is **self-closing iff the character before its** ``>`` **is**
  ``/``; an end tag may carry whitespace before its ``>`` (``</a  >``).

Rejected, always as :class:`~repro.errors.XMLParseError` carrying the line
and column of the offence:

* no root element, content before or after it (a second root included),
  character data outside the root;
* a mismatched or malformed end tag, a ``<`` that starts no construct, a
  start tag without a name;
* anything unterminated: element, start tag, comment, CDATA section,
  processing instruction, DOCTYPE declaration or its internal subset;
* a character reference that names no Unicode character: above
  ``U+10FFFF``, or hex digits in a decimal reference;
* a character reference into the surrogate block ``U+D800``–``U+DFFF``
  (the resulting string could not be encoded when the corpus is saved).

XML attributes are normalised into child elements by default
(``<store id="3">`` becomes a ``store`` element with an ``id`` child whose
text is ``3``) because eXtract's data model is element-only; pass
``attributes_as_children=False`` to keep them only in
``XMLNode.raw_attributes``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.errors import XMLParseError
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

_NAME = r"[A-Za-z_:][A-Za-z0-9_.\-:]*"
_NAME_RE = re.compile(_NAME)
# The lookbehind pins a match to the start of its whitespace run: the same
# matches, without retrying from every position inside a long run.
_ATTR_RE = re.compile(r"(?<!\s)\s+(" + _NAME + r""")\s*=\s*(?:"([^"]*)"|'([^']*)')""")
_CHARREF_RE = re.compile(r"&(#x?[0-9A-Fa-f]+|[A-Za-z]+);")
#: what may stand around the DOCTYPE and the root element
_MISC_RE = re.compile(r"[ \t\r\n]+|<(?=\?).*?\?>|<!(?=--).*?-->", re.DOTALL)
_DOCTYPE_STOP_RE = re.compile(r"[\[>]")
_WHITESPACE_RE = re.compile(r"[ \t\r\n]*")

# One token of element content per match.  Every alternative after the
# first starts with "<" and the last is a bare "<", so successive matches
# tile the text without gaps: markup no construct claims lands in the last
# group and is diagnosed by _malformed().  Two shortcuts keep the token
# count near one per element on data-centric documents: a start tag takes
# its character data and end tag along when nothing else stands between
# them (``<city>Houston</city>`` is one token), and markup takes the plain
# whitespace after it along (a text piece is stripped anyway).  No
# quantifier nests inside another over the same characters, and a tag name
# must end where name characters end, so an alternative that fails gives up
# in time linear in what it scanned — and a failure ends the parse.
_TOKEN_RE = re.compile(
    r"([^<]+)"  # 1: a run of character data
    r"|(?:"
    r"</(" + _NAME + r")[ \t\r\n]*>"  # 2: end tag
    r"|<(" + _NAME + r")(?![A-Za-z0-9_.\-:])"  # 3: start tag name ...
    r"""([^>"']*(?:(?:"[^"]*"|'[^']*')[^>"']*)*)>"""  # 4: ... up to its quote-aware ">"
    r"(?:(?<!/>)([^<]*)</\3[ \t\r\n]*>)?"  # 5: ... and, if it closes at once, its text
    r"|<!(?=--).*?-->"  # comment ("<!-->" is one: the two markers may overlap)
    r"|<!\[CDATA\[(.*?)\]\]>"  # 6: CDATA section
    r"|<(?=\?).*?\?>"  # processing instruction
    r")[ \t\r\n]*"
    r"|(<)",  # 7: malformed markup
    re.DOTALL,
)
# match.lastindex per token kind (comments and PIs have no group: None)
_TEXT, _END_TAG, _START_TAG, _LEAF, _CDATA, _MALFORMED = 1, 2, 4, 5, 6, 7

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


def _error(document: str, position: int, message: str) -> XMLParseError:
    """``message`` located at offset ``position`` of ``document``."""
    line = document.count("\n", 0, position) + 1
    column = position - document.rfind("\n", 0, position)
    return XMLParseError(message, line=line, column=column)


def decode_entities(text: str) -> str:
    """Replace predefined entities and character references in ``text``.

    Raises :class:`XMLParseError` for a character reference that names no
    Unicode character or a surrogate.
    """
    return _decode(text, text, 0)


def _decode(piece: str, document: str, offset: int) -> str:
    """:func:`decode_entities` for ``piece``, which starts at ``offset`` of
    ``document`` — where errors are located."""

    def _replace(match: re.Match[str]) -> str:
        body = match.group(1)
        if body[0] != "#":
            # Unknown named entity: keep it verbatim rather than failing, the
            # datasets we parse never rely on external entity definitions.
            return _PREDEFINED_ENTITIES.get(body, match.group(0))
        try:
            code = int(body[2:], 16) if body[1] == "x" else int(body[1:])
        except ValueError:  # hex digits without the "x", or too many for int()
            code = -1
        if not (0 <= code < 0xD800 or 0xDFFF < code <= 0x10FFFF):
            raise _error(
                document,
                offset + match.start(),
                "character reference names no Unicode character (or a surrogate)",
            )
        return chr(code)

    return _CHARREF_RE.sub(_replace, piece)


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
    dtd_text: str | None = None
    doctype_name: str | None = None

    # ---- prolog: XML declaration, comments, PIs, DOCTYPE ---- #
    position = _skip_misc(text, 0)
    while text.startswith("<!DOCTYPE", position):
        doctype_name, dtd_text, position = _parse_doctype(text, position)
        position = _skip_misc(text, position)
    if position == len(text):
        raise _error(text, position, "document contains no root element")
    if text[position] != "<":
        raise _error(text, position, "unexpected content before root element")

    root, position = _parse_root(text, position, attributes_as_children)

    # ---- trailing misc ---- #
    position = _skip_misc(text, position)
    if position < len(text):
        raise _error(text, position, "unexpected content after root element")
    return ParseResult(tree=XMLTree(root, name=name), dtd_text=dtd_text, doctype_name=doctype_name)


def parse_xml_file(path: str | os.PathLike[str], attributes_as_children: bool = True) -> ParseResult:
    """Parse an XML file from disk (UTF-8)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_xml(text, name=os.fspath(path), attributes_as_children=attributes_as_children)


# ---------------------------------------------------------------------- #
# internal parsing helpers
# ---------------------------------------------------------------------- #
def _skip_misc(text: str, position: int) -> int:
    """Skip whitespace, comments and PIs; the offset of what comes next."""
    while True:
        match = _MISC_RE.match(text, position)
        if match is None:
            break
        position = match.end()
    if text.startswith("<?", position):
        raise _error(text, position, "unterminated processing instruction")
    if text.startswith("<!--", position):
        raise _error(text, position, "unterminated comment")
    return position


def _parse_doctype(text: str, position: int) -> tuple[str, str | None, int]:
    """The ``<!DOCTYPE`` at ``position``: its name, internal subset, end."""
    position = _WHITESPACE_RE.match(text, position + len("<!DOCTYPE")).end()
    match = _NAME_RE.match(text, position)
    if not match:
        raise _error(text, position, "DOCTYPE declaration without a document element name")
    position = match.end()
    dtd_text: str | None = None
    while True:
        stop = _DOCTYPE_STOP_RE.search(text, position)
        if stop is None:
            raise _error(text, len(text), "unterminated DOCTYPE declaration")
        if stop.group() == ">":
            return match.group(), dtd_text, stop.end()
        # internal subset: capture verbatim up to the first ']'
        end = text.find("]", stop.end())
        if end < 0:
            raise _error(text, stop.start(), "unterminated DOCTYPE internal subset")
        dtd_text = text[stop.end() : end]
        position = end + 1


def _parse_root(text: str, start: int, attributes_as_children: bool) -> tuple[XMLNode, int]:
    """Build the element whose ``<`` is at ``start``; the root and its end offset.

    Nodes are wired with ``XMLNode._attach``; the caller hands the root to
    ``XMLTree(...)``, whose reindex numbers them.
    """
    if _TOKEN_RE.match(text, start).lastindex not in (_START_TAG, _LEAF):
        raise _start_tag_error(text, start)
    root: XMLNode | None = None
    node: XMLNode | None = None  # the innermost open element
    pieces: list[str] = []  # its stripped, non-empty character data so far
    # (element, pieces) of every open ancestor, under a (None, ...) sentinel
    open_elements: list[tuple[XMLNode | None, list[str]]] = []
    for match in _TOKEN_RE.finditer(text, start):
        kind = match.lastindex
        if kind == _LEAF or kind == _START_TAG:
            tag, segment, content = match.group(3, 4, 5)
            child = XMLNode(tag)
            if node is None:
                root = child
            else:
                node._attach(child)
            if "=" in segment:
                _read_attributes(child, segment, text, match.start(4), attributes_as_children)
            if content is None and not segment.endswith("/"):
                open_elements.append((node, pieces))
                node = child
                pieces = []
                continue
            if content:  # <tag>content</tag> in one token
                if "&" in content:
                    content = _decode(content, text, match.start(5))
                content = content.strip()
                if content:
                    child.text = content
            if node is None:
                return root, match.end()
        elif kind == _END_TAG:
            if match.group(2) != node.tag:
                raise _malformed(text, match.start(), node)
            if pieces:
                node.text = " ".join(pieces)
            node, pieces = open_elements.pop()
            if node is None:
                return root, match.end()
        elif kind == _TEXT:
            piece = match.group(1)
            if "&" in piece:
                piece = _decode(piece, text, match.start())
            piece = piece.strip()
            if piece:
                pieces.append(piece)
        elif kind == _CDATA:
            piece = match.group(6).strip()
            if piece:
                pieces.append(piece)
        elif kind == _MALFORMED:
            raise _malformed(text, match.start(), node)
    # Ran off the end with ``node`` still open: blame the offset after the
    # last markup, where the scan for the next "<" began (the whitespace a
    # markup token took along, and a trailing text run, come after it).
    end = match.start() if match.lastindex == _TEXT else match.end()
    position = len(text[:end].rstrip(" \t\r\n"))
    raise _error(text, position, f"unterminated element <{node.tag}>")


def _read_attributes(
    node: XMLNode, segment: str, text: str, offset: int, attributes_as_children: bool
) -> None:
    """Fill ``node.raw_attributes`` from a start tag's ``segment`` (which
    begins at ``offset`` of ``text``) and mirror them as child elements."""
    attributes = node.raw_attributes
    for match in _ATTR_RE.finditer(segment):
        quoted = 2 if match.group(2) is not None else 3
        value = match.group(quoted)
        if "&" in value:
            value = _decode(value, text, offset + match.start(quoted))
        attributes[match.group(1)] = value
    if attributes_as_children:
        for attr_name, attr_value in attributes.items():
            node._attach(XMLNode(attr_name, attr_value))


def _malformed(text: str, position: int, node: XMLNode) -> XMLParseError:
    """Why the ``<`` at ``position``, inside open element ``node``, starts
    no well-formed construct (or an end tag that is not ``node``'s)."""
    if text.startswith("</", position):
        name = _NAME_RE.match(text, position + 2)
        if not name or name.group() != node.tag:
            found = name.group() if name else "?"
            return _error(
                text, position + 2, f"mismatched end tag </{found}> for <{node.tag}>"
            )
        return _error(text, _WHITESPACE_RE.match(text, name.end()).end(), "expected '>'")
    if text.startswith("<!--", position):
        return _error(text, position, "unterminated comment")
    if text.startswith("<![CDATA[", position):
        return _error(text, position, "unterminated CDATA section")
    if text.startswith("<?", position):
        return _error(text, position, "unterminated processing instruction")
    return _start_tag_error(text, position)


def _start_tag_error(text: str, position: int) -> XMLParseError:
    """Why no start tag could be read at the ``<`` at ``position``."""
    name = _NAME_RE.match(text, position + 1)
    if not name:
        return _error(text, position + 1, "malformed start tag: missing element name")
    return _error(text, name.end(), "unterminated start tag")
