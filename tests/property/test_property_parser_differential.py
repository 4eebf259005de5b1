"""Differential fuzz: the tokenizer parser against the scanner it replaced.

``tests/xmltree/reference_parser.py`` is the previous ``repro.xmltree.parser``
frozen verbatim.  The fuzz corpus is the new parser's acceptance test: on
every generated document — shapes from ``xml_trees()`` decorated with every
construct the accepted language knows, and character-level mutations of the
same — both parsers must give the same verdict; on accept the same
``doctype_name``, ``dtd_text`` and node-for-node the same tree (XML
attributes as mirror child elements — the reference's default, and the
only tree the new parser makes); on reject an :class:`XMLParseError`
located inside the document.  The new parser never raises anything else.

The only permitted divergences are the two bugs the rewrite fixed:

``CHARACTER_REFERENCES_ARE_TOTAL``
    A character reference above U+10FFFF, with more digits than ``int()``
    converts, or with hex digits but no ``x`` made the reference raise
    ``ValueError`` / ``OverflowError``; one into the surrogate block was
    accepted and produced text no corpus could save.  All are now an
    ``XMLParseError`` — possibly reported ahead of another error the
    reference would have reached first.
``DEPTH_IS_DATA``
    A deeply nested document made the reference raise ``RecursionError``;
    the tokenizer parser answers.

CI runs this file under ``--hypothesis-profile=fuzz`` (see
``tests/conftest.py``); tier-1 runs hypothesis' default example count.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_xml
from tests.property.strategies import xml_trees
from tests.xmltree import reference_parser

# No max_examples here: the active hypothesis profile decides.
FUZZ_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

CHARACTER_REFERENCES_ARE_TOTAL = "divergence: character references are a total function"
DEPTH_IS_DATA = "divergence: depth is data, not stack"

# ---------------------------------------------------------------------- #
# the decorations
# ---------------------------------------------------------------------- #
WHITESPACE = ("", "", " ", "\n", "\n    ", "\t", "\r\n", "  ")
TEXTS = (
    "texas", "  houston ", "a &amp; b", "&lt;tag&gt;", "&quot;q&apos;", "&#65;&#x42;",
    "&unknown;", "fish & chips", "&;", "&#;", "&#x;", "&#X41;", "&#32;", "&#160;x", "&#0000065;",
    "caf\u00e9", "line\u2028sep", "x > y", "]]>", "&#xD7FF;&#xE000;", "&#x10FFFF;", "\x0c",
)
BAD_REFERENCES = ("&#xD800;", "&#xdfff;", "&#1114112;", "&#x110000;", "&#99999999999999999999;", "&#1F;")
MISC = (
    "<!-- note -->", "<!---->", "<!-->", "<!--->", "<!-- a > b -- <c> -->",
    "<?pi data?>", "<?>", "<?x y='?'?>",
)
CDATA = ("<![CDATA[raw <b> &amp; ]]>", "<![CDATA[]]>", "<![CDATA[ ]] ]>]]>", "<![CDATA[\n x \n]]>")
# Few names, so that an element often meets its own tag in a child and an
# attribute its own name in a duplicate.
TAG_NAMES = ("store", "item", "x:y", "a.b-c_d")
ATTRIBUTE_NAMES = ("id", "kind", "x:y", "data-k")
ATTRIBUTE_VALUES = (
    "3", "", "x > 1", "a < b", "Tom &amp; Jerry", "it's", 'say "hi"', "&#65;", "&unk;", "a&b",
    "/", " padded ", "two\nlines", "&#x10FFFF;",
)
JUNK = (" junk", " x=unquoted", ' "stray > quoted"', " /", " =", " 'q'", " nbsp='1'")
DOCTYPES = (
    "<!DOCTYPE root>",
    '<!DOCTYPE root SYSTEM "root.dtd">',
    '<!DOCTYPE root SYSTEM "a>b"><!-- the ">" above ends the declaration: -->',
    "<!DOCTYPE root [\n  <!ELEMENT root (store*)>\n  <!ATTLIST store id CDATA #IMPLIED>\n]>",
    '<!DOCTYPE  root PUBLIC "-//X//Y" "z" [ <!ELEMENT a (b)> ] >',
    "<!DOCTYPEroot[]>",
    "<!DOCTYPE root [one] [two]>",
)
MUTATION_ALPHABET = "<>/&;\"'=![]-?# \n\tax1"


def _attribute(rng) -> str:
    value = rng.choice(ATTRIBUTE_VALUES if rng.random() < 0.98 else BAD_REFERENCES)
    if '"' in value:
        quote = "'"
    elif "'" in value:
        quote = '"'
    else:
        quote = rng.choice("\"'")
    gap = rng.choice(("", "", " ", "\n"))
    lead = rng.choice((" ", " ", "  ", "\n", "\t", "\x0c"))
    return f"{lead}{rng.choice(ATTRIBUTE_NAMES)}{gap}={gap}{quote}{value}{quote}"


def _start_tag_inside(rng) -> str:
    """What stands between an element's name and its ``>``."""
    parts = [_attribute(rng) for _ in range(rng.choice((0, 0, 0, 1, 2, 3)))]
    if rng.random() < 0.1:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(JUNK))
    return "".join(parts) + rng.choice(("", "", "", " ", "\n"))


def _character_data(rng) -> str:
    roll = rng.random()
    if roll < 0.02:
        return rng.choice(BAD_REFERENCES)
    if roll < 0.6:
        return rng.choice(TEXTS)
    if roll < 0.8:
        return rng.choice(CDATA)
    return rng.choice(MISC)


def _render(node: XMLNode, rng, out: list[str]) -> None:
    """``node``'s shape (its own tag and value are only a suggestion)."""
    tag = rng.choice(TAG_NAMES)
    inside = _start_tag_inside(rng)
    end_tag = f"</{tag}{rng.choice(('', '', '', ' ', chr(10), '  '))}>"
    if not node.children and not node.text:
        form = rng.random()
        if form < 0.5:
            out.append(f"<{tag}{inside}/>")
        elif form < 0.9:
            out.append(f"<{tag}{inside}>{rng.choice(WHITESPACE)}{end_tag}")
        else:  # "/ >" does not self-close
            out.append(f"<{tag}{inside}/ >{end_tag}")
        return
    out.append(f"<{tag}{inside}>")
    if node.text:
        out.append(rng.choice(WHITESPACE))
        out.append(node.text if rng.random() < 0.5 else _character_data(rng))
    for child in node.children:
        out.append(rng.choice(WHITESPACE))
        if rng.random() < 0.3:  # mixed content
            out.append(_character_data(rng))
            out.append(rng.choice(WHITESPACE))
        _render(child, rng, out)
    out.append(rng.choice(WHITESPACE))
    if rng.random() < 0.2:
        out.append(_character_data(rng))
    out.append(end_tag)


@st.composite
def documents(draw) -> str:
    """A decorated document: accepted unless a bad reference slipped in."""
    tree = draw(xml_trees(max_children=3, max_depth=3))
    rng = draw(st.randoms(use_true_random=False))
    out: list[str] = []
    if rng.random() < 0.5:
        out.append(rng.choice(('<?xml version="1.0" encoding="UTF-8"?>', "<?xml version='1.1'?>")))
    for _ in range(rng.choice((0, 0, 1, 2))):
        out.append(rng.choice(WHITESPACE + MISC))
    if rng.random() < 0.5:
        out.append(rng.choice(DOCTYPES))
        out.append(rng.choice(WHITESPACE + MISC))
    _render(tree.root, rng, out)
    for _ in range(rng.choice((0, 0, 1, 2))):
        out.append(rng.choice(WHITESPACE + MISC))
    return "".join(out)


@st.composite
def mutated_documents(draw) -> str:
    """A decorated document after one to four character-level mutations."""
    text = draw(documents())
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(rng.randint(1, 4)):
        if not text:
            break
        at = rng.randrange(len(text))
        kind = rng.choice(("delete", "insert", "swap", "truncate"))
        if kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "insert":
            text = text[:at] + rng.choice(MUTATION_ALPHABET) + text[at:]
        elif kind == "swap":
            other = rng.randrange(len(text))
            chars = list(text)
            chars[at], chars[other] = chars[other], chars[at]
            text = "".join(chars)
        else:
            text = text[:at]
    return text


# ---------------------------------------------------------------------- #
# the comparison
# ---------------------------------------------------------------------- #
def _snapshot(result) -> tuple:
    """Everything a parse result says, comparable across the two parsers."""
    return (
        result.doctype_name,
        result.dtd_text,
        [
            (node.tag, node.text, node.dewey, node.pre, node.post, node.level)
            for node in result.tree.iter_nodes()
        ],
    )


def _refers_to_a_surrogate(text: str) -> bool:
    """Does ``text`` hold a character reference into U+D800–U+DFFF?"""
    for hexadecimal, digits in re.findall(r"&#(x?)([0-9A-Fa-f]+);", text):
        try:
            code = int(digits, 16 if hexadecimal else 10)
        except ValueError:
            continue
        if 0xD800 <= code <= 0xDFFF:
            return True
    return False


def _assert_located(error: XMLParseError, text: str) -> None:
    lines = text.split("\n")
    assert error.line is not None and 1 <= error.line <= len(lines), error
    assert error.column is not None and 1 <= error.column <= len(lines[error.line - 1]) + 1, error


def assert_same_outcome(text: str) -> None:
    try:
        result = reference_parser.parse_xml(text)
    except XMLParseError as error:
        expected = error
    except (ValueError, OverflowError):
        expected = CHARACTER_REFERENCES_ARE_TOTAL
    except RecursionError:
        expected = DEPTH_IS_DATA
    else:
        expected = _snapshot(result)
    try:
        # Anything but XMLParseError propagates and fails the test.
        actual = _snapshot(parse_xml(text))
    except XMLParseError as error:
        actual = error
        _assert_located(actual, text)

    if expected == DEPTH_IS_DATA:
        pass  # the reference has no opinion; the new parser answered
    elif expected == CHARACTER_REFERENCES_ARE_TOTAL:
        assert isinstance(actual, XMLParseError) and "character reference" in str(actual)
    elif isinstance(expected, XMLParseError):
        assert isinstance(actual, XMLParseError), f"accepted what the reference rejects: {expected}"
        _assert_located(expected, text)
        if "character reference" not in str(actual):
            assert str(actual) == str(expected)
    elif isinstance(actual, XMLParseError) and "character reference" in str(actual):
        # The reference decoded a surrogate (into the tree, or into an
        # attribute value a later duplicate then replaced).
        assert _refers_to_a_surrogate(text), f"rejected what the reference accepts: {actual}"
    else:
        assert actual == expected


@FUZZ_SETTINGS
@given(documents())
def test_decorated_documents_parse_to_the_same_tree(text):
    assert_same_outcome(text)


@FUZZ_SETTINGS
@given(mutated_documents())
def test_mutated_documents_get_the_same_verdict(text):
    assert_same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "<a>&#1114112;</a>", "<a>&#x110000;</a>", "<a>&#99999999999999999999;</a>",
        "<a>&#xD800;</a>", "<a x='&#xDFFF;'/>", "<a>&#1F;</a>",
        "<a>" * 1200 + "x" + "</a>" * 1200,
    ],
    ids=lambda text: text[:24],
)
def test_the_named_divergences_are_the_two_bugfixes(text):
    """The comparison does take its two exits: on these inputs the
    reference crashes, or accepts a surrogate."""
    try:
        result = reference_parser.parse_xml(text)
    except (ValueError, OverflowError, RecursionError):
        pass
    else:
        with pytest.raises(UnicodeEncodeError):
            "".join(
                node.text or "" for node in result.tree.iter_nodes()
            ).encode("utf-8")
    assert_same_outcome(text)


# ---------------------------------------------------------------------- #
# linear time
# ---------------------------------------------------------------------- #
MEGA = 10**6
HOSTILE = {
    "unterminated comment": "<a><!--" + "x" * MEGA,
    "unterminated comment in the prolog": "<!--" + "x" * MEGA,
    "unterminated CDATA": "<a><![CDATA[" + "x" * MEGA,
    "unterminated PI": "<a><?" + "x" * MEGA,
    "unterminated quoted attribute": "<a b='" + "x" * MEGA,
    "ampersands": "<a>" + "&" * MEGA + "</a>",
    "unterminated entity names": "<a>" + "&a" * (MEGA // 2) + "</a>",
    "spaces in an unterminated start tag": "<a " + " " * MEGA,
    "spaces in a terminated start tag": "<a " + " " * MEGA + "=>x</a>",
    "unterminated tag name": "<" + "a" * MEGA,
    "unterminated end tag name": "<a></" + "a" * MEGA,
    "quote pairs in an unterminated start tag": "<a " + "'' " * (MEGA // 3),
    "unterminated DOCTYPE": "<!DOCTYPE a " + " " * MEGA,
    "text that never closes": "<a>" + "x" * MEGA,
}


@pytest.mark.parametrize("construct", sorted(HOSTILE))
def test_a_megabyte_of_hostile_input_is_answered_in_linear_time(construct):
    text = HOSTILE[construct]
    started = time.process_time()  # CPU seconds: a stalled machine is not a slow parser
    try:
        parse_xml(text)
    except XMLParseError as error:
        _assert_located(error, text)
    elapsed = time.process_time() - started
    assert elapsed < 2.0, f"{construct}: {elapsed:.2f} s"
