"""Tests for the XML parser."""

from __future__ import annotations

import pytest

from repro.errors import XMLParseError
from repro.xmltree.parser import decode_entities, parse_xml, parse_xml_file


class TestBasicParsing:
    def test_single_element(self):
        tree = parse_xml("<a/>").tree
        assert tree.root.tag == "a"
        assert tree.size_nodes == 1

    def test_text_content(self):
        tree = parse_xml("<a>hello</a>").tree
        assert tree.root.text == "hello"

    def test_nested_elements(self):
        tree = parse_xml("<a><b><c>x</c></b></a>").tree
        assert tree.max_depth == 2
        assert tree.find_by_tag("c")[0].text == "x"

    def test_sibling_order_preserved(self):
        tree = parse_xml("<a><x>1</x><y>2</y><x>3</x></a>").tree
        assert [node.tag for node in tree.root.children] == ["x", "y", "x"]

    def test_whitespace_between_elements_ignored(self):
        tree = parse_xml("<a>\n  <b>1</b>\n  <c>2</c>\n</a>").tree
        assert tree.root.text is None
        assert len(tree.root.children) == 2

    def test_mixed_content_text_joined(self):
        tree = parse_xml("<a>hello <b>x</b> world</a>").tree
        assert tree.root.text == "hello world"

    def test_xml_declaration_skipped(self):
        tree = parse_xml('<?xml version="1.0" encoding="UTF-8"?><a>1</a>').tree
        assert tree.root.text == "1"

    def test_comments_skipped(self):
        tree = parse_xml("<!-- hi --><a><!-- inner -->x</a><!-- bye -->").tree
        assert tree.root.text == "x"

    def test_processing_instruction_skipped(self):
        tree = parse_xml("<?pi data?><a><?x y?>v</a>").tree
        assert tree.root.text == "v"

    def test_cdata_becomes_text(self):
        tree = parse_xml("<a><![CDATA[1 < 2 & 3]]></a>").tree
        assert tree.root.text == "1 < 2 & 3"

    def test_self_closing_with_sibling(self):
        tree = parse_xml("<a><b/><c>x</c></a>").tree
        assert [node.tag for node in tree.root.children] == ["b", "c"]


class TestAttributes:
    def test_attributes_become_children_by_default(self):
        tree = parse_xml('<store id="3" open="yes"/>').tree
        assert {child.tag: child.text for child in tree.root.children} == {"id": "3", "open": "yes"}
        assert tree.root.raw_attributes == {"id": "3", "open": "yes"}

    def test_attributes_kept_raw_when_disabled(self):
        tree = parse_xml('<store id="3"/>', attributes_as_children=False).tree
        assert tree.root.children == []
        assert tree.root.raw_attributes == {"id": "3"}

    def test_single_quoted_attributes(self):
        tree = parse_xml("<a x='1'/>").tree
        assert tree.root.raw_attributes["x"] == "1"

    def test_attribute_entity_decoding(self):
        tree = parse_xml('<a title="Tom &amp; Jerry"/>').tree
        assert tree.root.raw_attributes["title"] == "Tom & Jerry"

    def test_gt_inside_attribute_value(self):
        tree = parse_xml('<a expr="x > 1"><b/></a>').tree
        assert tree.root.raw_attributes["expr"] == "x > 1"
        assert len(tree.root.find_children("b")) == 1


class TestLeniencies:
    """The accepted language is wider than XML; these are deliberate."""

    def test_duplicate_attribute_takes_last_value_in_first_position(self):
        tree = parse_xml('<a x="1" y="2" x="3"/>').tree
        assert list(tree.root.raw_attributes.items()) == [("x", "3"), ("y", "2")]
        assert [(child.tag, child.text) for child in tree.root.children] == [("x", "3"), ("y", "2")]

    def test_junk_inside_a_start_tag_is_ignored(self):
        tree = parse_xml("""<a junk x=unquoted "stray" y = 'kept'><b/></a>""").tree
        assert tree.root.raw_attributes == {"y": "kept"}

    def test_self_closing_iff_slash_directly_before_gt(self):
        assert parse_xml("<a><b/>x</a>").tree.root.text == "x"
        tree = parse_xml("<a><b/ >x</b></a>").tree  # "/ >" does not close
        assert tree.root.children[0].text == "x"

    def test_end_tag_may_carry_whitespace(self):
        assert parse_xml("<a>x</a \n>").tree.root.text == "x"

    def test_overlapping_comment_markers(self):
        assert parse_xml("<a><!-->x<!--->y</a>").tree.root.text == "x y"

    def test_last_doctype_internal_subset_wins(self):
        result = parse_xml("<!DOCTYPE a [one] [two]><a/>")
        assert (result.doctype_name, result.dtd_text) == ("a", "two")


class TestEntities:
    def test_predefined_entities(self):
        tree = parse_xml("<a>&lt;tag&gt; &amp; &quot;text&quot; &apos;x&apos;</a>").tree
        assert tree.root.text == "<tag> & \"text\" 'x'"

    def test_numeric_character_references(self):
        tree = parse_xml("<a>&#65;&#x42;</a>").tree
        assert tree.root.text == "AB"

    def test_unknown_entity_kept_verbatim(self):
        assert decode_entities("&unknown;") == "&unknown;"

    def test_bare_ampersand_kept_verbatim(self):
        assert parse_xml("<a>fish & chips &; &#; &#x;</a>").tree.root.text == "fish & chips &; &#; &#x;"

    def test_cdata_is_not_entity_decoded(self):
        assert parse_xml("<a><![CDATA[&amp;]]></a>").tree.root.text == "&amp;"

    def test_decoded_whitespace_is_stripped_like_literal_whitespace(self):
        assert parse_xml("<a>&#32;x&#160;</a>").tree.root.text == "x"

    @pytest.mark.parametrize(
        "reference",
        [
            "&#1114112;",               # one past U+10FFFF (chr() raised ValueError)
            "&#x110000;",
            "&#99999999999999999999;",  # chr() raised OverflowError
            pytest.param("&#" + "9" * 5000 + ";", id="5000-digits"),  # more than int() converts
            "&#xD800;",                 # surrogates: were accepted, broke save_dir
            "&#xDFFF;",
            "&#55296;",
            "&#1F;",                    # hex digits without the x (int() raised ValueError)
        ],
    )
    def test_character_reference_outside_unicode_is_a_parse_error(self, reference):
        for text in (f"<a>\n  <b>ok {reference}</b></a>", f"<a>\n  <b x='ok {reference}'/></a>"):
            with pytest.raises(XMLParseError) as excinfo:
                parse_xml(text)
            assert (excinfo.value.line, excinfo.value.column) == (2, text.index("&") - 3)
        with pytest.raises(XMLParseError) as excinfo:
            decode_entities(f"ab{reference}")
        assert (excinfo.value.line, excinfo.value.column) == (1, 3)

    def test_boundary_character_references_still_decode(self):
        text = parse_xml("<a>&#xD7FF;&#xE000;&#x10FFFF;&#0000000065;</a>").tree.root.text
        assert text == "\ud7ff\ue000\U0010ffffA"


class TestDoctype:
    def test_doctype_name_captured(self):
        result = parse_xml("<!DOCTYPE stores><stores/>")
        assert result.doctype_name == "stores"
        assert result.dtd_text is None

    def test_internal_subset_captured(self):
        xml = """<!DOCTYPE stores [
          <!ELEMENT stores (store*)>
          <!ELEMENT store (name, city)>
        ]>
        <stores/>"""
        result = parse_xml(xml)
        assert result.doctype_name == "stores"
        assert "<!ELEMENT stores (store*)>" in result.dtd_text

    def test_doctype_with_system_identifier(self):
        result = parse_xml('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert result.doctype_name == "a"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "<a>",                      # unterminated element
            "<a></b>",                  # mismatched close tag
            "<a><b></a></b>",           # interleaved tags
            "plain text",               # no root element
            "<a/><b/>",                 # two roots
            "<a>text",                  # missing close
            "<!-- only a comment -->",  # no root element
            "<a><!-- unterminated </a>",
            "<a><![CDATA[x</a>",
            "<",
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(XMLParseError):
            parse_xml(text)

    def test_non_string_input_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml(b"<a/>")  # type: ignore[arg-type]

    def test_error_reports_location(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml("<a>\n<b></c>\n</a>")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("<a><b", "unterminated start tag", 6),
            ("<a><b x='1", "unterminated start tag", 6),
            ("<a>< b></a>", "missing element name", 5),
            ("<a></a junk>", "expected '>'", 8),
            ("<a><?pi</a>", "unterminated processing instruction", 4),
            ("<a>x</a>trailing", "after root element", 9),
            ("<!DOCTYPE a [<a/>", "unterminated DOCTYPE internal subset", 13),
            ("<!DOCTYPE a <a/", "unterminated DOCTYPE declaration", 16),
            ("<a>  text", "unterminated element <a>", 4),
        ],
    )
    def test_error_names_the_construct_and_column(self, text, message, column):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml(text)
        assert message in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)


class TestDepth:
    """Document depth is data, not interpreter stack."""

    def test_deep_document_parses(self):
        depth = 5000
        tree = parse_xml("<a>" * depth + "x" + "</a>" * depth).tree
        assert tree.size_nodes == depth
        deepest = tree.nodes_by_pre[-1]
        assert (deepest.text, deepest.level, deepest.post) == ("x", depth - 1, 0)

    def test_deep_document_survives_a_serialise_parse_round_trip(self):
        from repro.xmltree.serialize import to_xml_string

        depth = 5000
        tree = parse_xml("<a>" * depth + "x" + "</a>" * depth).tree
        again = parse_xml(to_xml_string(tree, indent="")).tree
        assert again.size_nodes == depth
        assert again.nodes_by_pre[-1].text == "x"

    def test_unclosed_deep_document_is_a_parse_error(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>" * 5000)


class TestFileParsing:
    def test_parse_xml_file_round_trip(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>1</b></a>", encoding="utf-8")
        result = parse_xml_file(path)
        assert result.tree.name.endswith("doc.xml")
        assert result.tree.find_by_tag("b")[0].text == "1"
