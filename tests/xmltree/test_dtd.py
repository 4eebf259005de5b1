"""Tests for DTD parsing and *-node detection from content models."""

from __future__ import annotations

import pytest

from repro.errors import DTDParseError
from repro.xmltree.dtd import DTD, dtd_for_tree_text, parse_dtd

RETAIL_DTD = """
  <!ELEMENT commerce (retailer*)>
  <!ELEMENT retailer (name, product, store*)>
  <!ELEMENT store (name, state, city, merchandises)>
  <!ELEMENT merchandises (clothes+)>
  <!ELEMENT clothes (category, fitting?, situation?)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT category (#PCDATA)>
  <!ATTLIST store id ID #REQUIRED location CDATA #IMPLIED>
"""


class TestElementDeclarations:
    def test_star_children_detected(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.is_repeatable_child("retailer", "store") is True
        assert dtd.is_repeatable_child("commerce", "retailer") is True

    def test_plus_counts_as_repeatable(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.is_repeatable_child("merchandises", "clothes") is True

    def test_single_occurrence_children(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.is_repeatable_child("retailer", "name") is False
        assert dtd.is_repeatable_child("store", "city") is False

    def test_optional_child_not_repeatable(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.is_repeatable_child("clothes", "fitting") is False
        assert dtd.element("clothes").children["fitting"].optional is True

    def test_unknown_pair_returns_none(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.is_repeatable_child("store", "unknown") is None
        assert dtd.is_repeatable_child("unknown", "x") is None

    def test_pcdata_flag(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.element("name").has_text
        assert not dtd.element("retailer").has_text

    def test_declares(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.declares("store")
        assert not dtd.declares("warehouse")


class TestContentModelVariants:
    def test_empty_and_any(self):
        dtd = parse_dtd("<!ELEMENT a EMPTY><!ELEMENT b ANY>")
        assert dtd.element("a").is_empty
        assert dtd.element("b").is_any
        assert dtd.is_repeatable_child("b", "anything") is None

    def test_choice_group(self):
        dtd = parse_dtd("<!ELEMENT a (b | c)*>")
        assert dtd.is_repeatable_child("a", "b") is True
        assert dtd.is_repeatable_child("a", "c") is True

    def test_nested_groups(self):
        dtd = parse_dtd("<!ELEMENT a (b, (c, d)+)>")
        assert dtd.is_repeatable_child("a", "b") is False
        assert dtd.is_repeatable_child("a", "c") is True
        assert dtd.is_repeatable_child("a", "d") is True

    def test_mixed_content(self):
        dtd = parse_dtd("<!ELEMENT a (#PCDATA | b)*>")
        assert dtd.element("a").has_text
        assert dtd.is_repeatable_child("a", "b") is True

    def test_repeated_tag_in_model_merges(self):
        dtd = parse_dtd("<!ELEMENT a (b, c, b*)>")
        assert dtd.is_repeatable_child("a", "b") is True

    def test_unbalanced_parentheses_raise(self):
        with pytest.raises(DTDParseError):
            parse_dtd("<!ELEMENT a (b, (c)>")


class TestAttlist:
    def test_id_attributes(self):
        dtd = parse_dtd(RETAIL_DTD)
        assert dtd.id_attributes("store") == ["id"]
        assert dtd.id_attributes("retailer") == []

    def test_attribute_details(self):
        dtd = parse_dtd(RETAIL_DTD)
        store_attrs = [attr for attr in dtd.attributes if attr.element == "store"]
        assert {attr.name for attr in store_attrs} == {"id", "location"}
        id_attr = next(attr for attr in store_attrs if attr.name == "id")
        assert id_attr.is_id and id_attr.default == "#REQUIRED"


class TestHelpers:
    def test_parse_dtd_requires_text(self):
        with pytest.raises(DTDParseError):
            parse_dtd(None)  # type: ignore[arg-type]

    def test_dtd_for_tree_text_none(self):
        assert dtd_for_tree_text(None) is None
        assert dtd_for_tree_text("") is None

    def test_dtd_for_tree_text_parses(self):
        dtd = dtd_for_tree_text("<!ELEMENT a (b*)>", root="a")
        assert isinstance(dtd, DTD)
        assert dtd.root == "a"

    def test_repr(self):
        assert "elements=" in repr(parse_dtd(RETAIL_DTD))
