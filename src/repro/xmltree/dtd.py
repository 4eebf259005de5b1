"""DTD parsing and ``*``-node detection.

The paper (§2.1, following XSeek [6]) classifies a node as an *entity* when
"it corresponds to a *-node in the DTD": an element that may occur multiple
times under its parent.  This module parses the element declarations of a
DTD internal subset and answers, for every (parent tag, child tag) pair,
whether the child is repeatable (declared with ``*`` or ``+``, directly or
inside a repeated group).

Only the pieces needed for that question are modelled: ``<!ELEMENT>``
content models and ``<!ATTLIST>`` declarations (kept so key mining can
honour ``ID`` attributes).  Parameter entities and conditional sections are
out of scope for the datasets used here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import DTDParseError

_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([A-Za-z_:][\w.\-:]*)\s+([^>]+)>", re.DOTALL)
_ATTLIST_RE = re.compile(r"<!ATTLIST\s+([A-Za-z_:][\w.\-:]*)\s+([^>]+)>", re.DOTALL)
_ATTDEF_RE = re.compile(
    r"([A-Za-z_:][\w.\-:]*)\s+"
    r"(CDATA|ID|IDREF|IDREFS|NMTOKEN|NMTOKENS|ENTITY|ENTITIES|\([^)]*\))\s+"
    r"(#REQUIRED|#IMPLIED|#FIXED\s+(?:\"[^\"]*\"|'[^']*')|\"[^\"]*\"|'[^']*')",
    re.DOTALL,
)


@dataclass
class ChildSpec:
    """Occurrence information for a child element within a content model."""

    tag: str
    repeatable: bool
    optional: bool


@dataclass
class ElementDecl:
    """A parsed ``<!ELEMENT>`` declaration."""

    tag: str
    content_model: str
    children: dict[str, ChildSpec] = field(default_factory=dict)
    has_text: bool = False
    is_empty: bool = False
    is_any: bool = False


@dataclass
class AttributeDecl:
    """A parsed attribute definition from ``<!ATTLIST>``."""

    element: str
    name: str
    attr_type: str
    default: str

    @property
    def is_id(self) -> bool:
        return self.attr_type.upper() == "ID"


class DTD:
    """A parsed DTD: element declarations plus attribute lists."""

    def __init__(
        self,
        elements: dict[str, ElementDecl],
        attributes: list[AttributeDecl],
        root: str | None = None,
    ):
        self.elements = elements
        self.attributes = attributes
        self.root = root

    def element(self, tag: str) -> ElementDecl | None:
        return self.elements.get(tag)

    def declares(self, tag: str) -> bool:
        return tag in self.elements

    def is_repeatable_child(self, parent_tag: str, child_tag: str) -> bool | None:
        """Whether ``child_tag`` may repeat under ``parent_tag``.

        Returns ``None`` when the DTD says nothing about the pair, so the
        caller can fall back to data-driven inference.
        """
        decl = self.elements.get(parent_tag)
        if decl is None or decl.is_any:
            return None
        spec = decl.children.get(child_tag)
        if spec is None:
            return None
        return spec.repeatable

    def id_attributes(self, element_tag: str) -> list[str]:
        """Names of attributes declared with type ``ID`` for an element."""
        return [attr.name for attr in self.attributes if attr.element == element_tag and attr.is_id]

    def __repr__(self) -> str:
        return f"<DTD elements={len(self.elements)} attlists={len(self.attributes)}>"


def parse_dtd(dtd_text: str, root: str | None = None) -> DTD:
    """Parse the internal subset text of a DOCTYPE declaration.

    >>> dtd = parse_dtd('''
    ...   <!ELEMENT retailer (name, product, store*)>
    ...   <!ELEMENT store (name, state, city, merchandises)>
    ...   <!ELEMENT name (#PCDATA)>
    ... ''')
    >>> dtd.is_repeatable_child("retailer", "store")
    True
    >>> dtd.is_repeatable_child("retailer", "name")
    False
    """
    if dtd_text is None:
        raise DTDParseError("parse_dtd() requires DTD text, got None")
    elements: dict[str, ElementDecl] = {}
    for match in _ELEMENT_RE.finditer(dtd_text):
        tag, model = match.group(1), " ".join(match.group(2).split())
        elements[tag] = _parse_content_model(tag, model)
    attributes: list[AttributeDecl] = []
    for match in _ATTLIST_RE.finditer(dtd_text):
        element_tag, body = match.group(1), match.group(2)
        for attr_match in _ATTDEF_RE.finditer(body):
            attributes.append(
                AttributeDecl(
                    element=element_tag,
                    name=attr_match.group(1),
                    attr_type=attr_match.group(2).strip(),
                    default=attr_match.group(3).strip(),
                )
            )
    return DTD(elements, attributes, root=root)


def _parse_content_model(tag: str, model: str) -> ElementDecl:
    decl = ElementDecl(tag=tag, content_model=model)
    stripped = model.strip()
    if stripped.upper() == "EMPTY":
        decl.is_empty = True
        return decl
    if stripped.upper() == "ANY":
        decl.is_any = True
        return decl
    if "#PCDATA" in stripped:
        decl.has_text = True
    _collect_children(stripped, decl, group_repeats=False, group_optional=False)
    return decl


def _collect_children(
    model: str, decl: ElementDecl, group_repeats: bool, group_optional: bool
) -> None:
    """Walk a content-model expression, recording per-child occurrence info.

    The grammar handled: names and parenthesised groups separated by ``,``
    or ``|``, each optionally suffixed by ``?``, ``*`` or ``+``.  A child is
    *repeatable* when its own suffix is ``*``/``+`` or when any enclosing
    group carries ``*``/``+``.
    """
    for particle, suffix in _split_particles(model):
        repeats = group_repeats or suffix in ("*", "+")
        optional = group_optional or suffix in ("?", "*")
        if particle.startswith("("):
            _collect_children(particle[1:-1], decl, repeats, optional)
            continue
        name = particle.strip()
        if not name or name == "#PCDATA":
            continue
        existing = decl.children.get(name)
        if existing is None:
            decl.children[name] = ChildSpec(tag=name, repeatable=repeats, optional=optional)
        else:
            existing.repeatable = existing.repeatable or repeats
            existing.optional = existing.optional or optional


def _split_particles(model: str) -> list[tuple[str, str]]:
    """Split a content model into top-level particles with their suffixes."""
    particles: list[tuple[str, str]] = []
    depth = 0
    current: list[str] = []
    tokens = list(model)
    index = 0
    while index < len(tokens):
        char = tokens[index]
        if char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise DTDParseError(f"unbalanced parentheses in content model {model!r}")
            current.append(char)
        elif char in ",|" and depth == 0:
            particles.append(_finish_particle(current))
            current = []
        else:
            current.append(char)
        index += 1
    if depth != 0:
        raise DTDParseError(f"unbalanced parentheses in content model {model!r}")
    if current:
        particles.append(_finish_particle(current))
    return [(body, suffix) for body, suffix in particles if body]


def _finish_particle(chars: list[str]) -> tuple[str, str]:
    text = "".join(chars).strip()
    suffix = ""
    if text and text[-1] in "?*+":
        suffix = text[-1]
        text = text[:-1].strip()
    return text, suffix


def dtd_for_tree_text(dtd_text: str | None, root: str | None = None) -> DTD | None:
    """Convenience wrapper: parse DTD text if present, else return ``None``."""
    if not dtd_text:
        return None
    return parse_dtd(dtd_text, root=root)
