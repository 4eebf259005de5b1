"""XML substrate: tree model with Dewey labels, parser, DTD, schema summary.

This package implements everything eXtract needs from an XML store:

* :mod:`repro.xmltree.dewey` — Dewey (prefix) labels: a node's display
  name, and how journal records and the v3 text snapshot spell node
  positions; computed from the tree when read, stored nowhere,
* :mod:`repro.xmltree.node` / :mod:`repro.xmltree.tree` — an in-memory
  ordered tree model; a tree numbers its nodes in document order (``pre``)
  and its :class:`~repro.xmltree.tree.TreeShape` tables are what the
  keyword indexes, the SLCA/ELCA search algorithms and snippet generation
  compute with,
* :mod:`repro.xmltree.builder` — programmatic construction of documents
  (used by the synthetic dataset generators),
* :mod:`repro.xmltree.parser` — a self-contained XML parser (no external
  dependencies) that also captures an internal DTD subset when present,
* :mod:`repro.xmltree.dtd` — DTD content-model parsing used to detect
  ``*``-nodes, the paper's criterion for entity nodes,
* :mod:`repro.xmltree.schema` — a schema summary inferred from the data
  itself when no DTD is available (the "XML data structure" alternative the
  paper mentions in §2.1),
* :mod:`repro.xmltree.serialize` — serialisation back to XML text,
* :mod:`repro.xmltree.stats` — document statistics used by the evaluation
  harness.
"""

from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import TreeShape, XMLTree
from repro.xmltree.builder import TreeBuilder
from repro.xmltree.parser import parse_xml, parse_xml_file
from repro.xmltree.serialize import to_xml_string, to_plain_dict
from repro.xmltree.dtd import DTD, parse_dtd
from repro.xmltree.schema import SchemaSummary, infer_schema
from repro.xmltree.stats import DocumentStats, compute_stats

__all__ = [
    "Dewey",
    "XMLNode",
    "XMLTree",
    "TreeShape",
    "TreeBuilder",
    "parse_xml",
    "parse_xml_file",
    "to_xml_string",
    "to_plain_dict",
    "DTD",
    "parse_dtd",
    "SchemaSummary",
    "infer_schema",
    "DocumentStats",
    "compute_stats",
]
