"""The Index Builder façade.

Combines the data analyzer, the inverted keyword index and the structure
index into one :class:`DocumentIndex`, the object the search engine and the
snippet generator actually consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify.analyzer import DataAnalyzer
from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingList
from repro.index.structure import StructureIndex
from repro.utils.timing import TimingBreakdown
from repro.xmltree.dtd import DTD
from repro.xmltree.tree import XMLTree


@dataclass
class DocumentIndex:
    """All per-document indexes plus the analyzer that produced them."""

    tree: XMLTree
    analyzer: DataAnalyzer
    inverted: InvertedIndex
    structure: StructureIndex

    def keyword_matches(self, keyword: str) -> PostingList:
        """Posting list of nodes matching ``keyword`` (tag or value)."""
        return self.inverted.lookup(keyword)

    @property
    def name(self) -> str:
        return self.tree.name

    def __repr__(self) -> str:
        return (
            f"<DocumentIndex {self.tree.name!r} nodes={self.tree.size_nodes} "
            f"terms={self.inverted.vocabulary_size}>"
        )


class IndexBuilder:
    """Builds a :class:`DocumentIndex` for a document (Figure 4 component).

    :attr:`timings` accumulates one phase per step: ``paths`` (the tree's
    shape and tag-path columns), then the analyzer's own ``schema``,
    ``keys`` and ``bind`` (:class:`DataAnalyzer` runs them under the
    builder's measure), ``inverted_index`` and ``structure_index``.
    """

    def __init__(self, dtd: DTD | None = None):
        self.dtd = dtd
        self.timings = TimingBreakdown()

    def build(self, tree: XMLTree) -> DocumentIndex:
        """Analyze and index ``tree``.

        >>> from repro.xmltree.builder import tree_from_dict
        >>> tree = tree_from_dict("retailer", {"store": [{"city": "Houston"}, {"city": "Austin"}]})
        >>> index = IndexBuilder().build(tree)
        >>> len(index.keyword_matches("houston"))
        1
        """
        measure = self.timings.measure
        with measure("paths"):
            # both built on first use: here, rather than inside the first
            # phase that reads them
            tree.shape, tree.paths
        analyzer = DataAnalyzer(tree, self.dtd, measure=measure)
        with measure("inverted_index"):
            inverted = InvertedIndex().build(tree)
        with measure("structure_index"):
            structure = StructureIndex().build(tree, analyzer)
        return DocumentIndex(tree=tree, analyzer=analyzer, inverted=inverted, structure=structure)
