"""Document statistics used by the evaluation harness and the examples.

The efficiency experiments (E3, E7) sweep document size; the workload
generator needs to know which tags and values exist so it can draw query
keywords that are guaranteed (or guaranteed not) to match.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.utils.text import iter_index_terms
from repro.xmltree.tree import XMLTree


@dataclass
class DocumentStats:
    """Aggregate counts describing one XML document."""

    name: str
    node_count: int
    edge_count: int
    max_depth: int
    leaf_count: int
    text_node_count: int
    distinct_tags: int
    tag_counts: Counter[str] = field(default_factory=Counter)
    term_counts: Counter[str] = field(default_factory=Counter)

    @property
    def average_fanout(self) -> float:
        """Mean number of children per internal node."""
        internal = self.node_count - self.leaf_count
        if internal == 0:
            return 0.0
        return self.edge_count / internal

    def most_common_tags(self, limit: int = 10) -> list[tuple[str, int]]:
        return self.tag_counts.most_common(limit)

    def most_common_terms(self, limit: int = 10) -> list[tuple[str, int]]:
        return self.term_counts.most_common(limit)

    def format_summary(self) -> str:
        """Render a plain-text summary block (used by examples)."""
        lines = [
            f"document        : {self.name}",
            f"nodes / edges   : {self.node_count} / {self.edge_count}",
            f"max depth       : {self.max_depth}",
            f"leaves          : {self.leaf_count}",
            f"text nodes      : {self.text_node_count}",
            f"distinct tags   : {self.distinct_tags}",
            f"average fanout  : {self.average_fanout:.2f}",
        ]
        top = ", ".join(f"{tag}({count})" for tag, count in self.most_common_tags(6))
        lines.append(f"frequent tags   : {top}")
        return "\n".join(lines)


def compute_stats(tree: XMLTree) -> DocumentStats:
    """Compute :class:`DocumentStats` in one pass over the document."""
    tag_counts: Counter[str] = Counter()
    term_counts: Counter[str] = Counter()
    leaf_count = 0
    text_node_count = 0
    node_count = 0

    for node in tree.iter_nodes():
        node_count += 1
        tag_counts[node.tag] += 1
        if node.is_leaf:
            leaf_count += 1
        if node.has_text_value:
            text_node_count += 1
            for term in iter_index_terms(node.text or ""):
                term_counts[term] += 1
        for term in iter_index_terms(node.tag):
            term_counts[term] += 1

    return DocumentStats(
        name=tree.name,
        node_count=node_count,
        edge_count=max(0, node_count - 1),
        max_depth=tree.max_depth,
        leaf_count=leaf_count,
        text_node_count=text_node_count,
        distinct_tags=len(tag_counts),
        tag_counts=tag_counts,
        term_counts=term_counts,
    )
