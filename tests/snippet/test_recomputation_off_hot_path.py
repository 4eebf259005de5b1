"""Snippet generation does not recompute what the document already fixes.

The analyzer resolves every node's category and owning entity once, when
it is bound to its tree; the snippet tree prices a path by ``parent`` hops;
a result subtree is read as a slice of the per-node tables.  So generating
the snippets of a whole result set must never rebuild a tag path, never
derive a Dewey prefix, and walk no result subtree more than once.
"""

from __future__ import annotations

import pytest

from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.generator import SnippetGenerator
from repro.snippet.snippet_tree import Snippet
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode


@pytest.fixture(scope="module")
def retail_index():
    config = RetailConfig(retailers=4, stores_per_retailer=4, clothes_per_store=5, seed=3)
    return IndexBuilder().build(generate_retail_document(config, name="retail"))


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the three recomputation routes, by name."""
    counts = {"tag_path": 0, "prefix": 0, "iter_subtree": 0}
    tag_path = XMLNode.tag_path.fget
    prefix = Dewey.prefix
    iter_subtree = XMLNode.iter_subtree

    def counted_tag_path(self):
        counts["tag_path"] += 1
        return tag_path(self)

    def counted_prefix(self, depth):
        counts["prefix"] += 1
        return prefix(self, depth)

    def counted_iter_subtree(self):
        counts["iter_subtree"] += 1
        return iter_subtree(self)

    monkeypatch.setattr(XMLNode, "tag_path", property(counted_tag_path))
    monkeypatch.setattr(Dewey, "prefix", counted_prefix)
    monkeypatch.setattr(XMLNode, "iter_subtree", counted_iter_subtree)
    return counts


@pytest.mark.parametrize("query", ["store texas", "retailer apparel", "casual man", "houston"])
def test_generate_all_recomputes_nothing(retail_index, calls, query):
    results = SearchEngine(retail_index).search(query)
    assert len(results) > 0
    for name in calls:
        calls[name] = 0  # the search is not under test here

    batch = SnippetGenerator(retail_index.analyzer).generate_all(results, size_bound=10)

    assert len(batch) == len(results)
    assert all(generated.snippet.size_edges > 0 for generated in batch)
    assert calls["tag_path"] == 0
    assert calls["prefix"] == 0
    assert calls["iter_subtree"] <= len(results)


def test_the_counters_see_the_slow_routes(retail_index, calls):
    """Sanity check on the fixture: the routes kept for foreign nodes and
    for callers of ``path_labels`` do trip the counters."""
    analyzer = retail_index.analyzer
    result = SearchEngine(retail_index).search("store texas")[0]
    foreign = generate_retail_document(RetailConfig(retailers=1, seed=9), name="other")
    for name in calls:
        calls[name] = 0

    analyzer.category_of(foreign.root.children[0])
    assert calls["tag_path"] == 1
    analyzer.scan_subtree(foreign.root)
    assert calls["iter_subtree"] == 1

    deepest = max(result.iter_nodes(), key=lambda node: node.level)
    assert Snippet(result).path_labels(deepest.dewey)[-1] == deepest.dewey
    assert calls["prefix"] > 0
