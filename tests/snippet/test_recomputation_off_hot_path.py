"""Snippet generation does not recompute what the document already fixes.

The analyzer resolves every node's category, owning entity and — the first
time a snippet is asked for — feature once per document; the snippet tree
prices a path by ``parent`` hops over ``pre`` ids; a result subtree is read
as a slice of the per-node tables.  So generating the snippets of a whole
result set must never rebuild a tag path or derive a Dewey prefix, walk no
result subtree node by node, normalise no value, turn no label back into a
node, compare or hash no label, and build a ``Feature`` only for a feature
that is dominant.  Counting wrappers, not timings; at the parent of the
``pre`` change the 891 page-1 snippets of the benchmark's ``cold_browse``
pool made 77,616 value normalisations and 160,423 ``find_node`` calls.
"""

from __future__ import annotations

import sys

import pytest

from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.dominant import DominantFeatureIdentifier
from repro.snippet.features import Feature
from repro.snippet.generator import SnippetGenerator
from repro.utils import text as text_module
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree
from tests.property.test_property_node_tables import SHAPES
from tests.search.test_search_off_label_path import query_pool

PAGE_SIZE = 10
SIZE_BOUND = 14


@pytest.fixture(scope="module")
def retail_index():
    config = RetailConfig(retailers=4, stores_per_retailer=4, clothes_per_store=5, seed=3)
    return IndexBuilder().build(generate_retail_document(config, name="retail"))


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of every recomputation route, by name."""
    counts: dict[str, int] = {}

    def counting(key, function):
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return counted

    tag_path = XMLNode.tag_path.fget
    monkeypatch.setattr(XMLNode, "tag_path", property(counting("tag_path", tag_path)))
    for owner, names in (
        (XMLNode, ("iter_subtree",)),
        (Dewey, ("prefix", "__hash__", "__lt__", "__eq__")),
        (XMLTree, ("node", "find_node")),
        (Feature, ("__init__",)),
    ):
        for name in names:
            key = name if owner is XMLNode else f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, counting(key, owner.__dict__[name]))
    # the text functions are bound by name wherever they were imported
    for name in ("normalize_value", "tokenize"):
        original = getattr(text_module, name)
        counted = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def reset(calls) -> None:
    for name in calls:
        calls[name] = 0


#: the routes no generated snippet may take once the document's table exists
NEVER = (
    "tag_path", "iter_subtree", "Dewey.prefix", "Dewey.__hash__", "Dewey.__lt__",
    "Dewey.__eq__", "XMLTree.node", "XMLTree.find_node", "normalize_value", "tokenize",
)


@pytest.mark.parametrize("query", ["store texas", "retailer apparel", "casual man", "houston"])
def test_generate_all_recomputes_nothing(retail_index, calls, query):
    results = SearchEngine(retail_index).search(query)
    assert len(results) > 0
    retail_index.analyzer.feature_table  # built by whichever snippet comes first
    reset(calls)  # the search is not under test here

    batch = SnippetGenerator(retail_index.analyzer).generate_all(results, size_bound=10)

    assert len(batch) == len(results)
    assert all(generated.snippet.size_edges > 0 for generated in batch)
    assert {name: calls[name] for name in NEVER} == dict.fromkeys(NEVER, 0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_page_one_of_every_pool_query_takes_no_slow_route(shape, calls):
    index = IndexBuilder().build(SHAPES[shape]())
    engine = SearchEngine(index)
    generator = SnippetGenerator(index.analyzer, cache_size=0)
    dominant = DominantFeatureIdentifier(index.analyzer)
    index.analyzer.feature_table
    generated_snippets = 0
    for text in query_pool(index):
        for result in engine.search(text).results[:PAGE_SIZE]:
            reset(calls)
            generated = generator.generate(result, size_bound=SIZE_BOUND)
            seen = dict(calls)
            generated_snippets += 1
            assert {name: seen[name] for name in NEVER} == dict.fromkeys(NEVER, 0), text
            # a Feature object per dominant feature, none for the rest
            dominant_features = len(dominant.identify(result, generated.ilist.statistics))
            assert seen["Feature.__init__"] <= dominant_features, text
            assert dominant_features <= len(generated.ilist.statistics), text
    assert generated_snippets > 0


class CountingList(list):
    """A list that counts how it is read: slices taken, single elements."""

    slices = 0
    elements = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.slices += 1
        else:
            self.elements += 1
        return list.__getitem__(self, index)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_whole_document_result_reads_its_slice_a_bounded_number_of_times(shape):
    """The features of a 9k-node result are counted from slices of the
    per-node tables — the feature ids once, the owners once when the root is
    not an entity — never by indexing the tables node by node."""
    index = IndexBuilder().build(SHAPES[shape]())
    analyzer = index.analyzer
    whole = SearchEngine(index).search(index.tree.root.tag)[0]
    assert whole.root_node is index.tree.root
    table = analyzer.feature_table
    ids = CountingList(table.ids)
    owners = CountingList(analyzer.node_owners)
    analyzer._features = table._replace(ids=ids)
    analyzer._node_owners = owners

    generated = SnippetGenerator(analyzer, cache_size=0).generate(whole, size_bound=SIZE_BOUND)

    assert generated.snippet.size_edges > 0
    assert len(generated.ilist.statistics) > 0
    assert ids.slices == 1 and ids.elements == 0
    assert owners.slices <= 1 and owners.elements <= 1  # the root's own owner
    # ... and the nodes it reads are the ones it shows, not the ones it counted
    assert len(generated.ilist.items) < index.tree.size_nodes


def test_the_counters_see_the_slow_routes(retail_index, calls):
    """Sanity check on the fixture: the routes kept for foreign nodes, for
    labels and for whoever asks the statistics for everything do trip the
    counters."""
    analyzer = retail_index.analyzer
    result = SearchEngine(retail_index).search("store texas")[0]
    foreign = generate_retail_document(RetailConfig(retailers=1, seed=9), name="other")
    reset(calls)

    analyzer.category_of(foreign.root.children[0])
    assert calls["tag_path"] == 1
    analyzer.scan_subtree(foreign.root)
    assert calls["iter_subtree"] == 1

    deepest = max(result.iter_nodes(), key=lambda node: node.level)
    assert deepest.dewey.prefix(1) == list(deepest.dewey.ancestors())[1]
    assert calls["Dewey.prefix"] > 0
    assert retail_index.tree.node(deepest.dewey) is retail_index.tree.find_node(deepest.dewey)
    assert sorted({deepest.dewey, result.root})[0] == result.root
    assert text_module.normalize_value(" Brook  Brothers ") == "brook brothers"
    assert all(calls[name] > 0 for name in NEVER), calls

    statistics = SnippetGenerator(analyzer).build_ilist(result).statistics
    reset(calls)
    assert len(statistics.features()) == len(statistics) == calls["Feature.__init__"]
