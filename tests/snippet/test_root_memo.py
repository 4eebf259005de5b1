"""A result root's statistics are computed once per document version.

The §2.3 statistics — ``N(e, a, v)``, ``N(e, a)``, ``D(e, a)`` — and the
entity names are counted inside the result subtree alone, so the IList
builder keeps each root's entity tags, feature statistics, entity-name
items, ranked dominant features and key items (``IListBuilder.roots``),
and a second query whose result has the same root decides its return
entity and adds its keywords on top.  Counting wrappers, not timings: over
one service, the subtree scan, the feature count and the dominance ranking
run once per distinct root — also when the roots outnumber the serving
caches' entries, since the memo is bounded by subtree nodes — and every
response is byte-identical to a fresh service's.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from repro.api import SearchRequest, SnippetService
from repro.classify.analyzer import DataAnalyzer
from repro.corpus import Corpus
from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.snippet import features as features_module
from repro.snippet import ilist as ilist_module
from repro.snippet.dominant import DominantFeatureIdentifier
from repro.snippet.generator import SnippetGenerator
from repro.snippet.ilist import IListBuilder
from repro.utils.cache import DEFAULT_CACHE_SIZE
from repro.xmltree.diff import clone_tree
from repro.xmltree.tree import XMLTree
from tests.search.test_search_off_label_path import query_pool

PAGE_SIZE = 10
SIZE_BOUND = 14
CONFIG = RetailConfig(retailers=4, stores_per_retailer=4, clothes_per_store=5, seed=3)


def retail_corpus(cache_size: int | None = None, config: RetailConfig = CONFIG) -> Corpus:
    corpus = Corpus() if cache_size is None else Corpus(cache_size=cache_size)
    corpus.add_tree("retail", generate_retail_document(config, name="retail"))
    return corpus


def request(query: str, **overrides) -> SearchRequest:
    options = {"size_bound": SIZE_BOUND, "page_size": PAGE_SIZE, **overrides}
    return SearchRequest(query=query, document="retail", **options)


def wire(response) -> str:
    return json.dumps(response.to_dict(), sort_keys=True)


def fresh_wire(query: str, config: RetailConfig = CONFIG, **overrides) -> str:
    """What a service that answered nothing else serves for ``query``."""
    return wire(SnippetService(retail_corpus(config=config)).run(request(query, **overrides)))


@pytest.fixture(scope="module")
def pool() -> list[str]:
    return query_pool(IndexBuilder().build(generate_retail_document(CONFIG, name="retail")))


@pytest.fixture()
def roots(monkeypatch):
    """Per counted route, the root ``pre`` of every call: the IList builds,
    the subtree scans, the feature counts and the dominance rankings."""
    seen: dict[str, list[int]] = {"build": [], "scan": [], "features": [], "dominant": []}

    build = IListBuilder.build

    def counted_build(self, query, result, *args, **kwargs):
        seen["build"].append(result.root_node.pre)
        return build(self, query, result, *args, **kwargs)

    scan = DataAnalyzer.scan_subtree

    def counted_scan(self, root):
        seen["scan"].append(root.pre)
        return scan(self, root)

    identify = DominantFeatureIdentifier.identify

    def counted_identify(self, result, statistics=None):
        seen["dominant"].append(result.root_node.pre)
        return identify(self, result, statistics)

    extract = features_module.extract_features

    def counted_extract(analyzer, result):
        seen["features"].append(result.root_node.pre)
        return extract(analyzer, result)

    monkeypatch.setattr(IListBuilder, "build", counted_build)
    monkeypatch.setattr(DataAnalyzer, "scan_subtree", counted_scan)
    monkeypatch.setattr(DominantFeatureIdentifier, "identify", counted_identify)
    # bound by name wherever it was imported
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, "extract_features", None) is extract:
            monkeypatch.setattr(module, "extract_features", counted_extract)
    return seen


def test_each_root_is_scanned_counted_and_ranked_once(pool, roots):
    service = SnippetService(retail_corpus())
    served = [wire(service.run(request(query))) for query in pool]

    built = Counter(roots["build"])
    assert sum(built.values()) > len(built)  # the pool does repeat roots
    for route in ("scan", "features", "dominant"):
        assert Counter(roots[route]) == Counter(dict.fromkeys(built, 1)), route
    memo = service.corpus.system("retail").generator.ilist_builder.roots
    assert len(memo) == len(built)
    # ... and no response shows it
    assert served == [fresh_wire(query) for query in pool]


def test_a_second_query_on_the_same_roots_counts_nothing(roots):
    service = SnippetService(retail_corpus())
    every_store = service.run(request("store", page_size=None))
    stores = set(roots["build"])
    assert len(stores) == every_store.total_results > 1
    for route in roots:
        del roots[route][:]

    texas = service.run(request("store texas", page_size=None))

    assert 0 < len(roots["build"]) == texas.total_results < len(stores)
    assert set(roots["build"]) <= stores
    assert roots["features"] == roots["scan"] == roots["dominant"] == []
    assert wire(texas) == fresh_wire("store texas", page_size=None)


def test_two_queries_share_one_statistics_object():
    system = retail_corpus().system("retail")
    stores = {
        generated.result.root_node.pre: generated
        for generated in system.run_query("store", size_bound=SIZE_BOUND).snippets
    }
    for generated in system.run_query("store texas", size_bound=SIZE_BOUND).snippets:
        first = stores[generated.result.root_node.pre]
        assert generated.ilist is not first.ilist
        assert generated.ilist.statistics is first.ilist.statistics
        # the root's own items are the same objects (less any a keyword
        # of this query already names)
        shared = {id(item) for item in first.ilist.items_of_kind("feature")}
        assert all(id(item) in shared for item in generated.ilist.items_of_kind("feature"))


def test_a_root_of_another_tree_never_hits_the_memo(roots):
    local = IndexBuilder().build(generate_retail_document(CONFIG, name="retail"))
    foreign = IndexBuilder().build(clone_tree(local.tree, name="foreign"))
    generator = SnippetGenerator(local.analyzer)
    result = SearchEngine(foreign).search("store texas")[0]
    assert not local.analyzer.covers(result.root_node)

    for query in ("store texas", "texas store", "store"):
        generator.generate(result, size_bound=SIZE_BOUND, query=KeywordQuery.parse(query))

    assert len(generator.ilist_builder.roots) == 0
    assert roots["features"] == [result.root_node.pre] * 3


def test_cache_size_zero_keeps_no_root(pool, roots):
    service = SnippetService(retail_corpus(cache_size=0))
    served = [wire(service.run(request(query))) for query in pool[:8]]

    assert len(service.corpus.system("retail").generator.ilist_builder.roots) == 0
    assert roots["features"] == roots["build"]  # every build counts its root
    assert served == [fresh_wire(query) for query in pool[:8]]


def test_invalidate_cache_drops_the_memo():
    system = retail_corpus().system("retail")
    list(system.run_query("store texas", size_bound=SIZE_BOUND).snippets)
    assert len(system.generator.ilist_builder.roots) > 0
    system.invalidate_cache()
    assert len(system.generator.ilist_builder.roots) == 0


def test_use_cache_false_is_a_cold_evaluation(roots):
    """``use_cache=False`` reads and fills neither the result cache nor the
    root memo: a second such request generates every snippet again, and
    reports the phases it ran."""
    service = SnippetService(retail_corpus())
    cold = request("store texas", use_cache=False, include_meta=True)
    first = service.run(cold)
    second = service.run(cold)

    generator = service.corpus.system("retail").generator
    assert len(generator.ilist_builder.roots) == 0
    assert len(service.corpus.system("retail").cache) == 0
    assert not second.from_cache
    assert {"ilist", "features"} <= set(second.timings)
    assert len(roots["features"]) == 2 * len(second.results) > 0
    assert wire(second) == wire(first) == fresh_wire("store texas")


#: a document whose pool reaches more distinct roots than the serving
#: caches hold entries (``DEFAULT_CACHE_SIZE``)
WIDE = RetailConfig(retailers=8, stores_per_retailer=8, clothes_per_store=5, seed=3)


def test_the_memo_keeps_more_roots_than_the_cache_holds_entries(roots):
    """The memo is bounded by subtree nodes, not by roots: replayed at
    another size bound — past the result cache — the pool
    finds every root it reached the first time still there."""
    service = SnippetService(retail_corpus(config=WIDE))
    pool = query_pool(service.corpus.system("retail").index)
    for query in pool:
        service.run(request(query, page_size=None))
    reached = set(roots["build"])
    assert len(reached) > DEFAULT_CACHE_SIZE
    for route in roots:
        del roots[route][:]

    replayed = [wire(service.run(request(query, page_size=None, size_bound=6))) for query in pool]

    assert set(roots["build"]) == reached
    assert roots["features"] == roots["scan"] == roots["dominant"] == []
    memo = service.corpus.system("retail").generator.ilist_builder.roots
    assert len(memo) == len(reached) and memo.stats_snapshot().evictions == 0
    assert replayed == [
        fresh_wire(query, config=WIDE, page_size=None, size_bound=6) for query in pool
    ]


def test_the_memo_holds_its_budget_in_subtree_nodes(pool, monkeypatch):
    """With a budget of one document's worth of subtree nodes, the pool's
    roots (which sum to more) evict each other by weight, and no response
    shows it."""
    monkeypatch.setattr(ilist_module, "ROOT_MEMO_BUDGET", 1)
    service = SnippetService(retail_corpus())
    served = [wire(service.run(request(query, page_size=None))) for query in pool]

    system = service.corpus.system("retail")
    memo = system.generator.ilist_builder.roots
    assert memo.maxsize == system.index.tree.size_nodes
    assert 0 < memo.weight <= memo.maxsize
    assert memo.stats_snapshot().evictions > 0
    assert served == [fresh_wire(query, page_size=None) for query in pool]


# ---------------------------------------------------------------------- #
# carried across a text-only update
# ---------------------------------------------------------------------- #
#: queries that between them memoise every retailer, store and suit
MEMOISING = ("retailer", "store", "clothes suit")


def memoised_service() -> SnippetService:
    service = SnippetService(retail_corpus())
    for query in MEMOISING:
        service.run(request(query, page_size=None))
    return service


def edited_copy(service: SnippetService, edit) -> XMLTree:
    """A copy of the served document with ``edit(copy)`` applied."""
    edited = clone_tree(service.corpus.system("retail").index.tree)
    edit(edited)
    return edited


def rebuilt_wire(tree: XMLTree, query: str, **overrides) -> str:
    corpus = Corpus()
    corpus.add_tree("retail", clone_tree(tree, name="retail"))
    return wire(SnippetService(corpus).run(request(query, **overrides)))


def test_a_text_edit_keeps_every_root_with_no_edit_under_it(roots):
    """One ``<city>`` changes: its store and that store's ancestors lose
    their memo entries, every other root is carried to the new version —
    rebound to its tree — and a query that did not run before the edit
    counts no feature on a carried root, answering as a rebuild does."""
    service = memoised_service()
    before = set(service.corpus.system("retail").generator.ilist_builder.roots._entries)
    store = service.corpus.system("retail").index.tree.find_by_tag("store")[5]
    city = store.find_child("city")
    over_the_edit = {node.pre for node in (city, *city.iter_ancestors())}
    assert {store.pre, store.parent.pre} <= before

    def move_city(tree: XMLTree) -> None:
        tree.nodes_by_pre[city.pre].text = "Zzyzx"

    edited = edited_copy(service, move_city)
    report = service.corpus.update_document("retail", clone_tree(edited, name="retail"))

    assert report.incremental
    live = service.corpus.system("retail")
    memo = live.generator.ilist_builder.roots
    assert set(memo._entries) == before - over_the_edit
    assert all(part.statistics.source is live.index.tree for part in memo._entries.values())
    # the two roots, and the "retailer" and "store" outcomes around them
    assert report.cache_entries_invalidated == len(before & over_the_edit) + 2
    for route in roots:
        del roots[route][:]

    texas = wire(service.run(request("store texas", page_size=None)))

    assert set(roots["build"]) <= before
    assert set(roots["features"]) == set(roots["build"]) & over_the_edit
    assert len(roots["features"]) < len(roots["build"])
    assert texas == rebuilt_wire(edited, "store texas", page_size=None)


def test_carried_roots_read_the_live_key_list():
    """Over 20 versions — four reads, then one ``<city>`` moved — every
    carried root reads its feature ids through the live version's key
    list, so no root pins a retired one.  Each version's list only extends
    the one before it, so an id keeps its feature across the swap."""
    service = SnippetService(retail_corpus())
    reads = ("retailer", "store", "clothes suit", "store texas")
    key_lists = []
    for round_ in range(20):
        for query in reads:
            service.run(request(query))
        key_lists.append(service.corpus.system("retail").analyzer.built_feature_table.keys)

        def move_city(tree: XMLTree) -> None:
            stores = tree.find_by_tag("store")
            stores[round_ % len(stores)].find_child("city").text = f"Town{round_}"

        edited = edited_copy(service, move_city)
        assert service.corpus.update_document("retail", clone_tree(edited, name="retail")).incremental

    live = service.corpus.system("retail")
    live_keys = live.analyzer.built_feature_table.keys
    memo = live.generator.ilist_builder.roots
    assert len(memo) > 0
    assert all(part.statistics._keys is live_keys for part in memo._entries.values())
    for keys in key_lists:
        assert live_keys[: len(keys)] == keys
    for query in reads:
        assert wire(service.run(request(query))) == rebuilt_wire(edited, query), query


def test_a_moved_key_attribute_drops_every_root():
    """Two stores come to share a name, so ``name`` is no longer the
    store key: any root's key items may name another attribute now, and
    the update keeps no root — each counted as an invalidation in the
    memo's carried counters."""
    service = memoised_service()
    memo = service.corpus.system("retail").generator.ilist_builder.roots
    memoised, misses = len(memo), memo.stats_snapshot().misses
    assert memoised > 0

    def share_a_name(tree: XMLTree) -> None:
        first, second = tree.find_by_tag("store")[:2]
        second.find_child("name").text = first.find_child("name").text

    edited = edited_copy(service, share_a_name)
    report = service.corpus.update_document("retail", clone_tree(edited, name="retail"))

    assert report.incremental
    live = service.corpus.system("retail")
    assert live.analyzer.entity_types[("commerce", "retailer", "store")].key is None
    stats = live.cache_stats()["roots"]
    assert len(live.generator.ilist_builder.roots) == 0
    assert (stats.invalidations, stats.misses) == (memoised, misses)
    for query in MEMOISING:
        assert wire(service.run(request(query))) == rebuilt_wire(edited, query), query
