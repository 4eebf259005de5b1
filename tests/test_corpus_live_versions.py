"""A document has one live version.

A text-only update rebinds every cache entry it keeps — result sets,
outcomes whose snippets are only partly generated, memoised roots — to the
new tree (``repro.corpus._carry_serving_state``), so once the
requests that were reading a retired version have finished, nothing holds
it: exactly one ``XMLTree`` per document is alive, and the live
``XMLNode``s are the corpus's own.  Before rebinding, every kept entry
pinned the version it was computed on, about ten per document here.
"""

from __future__ import annotations

import gc
import random
import re

import pytest

from repro.api import SearchRequest, SnippetService, UpdateRequest
from repro.cluster import ClusterService
from repro.corpus import Corpus
from repro.datasets import RetailConfig, generate_retail_document
from repro.datasets.base import US_CITIES
from repro.system import SearchOutcome
from repro.xmltree.diff import clone_tree
from repro.xmltree.node import XMLNode
from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import XMLTree

DOCUMENTS = ("live-versions-a", "live-versions-b", "live-versions-c")
UPDATES = 60
#: read at every step: one half-generated outcome, one read for its
#: results only
EVERY_STEP = (
    ("store texas", {"page_size": 2}),
    ("retailer apparel", {"include_snippets": False}),
)
#: read in turn, a new one every step: what survives an update was first
#: computed on a different version each
IN_TURN = tuple(
    (f"clothes {category} {kind}", options)
    for category in ("suit", "jeans", "outwear", "skirt", "dresses", "jackets")
    for kind, options in (
        ("casual", {"page_size": 2}),
        ("formal", {"page_size": 2, "page": 2}),
        ("man", {"include_snippets": False}),
    )
)
_CITY = re.compile(r"<city>([^<]*)</city>")


def documents() -> dict[str, str]:
    return {
        name: to_xml_string(generate_retail_document(
            RetailConfig(retailers=2, stores_per_retailer=4, clothes_per_store=5, seed=seed),
            name=name,
        ))
        for seed, name in enumerate(DOCUMENTS, 3)
    }


def edit_one_city(xml: str, rng: random.Random) -> str:
    """``xml`` with one ``<city>`` value replaced by another city."""
    match = rng.choice(list(_CITY.finditer(xml)))
    city = rng.choice([city for city in US_CITIES if city != match.group(1)])
    return f"{xml[: match.start(1)]}{city}{xml[match.end(1):]}"


def replay(backend, current: dict[str, str]) -> int:
    """Reads between one-``<city>`` updates, the documents in turn; each
    document's last request is an update, so whatever its caches hold
    afterwards was carried across one.  Returns the entries kept."""
    rng = random.Random(7)
    kept = 0

    def update(name: str) -> None:
        nonlocal kept
        current[name] = edit_one_city(current[name], rng)
        response = backend.run_update(UpdateRequest(document=name, xml=current[name]))
        assert response.incremental
        kept += response.cache_entries_kept

    for step in range(UPDATES):
        reads = (*EVERY_STEP, IN_TURN[step % len(IN_TURN)])
        for name in DOCUMENTS:
            for query, options in reads:
                backend.run(SearchRequest(query=query, document=name, size_bound=6, **options))
        update(DOCUMENTS[step % len(DOCUMENTS)])
    for name in DOCUMENTS:
        update(name)
    return kept


def live_xml_nodes() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is XMLNode)


def assert_one_live_version(
    corpora: dict[str, Corpus], nodes_before: int, collect: bool = True
) -> None:
    """One tree and its nodes per document, and nothing else; with
    ``collect=False`` read before any collection, so what reference
    counting did not free is counted too."""
    if collect:
        gc.collect()
    trees = [obj for obj in gc.get_objects() if type(obj) is XMLTree and obj.name in DOCUMENTS]
    assert sorted(tree.name for tree in trees) == sorted(DOCUMENTS)
    for tree in trees:
        assert tree is corpora[tree.name].system(tree.name).index.tree
    corpus_nodes = sum(corpora[name].entry(name).node_count for name in DOCUMENTS)
    assert live_xml_nodes() - nodes_before == corpus_nodes
    for name in DOCUMENTS:
        assert corpora[name].live_versions()[name] == 1


def assert_kept_entries_left_behind(corpora: dict[str, Corpus]) -> None:
    """Every document's caches hold what the retention could come from."""
    for name in DOCUMENTS:
        system = corpora[name].system(name)
        values = list(system.cache._entries.values())
        assert any(
            isinstance(value, SearchOutcome)
            and 0 < value.snippets.generated < len(value.snippets)
            for value in values
        ), name
        assert any(value.snippets.generated == 0 for value in values), name
        # the root memo: every entry carried across the last update reads
        # the live tree
        roots = list(system.generator.ilist_builder.roots._entries.values())
        assert roots, name
        assert all(part.statistics.source is system.index.tree for part in roots), name


@pytest.fixture()
def nodes_before():
    return live_xml_nodes()


def test_a_served_corpus_keeps_one_tree_per_document(nodes_before):
    current = documents()
    corpus = Corpus()
    for name, xml in current.items():
        corpus.add_xml(name, xml)
    service = SnippetService(corpus)

    assert replay(service, current) > 0

    corpora = dict.fromkeys(DOCUMENTS, corpus)
    assert_kept_entries_left_behind(corpora)
    assert_one_live_version(corpora, nodes_before)
    assert service.stats()["live_versions"] == dict.fromkeys(DOCUMENTS, 1)


def test_retired_versions_die_without_the_collector(nodes_before):
    """A document version holds no reference cycle (``XMLNode.parent`` is
    weak), so reference counting alone frees a retired one: with the
    cycle collector off for the whole replay, nothing but the live
    versions' nodes is left."""
    current = documents()
    gc.disable()
    try:
        corpus = Corpus()
        for name, xml in current.items():
            corpus.add_xml(name, xml)
        service = SnippetService(corpus)
        assert replay(service, current) > 0
        assert_one_live_version(dict.fromkeys(DOCUMENTS, corpus), nodes_before, collect=False)
    finally:
        gc.enable()


def test_a_sharded_corpus_keeps_one_tree_per_document(nodes_before):
    current = documents()
    corpus = Corpus()
    for name, xml in current.items():
        corpus.add_xml(name, xml)
    cluster = ClusterService.from_corpus(corpus, shards=2)
    del corpus  # the shards own the documents now
    try:
        assert replay(cluster, current) > 0
        corpora = {name: shard.corpus for shard in cluster.shards for name in shard.names()}
        assert sorted(corpora) == sorted(DOCUMENTS)
        assert len({id(shard_corpus) for shard_corpus in corpora.values()}) == 2
        assert_kept_entries_left_behind(corpora)
        assert_one_live_version(corpora, nodes_before)
    finally:
        cluster.close()


def shared_root_queries(tree: XMLTree) -> tuple[str, str, int, str]:
    """Two queries whose one result is the same store, and a text edit
    outside that store that changes the postings of the first query's
    keywords only: (killed query, kept query, ``pre`` of the other store's
    ``<city>``, the city it becomes)."""
    stores = [
        store for store in tree.find_by_tag("store")
        if " " not in store.find_child("city").text
    ]
    shared, other = next(
        (store, other)
        for store in stores
        for other in stores
        if other.find_child("city").text != store.find_child("city").text
        and other.find_child("name").text.split()[:2] != store.find_child("name").text.split()[:2]
    )
    city = shared.find_child("city").text
    name = " ".join(shared.find_child("name").text.split()[:2])
    return f"store {city}", f"store {name}", other.find_child("city").pre, city


def test_two_queries_share_a_root_and_an_update_keeps_one():
    """The statistics of a root are computed once and shared by every query
    whose result has that root.  An edit under another store that changes
    one query's postings kills that query's outcome and keeps the other's:
    the kept entry moves the shared statistics onto the live version, and
    the retired version dies."""
    current = documents()
    corpus = Corpus()
    for name, xml in current.items():
        corpus.add_xml(name, xml)
    service = SnippetService(corpus)
    name = DOCUMENTS[0]
    killed, kept, edited_pre, city = shared_root_queries(corpus.system(name).index.tree)

    def snippets(query: str) -> list:
        return list(corpus.system(name).run_query(query, size_bound=6).snippets)

    for query in (killed, kept):
        service.run(SearchRequest(query=query, document=name, size_bound=6))
    (kept_snippet,) = snippets(kept)
    statistics = kept_snippet.ilist.statistics
    root = kept_snippet.result.root_node.pre
    assert [
        generated.ilist.statistics for generated in snippets(killed)
        if generated.result.root_node.pre == root
    ] == [statistics]
    del kept_snippet

    edited = clone_tree(corpus.system(name).index.tree)
    edited.nodes_by_pre[edited_pre].text = city
    current[name] = to_xml_string(edited)
    del edited
    response = service.run_update(UpdateRequest(document=name, xml=current[name]))
    assert response.incremental and response.cache_entries_invalidated >= 1

    live = corpus.system(name)
    assert live.run_query(kept, size_bound=6).from_cache
    assert not live.run_query(killed, size_bound=6).from_cache
    assert statistics.source is live.index.tree
    assert service.stats()["live_versions"] == dict.fromkeys(DOCUMENTS, 1)
    rebuilt = Corpus()
    rebuilt.add_xml(name, current[name])
    fresh = SnippetService(rebuilt)
    for query in (kept, killed):
        request = SearchRequest(query=query, document=name, size_bound=6)
        assert service.run(request).to_dict() == fresh.run(request).to_dict(), query


def test_a_retired_version_lives_while_a_request_holds_it():
    current = documents()
    name = DOCUMENTS[0]
    corpus = Corpus()
    corpus.add_xml(name, current[name])
    held = corpus.system(name).index.tree  # a request still reading it
    edited = edit_one_city(current[name], random.Random(1))
    SnippetService(corpus).run_update(UpdateRequest(document=name, xml=edited))
    assert corpus.live_versions() == {name: 2}
    del held
    assert corpus.live_versions() == {name: 1}
    corpus.remove_document(name)
    assert corpus.live_versions() == {}
