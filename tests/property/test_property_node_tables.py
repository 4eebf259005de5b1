"""Property tests: the analyzer's per-node tables are the old answer.

A bound :class:`~repro.classify.analyzer.DataAnalyzer` resolves category
and owning entity of every node once, into tables indexed by ``node.pre``.
Whatever path bound it — the constructor, a text-only update (tables
carried over), a structural update (rebuilt), a v4 snapshot load — the
tables must say, for every node, exactly what classifying the node's own
tag path and walking to its nearest entity says; a node of another tree
never gets the entry of the local node that shares its ``pre``; and the
snippet tree's parent-hop path cost equals the count of path labels not
yet selected.  (The third table, the feature ids, is held to the frozen
snippet oracle in ``tests/snippet/test_differential_snippet.py``.)
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classify.analyzer import _CATEGORY_OF_CODE, DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.corpus import Corpus
from repro.datasets import (
    AuctionConfig,
    BibliographyConfig,
    MoviesConfig,
    RetailConfig,
    generate_auction_document,
    generate_bibliography_document,
    generate_movies_document,
    generate_retail_document,
)
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.generator import SnippetGenerator
from repro.snippet.snippet_tree import Snippet
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.diff import clone_tree
from repro.xmltree.node import XMLNode
from tests.property.strategies import VALUES, xml_trees

COMMON_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: the five ``cold_browse`` document shapes at smoke scale
SHAPES = {
    "retail-wide": lambda: generate_retail_document(
        RetailConfig(retailers=3, stores_per_retailer=3, clothes_per_store=3, seed=11)
    ),
    "retail-deep": lambda: generate_retail_document(
        RetailConfig(retailers=6, stores_per_retailer=2, clothes_per_store=3, seed=12)
    ),
    "movies": lambda: generate_movies_document(MoviesConfig(movies=8, seed=23)),
    "auctions": lambda: generate_auction_document(AuctionConfig(scale=2, seed=31)),
    "bibliography": lambda: generate_bibliography_document(
        BibliographyConfig(conferences=2, papers_per_conference=4, seed=47)
    ),
}


def walked_owner(analyzer: DataAnalyzer, node: XMLNode) -> XMLNode | None:
    """The nearest ancestor-or-self entity, found the slow way."""
    for candidate in node.iter_ancestors(include_self=True):
        if analyzer.category_of_path(candidate.tag_path) == NodeCategory.ENTITY:
            return candidate
    return None


def assert_tables_are_the_old_answer(analyzer: DataAnalyzer) -> None:
    tree = analyzer.tree
    assert len(analyzer._node_codes) == len(analyzer._node_owners) == tree.size_nodes
    for node in tree.iter_nodes():
        assert tree.nodes_by_pre[node.pre] is node
        by_path = analyzer.category_of_path(node.tag_path)
        owner = walked_owner(analyzer, node)
        # the tables themselves
        assert _CATEGORY_OF_CODE[analyzer._node_codes[node.pre]] == by_path
        assert analyzer._node_owners[node.pre] == (owner.pre if owner is not None else -1)
        # and the accessors that read them
        assert analyzer.category_of(node) == by_path
        assert analyzer.is_entity(node) == (by_path == NodeCategory.ENTITY)
        assert analyzer.is_attribute(node) == (by_path == NodeCategory.ATTRIBUTE)
        assert analyzer.is_connection(node) == (by_path == NodeCategory.CONNECTION)
        assert analyzer.owning_entity(node) is owner


def with_one_value_changed(tree):
    """A clone of ``tree`` whose first text value is different."""
    edited = clone_tree(tree)
    victim = next(node for node in edited.iter_nodes() if node.has_text_value)
    victim.text = victim.text + " edited"
    return edited


def with_one_node_added(tree):
    edited = clone_tree(tree)
    edited.root.append_child(XMLNode("annex", "added"))
    edited.refresh()
    return edited


# ---------------------------------------------------------------------- #
# every way an analyzer gets bound
# ---------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(xml_trees())
def test_constructor_tables_on_random_documents(tree):
    assert_tables_are_the_old_answer(DataAnalyzer(tree))


@COMMON_SETTINGS
@given(xml_trees())
def test_tables_survive_updates_on_random_documents(tree):
    if not any(node.has_text_value for node in tree.iter_nodes()):
        return
    corpus = Corpus()
    corpus.add_tree("doc", tree)
    before = corpus.system("doc").index.analyzer

    report = corpus.update_document("doc", with_one_value_changed(tree))
    after_text = corpus.system("doc").index.analyzer
    assert_tables_are_the_old_answer(after_text)
    if report.incremental:
        # a text-only update carries the tables over instead of rebuilding
        assert after_text._node_codes is before._node_codes
        assert after_text._node_owners is before._node_owners

    report = corpus.update_document("doc", with_one_node_added(after_text.tree))
    assert not report.incremental
    assert_tables_are_the_old_answer(corpus.system("doc").index.analyzer)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tables_on_the_cold_browse_shapes(shape, tmp_path):
    tree = SHAPES[shape]()
    corpus = Corpus()
    corpus.add_tree(shape, tree)
    before = corpus.system(shape).index.analyzer
    assert_tables_are_the_old_answer(before)

    report = corpus.update_document(shape, with_one_value_changed(tree))
    assert report.incremental
    after_text = corpus.system(shape).index.analyzer
    assert after_text is not before
    assert after_text._node_codes is before._node_codes
    assert after_text._node_owners is before._node_owners
    assert_tables_are_the_old_answer(after_text)

    corpus.save_dir(tmp_path / "saved")
    loaded = Corpus.load_dir(tmp_path / "saved")
    assert_tables_are_the_old_answer(loaded.system(shape).index.analyzer)

    report = corpus.update_document(shape, with_one_node_added(after_text.tree))
    assert not report.incremental
    assert_tables_are_the_old_answer(corpus.system(shape).index.analyzer)


# ---------------------------------------------------------------------- #
# nodes the tables do not cover
# ---------------------------------------------------------------------- #
def test_foreign_node_with_a_colliding_pre_gets_its_own_answer():
    local = tree_from_dict("shops", {"store": [{"name": "a"}, {"name": "b"}]})
    analyzer = DataAnalyzer(local)
    foreign = tree_from_dict("shops", {"owner": "c", "store": [{"name": "d"}]})

    local_store = local.root.children[0]
    foreign_owner = foreign.root.children[0]
    assert local_store.pre == foreign_owner.pre
    assert analyzer.category_of(local_store) == NodeCategory.ENTITY

    # never the table entry of the local node at that pre
    assert foreign_owner.tag_path not in analyzer.categories
    assert analyzer.category_of(foreign_owner) == NodeCategory.CONNECTION
    assert not analyzer.is_entity(foreign_owner)
    assert analyzer.owning_entity(foreign_owner) is None

    # a foreign node whose path the analyzer does know is classified by it
    foreign_store = foreign.root.children[1]
    foreign_name = foreign_store.children[0]
    assert analyzer.category_of(foreign_store) == NodeCategory.ENTITY
    assert analyzer.category_of(foreign_name) == NodeCategory.ATTRIBUTE
    assert analyzer.owning_entity(foreign_name) is foreign_store

    assert not analyzer.covers(foreign_store)
    assert analyzer.scan_subtree(foreign_store).entities == [foreign_store]


def test_detached_node_is_classified_by_its_own_path():
    local = tree_from_dict("store", {"item": [{"name": "a"}, {"name": "b"}]})
    analyzer = DataAnalyzer(local)
    detached = XMLNode("item")  # pre == 0, like the local root
    assert detached.pre == local.root.pre
    assert analyzer.category_of(detached) == analyzer.category_of_path(("item",))
    assert analyzer.owning_entity(detached) is None


# ---------------------------------------------------------------------- #
# the scan and the path cost
# ---------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(xml_trees(), st.sampled_from(VALUES))
def test_scan_and_hop_cost_agree_with_the_walks(tree, keyword):
    index = IndexBuilder().build(tree)
    if index.keyword_matches(keyword).is_empty:
        return
    analyzer = index.analyzer
    generator = SnippetGenerator(analyzer)
    for result in SearchEngine(index).search(keyword):
        root = result.root_node
        assert result.size_nodes == root.subtree_size_nodes()
        assert result.size_edges == root.subtree_size_edges()

        scan = analyzer.scan_subtree(root)
        nodes = list(root.iter_subtree())
        assert scan.entities == [
            node
            for node in nodes
            if node is root or analyzer.category_of_path(node.tag_path) == NodeCategory.ENTITY
        ]

        # grow a snippet item by item; at every step the hop count is the
        # number of path labels the selection does not hold yet
        snippet = Snippet(result)
        tree_nodes = index.tree.nodes_by_pre
        for item in generator.build_ilist(result):
            inside = [pre for pre in item.instances if result.contains(pre)]
            for instance in inside:
                label = tree_nodes[instance].dewey
                assert result.root.is_ancestor_or_self(label)
                path = snippet.path_labels(instance)
                assert path == [
                    label.prefix(depth) for depth in range(result.root.depth, label.depth + 1)
                ]
                new_labels = [step for step in path if step not in snippet.node_labels]
                assert snippet.cost_of(instance) == len(new_labels)
            chosen = snippet.cheapest_instance(item.instances)
            if chosen is None:
                assert not inside
                continue
            instance, cost = chosen
            assert cost == min(snippet.cost_of(pre) for pre in inside)
            assert instance == min(pre for pre in inside if snippet.cost_of(pre) == cost)
            for budget in range(cost + 2):
                assert snippet.cheapest_instance(item.instances, budget) == (
                    chosen if cost <= budget else None
                )
            assert snippet.add_instance(item, instance) == cost
            assert snippet.is_connected()
