"""Differential tests: ``pre`` snippet generation vs. the frozen label oracle.

Feature statistics are counted from the analyzer's per-node feature table,
instance lists are ``pre`` ids and the snippet tree prices paths over the
tree's ``parent`` table; :mod:`tests.snippet.reference_snippet` is the code
all of that replaced.  Every result here goes through both (see
:mod:`tests.snippet.differential` for what is compared): the five
``cold_browse`` document shapes under all three result constructions, on an
index as built, lazily loaded from a v4 snapshot and after text-only
updates — where the carried feature table must also decode, node by node,
to what a from-scratch bind gives — plus hand-built documents for the
owner rule's corners and a root of a foreign tree (the walk fallback).
"""

from __future__ import annotations

import pytest

from repro.classify import analyzer as analyzer_module
from repro.classify.analyzer import DataAnalyzer
from repro.corpus import Corpus
from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.storage import load_index, save_index
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.xseek import ResultConstruction, build_result_tree
from repro.snippet.features import Feature, extract_features
from repro.snippet.ilist import IListBuilder
from repro.xmltree.diff import clone_tree, diff_trees
from repro.xmltree.parser import parse_xml
from tests.property.test_property_node_tables import SHAPES
from tests.search.test_search_off_label_path import query_pool
from tests.snippet.differential import assert_snippet_matches_reference, decoded

PAGE_SIZE = 10


def assert_page_ones_match(index, construction=ResultConstruction.XSEEK, queries=None) -> int:
    engine = SearchEngine(index, construction=construction)
    compared = 0
    for text in queries if queries is not None else query_pool(index):
        for result in engine.search(text).results[:PAGE_SIZE]:
            assert_snippet_matches_reference(index.analyzer, result)
            compared += 1
    return compared


# ---------------------------------------------------------------------- #
# the benchmark's document shapes
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("construction", list(ResultConstruction), ids=lambda c: c.value)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_cold_browse_shapes(shape, construction):
    index = IndexBuilder().build(SHAPES[shape]())
    assert assert_page_ones_match(index, construction) > 20
    # the whole document as one result: a root that is no entity
    whole = build_result_tree(index, KeywordQuery.parse(index.tree.root.tag), 0, construction)
    assert not index.analyzer.is_entity(whole.root_node)
    assert_snippet_matches_reference(index.analyzer, whole)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_lazily_loaded_v4_index(shape, tmp_path):
    built = IndexBuilder().build(SHAPES[shape]())
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded.analyzer._features is None  # nothing of the table is persisted
    assert assert_page_ones_match(loaded, queries=query_pool(built)) > 20
    assert decoded(loaded.analyzer) == decoded(built.analyzer)


# ---------------------------------------------------------------------- #
# the memo-hit path: a root whose statistics another query computed
# ---------------------------------------------------------------------- #
def assert_memo_hits_match(index, construction=ResultConstruction.XSEEK) -> int:
    """Every page-1 result of the pool, built by one builder right after
    the result of a different query with the same root went through it —
    so its scan, statistics, entity names and ranked features are the memo
    entry that query left."""
    builder = IListBuilder(index.analyzer)
    engine = SearchEngine(index, construction=construction)
    pool = query_pool(index)
    compared = 0
    for text, rival in zip(pool, pool[1:] + pool[:1]):
        rival_query = KeywordQuery.parse(rival)
        for result in engine.search(text).results[:PAGE_SIZE]:
            pre = result.root_node.pre
            assert rival_query.keywords != result.query.keywords
            earlier = build_result_tree(index, rival_query, pre, construction)
            assert earlier.root_node.pre == pre
            builder.build(rival_query, earlier)
            statistics = builder.roots.get(pre).statistics
            ilist = assert_snippet_matches_reference(index.analyzer, result, builder=builder)
            assert ilist.statistics is statistics
            compared += 1
    return compared


@pytest.mark.parametrize("construction", list(ResultConstruction), ids=lambda c: c.value)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_root_another_query_went_through_first(shape, construction):
    index = IndexBuilder().build(SHAPES[shape]())
    assert assert_memo_hits_match(index, construction) > 20
    # the whole document, first for another query
    builder = IListBuilder(index.analyzer)
    rival = KeywordQuery.parse(query_pool(index)[0])
    builder.build(rival, build_result_tree(index, rival, 0, construction))
    assert 0 in builder.roots
    whole = build_result_tree(index, KeywordQuery.parse(index.tree.root.tag), 0, construction)
    assert_snippet_matches_reference(index.analyzer, whole, builder=builder)


# ---------------------------------------------------------------------- #
# text-only updates: the table is carried, not rebuilt
# ---------------------------------------------------------------------- #
def edited_copy(tree, edits: dict[int, str]):
    clone = clone_tree(tree)
    for pre, text in edits.items():
        clone.nodes_by_pre[pre].text = text
    return clone


def three_kinds_of_edit(index) -> dict[int, str]:
    """One attribute value each changed to a brand-new value, to a value
    another node of its kind already has, and to one that normalises to
    nothing; plus a respelling that keeps the feature."""
    table = index.analyzer.feature_table
    nodes = index.tree.nodes_by_pre
    carriers = [pre for pre, feature_id in enumerate(table.ids) if feature_id >= 0]
    # two nodes of one feature type (same owner tag, same tag), two values
    second, other = next(
        (pre, nodes[rival].text)
        for pre in carriers
        for rival in carriers
        if table.keys[table.ids[pre]][:2] == table.keys[table.ids[rival]][:2]
        and table.ids[pre] != table.ids[rival]
    )
    first, third, fourth = [pre for pre in carriers if pre != second][:3]
    return {
        first: "A Value Nobody Had",
        second: other,
        third: " -- ",
        fourth: "  " + nodes[fourth].text.upper() + " ",
    }


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_carried_table_is_a_from_scratch_bind(shape, monkeypatch):
    index = IndexBuilder().build(SHAPES[shape]())
    old_analyzer = index.analyzer
    before = decoded(old_analyzer)
    edits = three_kinds_of_edit(index)
    edited = edited_copy(index.tree, edits)
    diff = diff_trees(index.tree, edited)
    assert diff.is_text_only and len(diff.text_edits) == len(edits)

    normalised: list[str] = []
    normalize_value = analyzer_module.normalize_value

    def counted(raw):
        normalised.append(raw)
        return normalize_value(raw)

    monkeypatch.setattr(analyzer_module, "normalize_value", counted)
    update = apply_text_update(index, edited, diff)
    monkeypatch.undo()

    # one normalisation per edited node, none for the other 9k
    assert sorted(normalised) == sorted(edits.values())
    carried = update.index.analyzer
    assert carried._features is not None and carried._features is not old_analyzer._features
    fresh = DataAnalyzer(edited)
    assert decoded(carried) == decoded(fresh)
    changed = {pre for pre, (old, new) in enumerate(zip(before, decoded(carried))) if old != new}
    assert changed <= set(edits) and len(changed) == 3  # the respelling kept its feature
    # copy-on-write: the retired version still reads its own table
    assert decoded(old_analyzer) == before

    assert assert_page_ones_match(update.index) > 20
    whole = build_result_tree(update.index, KeywordQuery.parse(edited.root.tag), 0)
    assert_snippet_matches_reference(carried, whole)


def test_a_document_nobody_snippets_carries_no_table():
    index = IndexBuilder().build(SHAPES["movies"]())
    victim = next(node for node in index.tree.iter_nodes() if node.has_text_value)
    edited = edited_copy(index.tree, {victim.pre: victim.text + " edited"})
    update = apply_text_update(index, edited, diff_trees(index.tree, edited))
    assert index.analyzer._features is None
    assert update.index.analyzer._features is None
    # ... and builds the edited one when the first snippet asks
    assert decoded(update.index.analyzer) == decoded(DataAnalyzer(edited))


def test_a_cached_statistics_object_reads_the_version_it_was_computed_on():
    corpus = Corpus()
    corpus.add_tree("doc", SHAPES["retail-wide"]())
    system = corpus.system("doc")
    result = system.run_query("store texas", use_cache=False).results[0]
    statistics = extract_features(system.index.analyzer, result)
    texas = Feature("store", "state", "texas")
    instances = statistics.instances_of(texas)
    assert instances and statistics.display_value(texas) == "Texas"

    edited = edited_copy(system.index.tree, {instances[0]: "Oregon"})
    assert corpus.update_document("doc", edited).incremental

    # the old statistics still describe the old version, entirely
    assert statistics.instances_of(texas) == instances
    assert statistics.display_value(texas) == "Texas"
    # the new version counts the edit
    new_system = corpus.system("doc")
    new_result = new_system.run_query("store", use_cache=False).results[0]
    assert new_result.root_node.pre == result.root_node.pre
    new_statistics = extract_features(new_system.index.analyzer, new_result)
    assert new_statistics.value_count(texas) == len(instances) - 1
    assert new_statistics.value_count(Feature("store", "state", "oregon")) == 1
    assert_snippet_matches_reference(new_system.index.analyzer, new_result)


# ---------------------------------------------------------------------- #
# the owner rule's corners, on hand-built documents
# ---------------------------------------------------------------------- #
def results_at(index, tag: str, construction=ResultConstruction.SUBTREE):
    """One result per node with ``tag``, rooted exactly there."""
    query = KeywordQuery.parse(tag)
    return [
        build_result_tree(index, query, node.pre, construction)
        for node in index.tree.find_by_tag(tag)
    ]


def test_entity_roots_and_roots_below_their_entity():
    index = IndexBuilder().build(
        parse_xml(
            "<shops><store><name>Galleria</name><city>Houston</city>"
            "<address><street>Main</street><city>houston</city></address></store>"
            "<store><name>Village</name><city>Austin</city>"
            "<address><street>Elm</street><city>Austin</city></address></store></shops>"
        ).tree
    )
    analyzer = index.analyzer
    for store in results_at(index, "store"):
        assert analyzer.is_entity(store.root_node)
        assert_snippet_matches_reference(analyzer, store)
    # <address> is no entity: its attributes' owner (the store) lies above
    # the result root, so they are the address's own features
    for address in results_at(index, "address"):
        assert not analyzer.is_entity(address.root_node)
        ilist = assert_snippet_matches_reference(analyzer, address)
        assert {feature.entity for feature in ilist.statistics.features()} == {"address"}
    # an attribute node as the whole result
    for city in results_at(index, "city"):
        assert_snippet_matches_reference(analyzer, city)


def test_non_entity_root_with_loose_attributes_and_duplicate_spellings():
    index = IndexBuilder().build(
        parse_xml(
            "<retailer><name>Brook Brothers</name><motto>  </motto><hq>houston</hq>"
            "<store><city>HOUSTON</city><state>Texas</state></store>"
            "<store><city> Houston </city><state>texas</state></store>"
            "<store><city>houston</city><state>--</state></store></retailer>"
        ).tree
    )
    (whole,) = results_at(index, "retailer")
    assert not index.analyzer.is_entity(whole.root_node)
    statistics = assert_snippet_matches_reference(index.analyzer, whole).statistics
    # one feature per normalised value; its display form is the first
    # spelling in document order *inside the result*
    houston = Feature("store", "city", "houston")
    assert statistics.value_count(houston) == 3
    assert statistics.display_value(houston) == "HOUSTON"
    assert statistics.display_value(Feature("retailer", "hq", "houston")) == "houston"
    # values that normalise to nothing carry no feature
    assert statistics.type_count("retailer", "motto") == 0
    assert statistics.type_count("store", "state") == 2
    second, third = results_at(index, "store")[1:]
    assert_snippet_matches_reference(index.analyzer, second)
    assert extract_features(index.analyzer, second).display_value(houston) == "Houston"
    assert extract_features(index.analyzer, third).display_value(houston) == "houston"


def test_a_rekeyed_feature_can_collide_with_an_owned_one():
    # The outer <group> does not repeat, so it is no entity; the <group>s
    # nested inside it are.  The outer one's own <label> has no owner and is
    # re-keyed to the result root's tag — "group", the tag under which the
    # nested groups own the same attribute with the same value.
    index = IndexBuilder().build(
        parse_xml(
            "<chain><group><label>north</label><kind>Depot</kind>"
            "<members>"
            "<group><label>NORTH</label><size>3</size></group>"
            "<group><label>south</label><size>3</size></group>"
            "<group><label>North</label><size>4</size></group>"
            "</members></group></chain>"
        ).tree
    )
    analyzer = index.analyzer
    outer, inner = index.tree.find_by_tag("group")[:2]
    assert not analyzer.is_entity(outer) and analyzer.is_entity(inner)
    assert analyzer.is_attribute(outer.find_child("label"))
    assert analyzer.owning_entity(outer.find_child("label")) is None
    result = results_at(index, "group")[0]
    assert result.root_node is outer
    statistics = assert_snippet_matches_reference(analyzer, result).statistics
    north = Feature("group", "label", "north")
    # one loose occurrence re-keyed to the root's tag + two owned by nested
    # groups: one feature, three instances, the first spelling displayed
    assert statistics.value_count(north) == 3
    assert statistics.display_value(north) == "north"
    assert statistics.domain_size("group", "label") == 2
    assert [index.tree.nodes_by_pre[pre].text for pre in statistics.instances_of(north)] == [
        "north", "NORTH", "North",
    ]
    assert statistics.value_count(Feature("group", "kind", "depot")) == 1
    # the whole document: the same loose attributes, re-keyed to "chain"
    whole = build_result_tree(index, KeywordQuery.parse("chain"), 0, ResultConstruction.SUBTREE)
    statistics = assert_snippet_matches_reference(analyzer, whole).statistics
    assert statistics.value_count(Feature("chain", "label", "north")) == 1
    assert statistics.value_count(north) == 2
    assert statistics.display_value(north) == "NORTH"


def test_loose_attributes_under_an_entity_above_the_root():
    # The owner of the first <note> is the <store> above the result root
    # <annex>; a <store> nested inside the annex owns a <note> with the same
    # value.  The table spells both (store, note, fragile) — one id — and
    # the result tells them apart: the loose one belongs to "annex".
    index = IndexBuilder().build(
        parse_xml(
            "<shops>"
            "<store><annex><note>fragile</note>"
            "<store><note>Fragile</note></store><store><note>heavy</note></store>"
            "</annex></store>"
            "<store><annex><note>plain</note></annex></store>"
            "</shops>"
        ).tree
    )
    analyzer = index.analyzer
    first_annex = results_at(index, "annex")[0]
    loose = first_annex.root_node.find_child("note")
    assert not analyzer.is_entity(first_annex.root_node)
    assert analyzer.owning_entity(loose).pre < first_annex.root_node.pre
    table = analyzer.feature_table
    assert len({table.ids[node.pre] for node in index.tree.find_by_tag("note")[:2]}) == 1
    statistics = assert_snippet_matches_reference(analyzer, first_annex).statistics
    assert statistics.instances_of(Feature("annex", "note", "fragile")) == [loose.pre]
    assert statistics.value_count(Feature("store", "note", "fragile")) == 1
    assert statistics.display_value(Feature("store", "note", "fragile")) == "Fragile"
    assert statistics.value_count(Feature("store", "note", "heavy")) == 1
    for result in results_at(index, "store") + results_at(index, "annex"):
        assert_snippet_matches_reference(analyzer, result)


# ---------------------------------------------------------------------- #
# a root the tables do not hold
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", ["retail-wide", "movies"])
def test_a_root_of_a_foreign_tree_is_walked(shape):
    local = IndexBuilder().build(SHAPES[shape]())
    foreign = IndexBuilder().build(clone_tree(SHAPES[shape](), name="foreign"))
    victim = next(node for node in foreign.tree.iter_nodes() if node.has_text_value)
    victim.text = "somewhere else"
    analyzer = local.analyzer
    engine = SearchEngine(foreign)
    compared = 0
    for text in query_pool(foreign)[:8]:
        for result in engine.search(text).results[:3]:
            assert not analyzer.covers(result.root_node)
            assert_snippet_matches_reference(analyzer, result, size_bounds=(8,))
            compared += 1
    assert compared > 8
    assert analyzer._features is None  # the walk never needed the local table
