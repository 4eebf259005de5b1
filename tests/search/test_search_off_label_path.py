"""A search computes with ``pre`` ids: no Dewey label is touched.

Posting lists, SLCA / ELCA, result construction and ranking name nodes by
their position in document order; the Dewey label is a display name the
wire derives when it prints a result.  So over the five ``cold_browse``
document shapes a cold :meth:`SearchEngine.search` may not compare, hash
or construct a single label, nor turn one back into a node — and neither
may decoding a posting list from a v4 snapshot, nor deciding which cache
entries survive a text-only update.  Counting wrappers, not timings; at
the parent of this change a search made about 6,300 label comparisons.

Snippet generation names nodes by ``pre`` too, and a tree stores no label,
so a served corpus holds none: an add, a cold page 1, a text-only
``update_document`` and another page 1 construct no ``Dewey`` and leave
none behind.
"""

from __future__ import annotations

import gc

import pytest

from repro import corpus as corpus_module
from repro.corpus import Corpus
from repro.eval.workload import WorkloadGenerator
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, save_index
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.xmltree.dewey import Dewey
from repro.xmltree.diff import clone_tree
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import XMLTree
from tests.property.test_property_node_tables import SHAPES
from tests.search.reference_lca import reference_search

COUNTED = {
    Dewey: ("__lt__", "__eq__", "__hash__", "__init__", "_trusted", "common_ancestor"),
    XMLTree: ("node", "find_node"),
}


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of every route from the search path to a label."""
    counts: dict[str, int] = {}

    def counting(owner, name):
        raw = owner.__dict__[name]
        function = getattr(raw, "__func__", raw)
        key = f"{owner.__name__}.{name}"
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        # keep what kind of attribute it was (classmethod / staticmethod)
        return type(raw)(counted) if raw is not function else counted

    for owner, names in COUNTED.items():
        for name in names:
            monkeypatch.setattr(owner, name, counting(owner, name))
    return counts


def query_pool(index) -> list[str]:
    """The benchmark's per-document pool: 14 two- and 10 three-keyword
    queries from the seeded workload generator."""
    generator = WorkloadGenerator(index, seed=7)
    return (
        generator.generate(14, keywords_per_query=2).texts()
        + generator.generate(10, keywords_per_query=3).texts()
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_cold_search_touches_no_label(shape, calls):
    tree = SHAPES[shape]()
    index = IndexBuilder().build(tree)
    pool = query_pool(index)
    engine = SearchEngine(index)
    for name in calls:
        calls[name] = 0  # building the document and its pool is not under test

    ranked = [engine.search(text) for text in pool]

    assert sum(len(results) for results in ranked) > len(pool)
    assert calls == dict.fromkeys(calls, 0)
    # ... and the label is still there to print, the one the parent printed
    for text, results in zip(pool, ranked):
        expected = reference_search(tree, index.analyzer, KeywordQuery.parse(text).keywords)
        assert [str(result.root) for result in results] == [str(result.root) for result in expected]


def test_a_lazy_v4_index_decodes_posting_lists_without_labels(tmp_path, calls):
    built = IndexBuilder().build(SHAPES["retail-wide"]())
    save_index(built, tmp_path)
    loaded = load_index(tmp_path, lazy=True)
    pending = loaded.inverted.pending_terms
    for name in calls:
        calls[name] = 0

    texas = loaded.keyword_matches("texas")
    results = SearchEngine(loaded).search("store texas")

    assert loaded.inverted.pending_terms < pending
    assert texas == built.keyword_matches("texas") and len(texas) > 0
    assert len(results) > 0
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_carrying_caches_over_a_text_only_update_touches_no_label(shape, calls, monkeypatch):
    tree = SHAPES[shape]()
    corpus = Corpus()
    corpus.add_tree(shape, tree)
    system = corpus.system(shape)
    for text in query_pool(system.index)[:8]:
        system.run_query(text, size_bound=8).snippets.page(1, 3)
    edited = clone_tree(tree)
    victim = next(node for node in edited.iter_nodes() if node.has_text_value)
    victim.text = victim.text + " edited"

    carry = corpus_module._carry_serving_state
    seen: dict[str, int] = {}

    def counted_carry(old_entry, new_entry, update):
        for name in calls:
            calls[name] = 0
        outcome = carry(old_entry, new_entry, update)
        seen.update(calls)
        return outcome

    monkeypatch.setattr(corpus_module, "_carry_serving_state", counted_carry)
    report = corpus.update_document(shape, edited)

    assert report.incremental
    assert report.cache_entries_kept + report.cache_entries_invalidated > 0
    assert seen == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_served_corpus_builds_and_holds_no_label(shape, calls):
    def live_labels() -> set[int]:
        gc.collect()
        return {id(obj) for obj in gc.get_objects() if type(obj) is Dewey}

    probe = Dewey((0,))
    before = live_labels()
    assert id(probe) in before  # the probe sees a label that is held
    for name in calls:
        calls[name] = 0
    tree = SHAPES[shape]()
    corpus = Corpus()
    corpus.add_tree(shape, tree)
    pool = query_pool(corpus.system(shape).index)

    def browse(system) -> int:
        return sum(
            len(system.run_query(text, size_bound=14).snippets.page(1, 10)) for text in pool
        )

    assert browse(corpus.system(shape)) > len(pool)
    assert calls == dict.fromkeys(calls, 0)

    # the edited version arrives the way an update request brings it: parsed
    edited = parse_xml(to_xml_string(tree)).tree
    victim = next(node for node in edited.nodes_by_pre if node.has_text_value)
    victim.text = victim.text + " edited"
    report = corpus.update_document(shape, edited)

    assert report.incremental
    assert browse(corpus.system(shape)) > len(pool)
    assert corpus.system(shape).index.tree is edited
    assert calls == dict.fromkeys(calls, 0)
    assert live_labels() <= before
    # ... and whoever does name a node by label still gets it
    assert edited.node(victim.dewey) is victim
    assert [str(edit.label) for edit in report.text_edits] == [str(victim.dewey)]


def test_the_counters_see_the_label_routes(calls):
    """Sanity check on the fixture: label work does trip the counters."""
    tree = SHAPES["movies"]()
    label = tree.nodes_by_pre[3].dewey
    for name in calls:
        calls[name] = 0

    assert tree.node(label) is tree.find_node(label) and label in {label}
    assert sorted([label, Dewey.root()])[0] == Dewey.root()
    assert Dewey.common_ancestor(label, label.parent()) == Dewey.parse(str(label.parent()))

    assert all(count > 0 for count in calls.values()), calls
