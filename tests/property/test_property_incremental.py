"""Property test: incremental corpus state is byte-identical to a rebuild.

For randomized edit sequences (add / update / remove, with text-only and
structural edits mixed in) applied through the incremental lifecycle —
with queries interleaved so caches are populated, carried over and
selectively invalidated along the way — the corpus must serve
``SearchResponse``/``BatchResponse`` wire forms byte-identical to a corpus
registered from scratch with the final document set (ISSUE 3 acceptance
criterion).

Snippets are generated a page at a time, so the interleaved queries also
leave outcomes *half generated*: page 1 is requested before an edit, the
later pages only after it — from an outcome the update carried over, or
from a fresh evaluation if the edit killed it.  Either way every page
must be the rebuild's.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BatchRequest, SearchRequest, SnippetService
from repro.corpus import Corpus
from repro.xmltree.diff import clone_tree
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

TAGS = ("store", "item", "name", "city", "category", "info")
VALUES = ("texas", "houston", "austin", "suit", "outwear", "alpha", "beta")
QUERIES = ("store texas", "city houston", "item suit", "alpha", "name beta")
DOC_NAMES = ("doc-a", "doc-b", "doc-c")


@st.composite
def small_trees(draw):
    """A small random document over the shared vocabulary."""

    def build(depth: int) -> XMLNode:
        node = XMLNode(draw(st.sampled_from(TAGS)))
        if depth >= 3 or draw(st.booleans()):
            node.text = draw(st.sampled_from(VALUES))
            return node
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            node.append_child(build(depth + 1))
        return node

    root = XMLNode("root")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        root.append_child(build(1))
    return XMLTree(root, name="property-doc")


@st.composite
def text_edit(draw, tree: XMLTree):
    """A text-only edited copy of ``tree`` (1-3 value changes)."""
    copy = clone_tree(tree)
    candidates = [node for node in copy.iter_nodes() if node.has_text_value]
    if not candidates:
        return copy
    victims = draw(
        st.lists(
            st.sampled_from(candidates),
            min_size=1,
            max_size=min(3, len(candidates)),
            unique_by=id,
        )
    )
    for node in victims:
        # "" occasionally: blanking a value flips has_text_value, which
        # must route through the structural-rebuild fallback.
        node.text = draw(st.sampled_from(VALUES + ("",)))
    return copy


@st.composite
def edit_sequences(draw):
    """Initial documents plus a sequence of lifecycle operations.

    Each operation is ("add"|"update-text"|"update-structural"|"remove",
    name, tree-or-None); updates on unregistered names become adds, removes
    of unregistered names are skipped at application time.
    """
    initial = {
        name: draw(small_trees())
        for name in draw(
            st.lists(st.sampled_from(DOC_NAMES), min_size=1, max_size=3, unique=True)
        )
    }
    operations = []
    registered = dict(initial)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        name = draw(st.sampled_from(DOC_NAMES))
        if name in registered and draw(st.integers(min_value=0, max_value=9)) < 2:
            operations.append(("remove", name, None))
            del registered[name]
            continue
        if name in registered and draw(st.booleans()):
            edited = draw(text_edit(registered[name]))
            operations.append(("update", name, edited))
            registered[name] = edited
        else:
            tree = draw(small_trees())  # structural replace or brand-new add
            operations.append(("upsert", name, tree))
            registered[name] = tree
    return initial, operations, registered


def wire_search(service: SnippetService, document: str, query: str) -> str:
    response = service.run(
        SearchRequest(query=query, document=document, size_bound=6, page_size=2)
    )
    return json.dumps(response.to_dict(), sort_keys=True)


def wire_pages(service: SnippetService, document: str, query: str) -> list[str]:
    """Every page of a query, one result a page, walked by its tokens."""
    request = SearchRequest(query=query, document=document, size_bound=6, page_size=1)
    pages = []
    while True:
        response = service.run(request)
        pages.append(json.dumps(response.to_dict(), sort_keys=True))
        if response.next_page is None:
            return pages
        request = request.with_page(response.next_page)


def wire_batch(service: SnippetService) -> str:
    response = service.run_batch(BatchRequest(queries=QUERIES[:3], size_bound=6))
    return json.dumps(response.to_dict(), sort_keys=True)


@settings(max_examples=25, deadline=None)
@given(edit_sequences())
def test_incremental_lifecycle_matches_from_scratch_rebuild(sequence):
    initial, operations, final = sequence

    corpus = Corpus()
    for name, tree in initial.items():
        corpus.add_tree(name, clone_tree(tree, name=name))
    service = SnippetService(corpus)

    def touch_caches(step: int) -> None:
        # Populate caches between operations so the carried-over entries
        # (not just cold evaluations) are what the final comparison serves.
        # One query asks for everything; the other two for a single
        # result, page 1 and page 2 turn and turn about — so their cached
        # outcomes (the key holds no page) go half generated through the
        # edits, one slot at a time, and are carried over like that.
        for name in corpus.names():
            service.run(SearchRequest(query=QUERIES[1], document=name, size_bound=6))
            for offset, query in enumerate((QUERIES[0], QUERIES[2])):
                service.run(SearchRequest(
                    query=query, document=name, size_bound=6,
                    page_size=1, page=1 + (step + offset) % 2,
                ))

    touch_caches(0)
    for step, (kind, name, tree) in enumerate(operations, start=1):
        if kind == "remove":
            if name in corpus:
                corpus.remove_document(name)
        elif kind == "update":
            corpus.update_document(name, clone_tree(tree, name=name))
        else:
            corpus.apply_update(name, clone_tree(tree, name=name))
        touch_caches(step)

    rebuilt = Corpus()
    for name, tree in final.items():
        rebuilt.add_tree(name, clone_tree(tree, name=name))
    reference = SnippetService(rebuilt)

    assert sorted(corpus.names()) == sorted(rebuilt.names())
    for name in rebuilt.names():
        for query in QUERIES:
            assert wire_search(service, name, query) == wire_search(
                reference, name, query
            ), (name, query)
            # the later pages, asked for only now that the edits are done
            assert wire_pages(service, name, query) == wire_pages(
                reference, name, query
            ), (name, query)
    if len(rebuilt) > 0:
        assert wire_batch(service) == wire_batch(reference)
