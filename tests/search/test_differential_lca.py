"""Differential tests: the int search path vs. its two references.

The optimised implementations (Indexed Lookup for SLCA, candidate-sweep for
ELCA) are checked against the by-definition reference implementations of
:mod:`repro.search.lca` *and* against the frozen label-based search path
(:mod:`tests.search.reference_lca`) on randomised documents built with
``tree_from_dict`` (seeded, so failures reproduce).  The generator is
shaped to exercise the branches the ISSUE calls out: single-keyword
queries, empty posting lists and root-collapse (keywords that only
co-occur at the document root).  The whole pipeline — lookup, roots,
construction, ranking — is compared too: on an index as built, on the same
index lazily loaded from a v4 snapshot, and after text-only updates.
"""

from __future__ import annotations

import random

import pytest

from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.storage import load_index, save_index
from repro.search.elca import compute_elca
from repro.search.lca import brute_force_elca, brute_force_slca
from repro.search.slca import compute_slca
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.diff import clone_tree, diff_trees
from tests.search.differential import (
    ALGORITHMS,
    CONSTRUCTIONS,
    assert_search_matches_reference,
)
from tests.search.label_doc import LabelDoc
from tests.search.reference_lca import reference_elca, reference_postings, reference_slca

# "stores"/"store" and "items"/"item" are both tags: a keyword of either
# form is indexed under two forms and its lookup is a union of two lists
_TAGS = ["store", "stores", "item", "items", "branch", "region", "office", "dept"]
_WORDS = ["texas", "austin", "houston", "apparel", "jeans", "outwear", "drama", "comedy"]


def _random_content(rng: random.Random, depth: int) -> object:
    """Nested dict content for ``tree_from_dict``: random shape, random words."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_WORDS)
    children: dict[str, object] = {}
    for tag in rng.sample(_TAGS, rng.randint(1, 3)):
        if rng.random() < 0.5:
            children[tag] = [
                _random_content(rng, depth - 1) for _ in range(rng.randint(1, 3))
            ]
        else:
            children[tag] = _random_content(rng, depth - 1)
    return children or rng.choice(_WORDS)


def _random_index(seed: int):
    rng = random.Random(seed)
    # The top level is always a mapping with >= 2 branches so the document
    # (and hence the vocabulary) is never a degenerate single leaf.
    content = {
        tag: _random_content(rng, depth=3)
        for tag in rng.sample(_TAGS, rng.randint(2, 4))
    }
    tree = tree_from_dict("root", content, name=f"random-{seed}")
    return rng, IndexBuilder().build(tree)


def _labels(index, ids):
    nodes = index.tree.nodes_by_pre
    return [nodes[pre].dewey for pre in ids]


@pytest.mark.parametrize("seed", range(20))
def test_slca_matches_brute_force_on_random_documents(seed):
    rng, index = _random_index(seed)
    vocabulary = [term for term in index.inverted.vocabulary if term != "root"]
    for _ in range(10):
        keywords = rng.sample(vocabulary, rng.randint(1, min(3, len(vocabulary))))
        posting_lists = [index.keyword_matches(keyword) for keyword in keywords]
        roots = compute_slca(posting_lists)
        assert roots == brute_force_slca(posting_lists), (seed, keywords)
        assert _labels(index, roots) == reference_slca(
            [reference_postings(index.tree, keyword) for keyword in keywords]
        ), (seed, keywords)


@pytest.mark.parametrize("seed", range(20))
def test_elca_matches_brute_force_on_random_documents(seed):
    rng, index = _random_index(seed)
    vocabulary = [term for term in index.inverted.vocabulary if term != "root"]
    assert len(vocabulary) >= 2, "generator must yield a multi-term document"
    for _ in range(10):
        keywords = rng.sample(vocabulary, rng.randint(2, min(3, len(vocabulary))))
        posting_lists = [index.keyword_matches(keyword) for keyword in keywords]
        roots = compute_elca(posting_lists)
        assert roots == brute_force_elca(posting_lists), (seed, keywords)
        assert _labels(index, roots) == reference_elca(
            [reference_postings(index.tree, keyword) for keyword in keywords]
        ), (seed, keywords)


@pytest.mark.parametrize("seed", range(10))
def test_single_keyword_branch(seed):
    _, index = _random_index(seed)
    for term in list(index.inverted.vocabulary)[:5]:
        posting_lists = [index.keyword_matches(term)]
        assert compute_slca(posting_lists) == brute_force_slca(posting_lists)


@pytest.mark.parametrize("seed", range(10))
def test_empty_posting_branch(seed):
    _, index = _random_index(seed)
    present = index.keyword_matches(index.inverted.vocabulary[0])
    absent = index.keyword_matches("zzz-not-in-any-document")
    assert absent.is_empty
    assert compute_slca([present, absent]) == []
    assert compute_elca([present, absent]) == []
    assert brute_force_slca([present, absent]) == []
    assert brute_force_elca([present, absent]) == []


def test_root_collapse_branch():
    """Keywords that only co-occur at the document root: the SLCA set must
    collapse to the root, matching the brute-force reference."""
    tree = tree_from_dict(
        "db",
        {
            "left": {"name": "alpha"},
            "right": {"name": "omega"},
        },
    )
    index = IndexBuilder().build(tree)
    posting_lists = [index.keyword_matches("alpha"), index.keyword_matches("omega")]
    assert compute_slca(posting_lists) == brute_force_slca(posting_lists) == [0]
    assert compute_elca(posting_lists) == brute_force_elca(posting_lists) == [0]


def test_degenerate_shared_posting_lists():
    """Both keywords matching the same nodes (e.g. repeated query terms)."""
    doc = LabelDoc(["0.1", "2", "2.0"], ["0.1", "2", "2.0"])
    assert compute_slca(doc.lists) == brute_force_slca(doc.lists)
    assert compute_elca(doc.lists) == brute_force_elca(doc.lists)
    assert doc.labels(compute_slca(doc.lists)) == reference_slca(doc.label_lists)
    assert doc.labels(compute_elca(doc.lists)) == reference_elca(doc.label_lists)


# ---------------------------------------------------------------------- #
# the whole pipeline against the frozen label path
# ---------------------------------------------------------------------- #
def _queries(rng: random.Random, index) -> list[tuple[str, ...]]:
    """1–4 keyword queries over the document's vocabulary, two-form
    keywords (``stores`` where only ``store`` occurs, and the reverse)
    and an absent keyword included."""
    vocabulary = [term for term in index.inverted.vocabulary if term != "root"]
    queries = [
        tuple(rng.sample(vocabulary, min(count, len(vocabulary))))
        for count in (1, 2, 2, 3, 4)
    ]
    queries += [("stores", "texas"), ("store",), ("items", "item"), ("texas", "nowhere")]
    return queries


def _edited(rng: random.Random, tree):
    """A clone of ``tree`` with a few text values swapped for other words."""
    clone = clone_tree(tree)
    valued = [node for node in clone.iter_nodes() if node.text]
    for node in rng.sample(valued, min(3, len(valued))):
        node.text = rng.choice([word for word in _WORDS if word != node.text])
    return clone


@pytest.mark.parametrize("seed", range(12))
def test_pipeline_matches_the_label_oracle(seed, tmp_path):
    rng, built = _random_index(seed)
    save_index(built, tmp_path / "snapshot")
    lazy = load_index(tmp_path / "snapshot", lazy=True)
    assert lazy.inverted.pending_terms == lazy.inverted.vocabulary_size

    for index in (built, lazy):
        queries = _queries(rng, index)
        for round_ in range(3):
            for keywords in queries:
                for algorithm in ALGORITHMS:
                    for construction in CONSTRUCTIONS:
                        assert_search_matches_reference(
                            index, keywords, algorithm, construction
                        )
            # the next rounds search the index a text-only update produced
            edited = _edited(rng, index.tree)
            diff = diff_trees(index.tree, edited)
            if not diff.is_text_only:
                break
            index = apply_text_update(index, edited, diff).index
            assert index.tree.shape is built.tree.shape or index.tree.shape is lazy.tree.shape
