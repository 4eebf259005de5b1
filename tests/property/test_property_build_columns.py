"""The index build over the tag-path column equals the whole-tree build.

Schema inference, classification, key mining, the analyzer's per-node
tables, the structure index and the inverted index all read
``XMLTree.paths`` and memoised terms and values; the frozen oracle
(``tests/classify/reference_analyzer.py``) recomputes each from every
node's own tag path, one tree scan per entity type and per-node
tokenisation.  They must agree exactly — dict order, every ``SchemaNode``
field, the keys, the tables, the per-path lists and the posting lists with
their term order — on random trees, with and without a DTD that declares
repeatable children and ID attributes, and on every dataset generator.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.analyzer import DataAnalyzer
from repro.datasets import (
    AuctionConfig,
    BibliographyConfig,
    MoviesConfig,
    RetailConfig,
    figure1_document,
    figure5_document,
    generate_auction_document,
    generate_bibliography_document,
    generate_movies_document,
    generate_retail_document,
)
from repro.index.builder import IndexBuilder
from repro.index.storage import load_index, save_index
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.dtd import parse_dtd
from tests.classify.reference_analyzer import reference_analysis
from tests.property.strategies import TAGS, VALUES, xml_trees

#: values that normalise to something else, or to nothing at all
ODD_VALUES = ("  Houston  ", "TEXAS", "!!", "alpha-beta", "")


@st.composite
def documents(draw):
    """A random tree, some inner nodes carrying text of their own and some
    values that only normalisation tells apart."""
    tree = draw(xml_trees())
    for node in tree.nodes_by_pre:
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            node.text = draw(st.sampled_from(VALUES + ODD_VALUES))
    return tree


@st.composite
def dtds(draw):
    """A DTD over the strategy's tags: some parents declare content models
    with repeatable and single children, some elements an ID attribute."""
    declarations = []
    for parent in draw(st.lists(st.sampled_from(("root", *TAGS)), unique=True, max_size=5)):
        children = draw(st.lists(st.sampled_from(TAGS), unique=True, min_size=1, max_size=4))
        model = ", ".join(
            child + draw(st.sampled_from(("", "*", "+", "?"))) for child in children
        )
        declarations.append(f"<!ELEMENT {parent} ({model})>")
    for element in draw(st.lists(st.sampled_from(TAGS), unique=True, max_size=3)):
        attribute = draw(st.sampled_from(TAGS))
        declarations.append(f"<!ATTLIST {element} {attribute} ID #REQUIRED>")
    return parse_dtd("".join(declarations))


def assert_analysis_matches(analyzer: DataAnalyzer, expected: dict) -> None:
    schema, reference = analyzer.schema, expected["schema"]
    assert list(schema.nodes) == list(reference.nodes)
    for path, entry in reference.nodes.items():
        assert schema.nodes[path] == entry, path
        assert list(schema.nodes[path].value_counts.items()) == list(entry.value_counts.items())
    assert list(analyzer.categories.items()) == list(expected["categories"].items())
    assert list(analyzer.entity_types.items()) == list(expected["entity_types"].items())
    assert analyzer._node_codes == expected["codes"]
    assert analyzer._node_owners == expected["owners"]


def assert_build_matches(tree, dtd=None) -> None:
    expected = reference_analysis(tree, dtd)  # before the column exists
    assert tree._paths is None

    index = IndexBuilder(dtd=dtd).build(tree)

    assert_analysis_matches(index.analyzer, expected)
    structure = index.structure
    by_path = {path: list(structure.instances_of_path(path)) for path in structure.known_paths}
    assert by_path == expected["structure"]
    columns = tree.paths
    assert {path: list(ids) for path, ids in zip(columns.paths, columns.instances)} == by_path
    assert [columns.paths[path_id] for path_id in columns.ids] == [
        node.tag_path for node in tree.nodes_by_pre
    ]
    postings = index.inverted.postings_dict()
    assert [(term, list(ids)) for term, ids in postings.items()] == [
        (term, list(ids)) for term, ids in expected["postings"].items()
    ]
    # the one-call constructor is the same computation as the phased build
    assert_analysis_matches(DataAnalyzer(tree, dtd), expected)


@settings(deadline=None)
@given(documents())
def test_build_without_dtd_matches_the_whole_tree_build(tree):
    assert_build_matches(tree)


@settings(deadline=None)
@given(documents(), dtds())
def test_build_with_dtd_matches_the_whole_tree_build(tree, dtd):
    assert_build_matches(tree, dtd)


def test_an_entity_value_is_its_first_same_tag_child():
    """A DTD can call a child single that the data repeats: it stays an
    attribute, and an entity's value is its first such child's — the
    first instance per parent in the attribute's list."""
    tree = tree_from_dict(
        "db",
        {
            "store": [
                {"name": ["A", "X"]},
                {"name": ["B", "X"]},
                {"name": ["C"]},
            ]
        },
    )
    dtd = parse_dtd("<!ELEMENT db (store*)><!ELEMENT store (name)>")
    assert_build_matches(tree, dtd)
    key = DataAnalyzer(tree, dtd).entity_types[("db", "store")].key
    assert key is not None and key.attribute_tag == "name" and key.uniqueness == 1.0


#: every dataset generator, small; the retail one also under a DTD that
#: declares its stores repeatable and their names IDs
DATASETS = {
    "figure1": (figure1_document, None),
    "figure5": (figure5_document, None),
    "retail": (
        lambda: generate_retail_document(
            RetailConfig(retailers=3, stores_per_retailer=3, clothes_per_store=3, seed=11)
        ),
        None,
    ),
    "retail-dtd": (
        lambda: generate_retail_document(
            RetailConfig(retailers=2, stores_per_retailer=1, clothes_per_store=2, seed=5)
        ),
        "<!ELEMENT retailer (name, product, store*)><!ATTLIST store city ID #REQUIRED>",
    ),
    "movies": (lambda: generate_movies_document(MoviesConfig(movies=8, seed=23)), None),
    "auctions": (lambda: generate_auction_document(AuctionConfig(scale=2, seed=31)), None),
    "bibliography": (
        lambda: generate_bibliography_document(
            BibliographyConfig(conferences=2, papers_per_conference=4, seed=47)
        ),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_every_dataset_matches_the_whole_tree_build(name):
    factory, dtd_text = DATASETS[name]
    assert_build_matches(factory(), parse_dtd(dtd_text) if dtd_text else None)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_a_v4_load_binds_the_same_tables(name):
    factory, dtd_text = DATASETS[name]
    dtd = parse_dtd(dtd_text) if dtd_text else None
    expected = reference_analysis(factory(), dtd)
    with tempfile.TemporaryDirectory() as directory:
        save_index(IndexBuilder(dtd=dtd).build(factory()), directory)
        loaded = load_index(directory)
    analyzer = loaded.analyzer
    # the snapshot stores schema and categories sorted, so compare contents
    assert analyzer.schema.nodes == expected["schema"].nodes
    assert analyzer.categories == expected["categories"]
    assert analyzer.entity_types == expected["entity_types"]
    assert analyzer._node_codes == expected["codes"]
    assert analyzer._node_owners == expected["owners"]
    columns = loaded.tree.paths
    assert {path: list(ids) for path, ids in zip(columns.paths, columns.instances)} == {
        path: list(loaded.structure.instances_of_path(path))
        for path in loaded.structure.known_paths
    }
    # one owner: the loaded structure index wraps the column's own arrays
    assert all(
        loaded.structure.instances_of_path(path)._ids is ids
        for path, ids in zip(columns.paths, columns.instances)
    )
