"""Shared fixtures for the eXtract test suite.

Expensive artefacts (the Figure 1 document and its index, the generated
retail/movies corpora) are built once per session; tests never mutate them.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datasets.movies import MoviesConfig, generate_movies_document
from repro.datasets.paper_example import figure1_document, figure1_query
from repro.datasets.retail import RetailConfig, figure5_document, generate_retail_document
from repro.eval.figures import brook_brothers_result
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.generator import SnippetGenerator
from repro.xmltree.builder import tree_from_dict


# ``pytest --hypothesis-profile=fuzz``: the larger run CI gives the property
# tests that leave their example count to the profile.
settings.register_profile("fuzz", max_examples=600)


# ---------------------------------------------------------------------- #
# small hand-built documents
# ---------------------------------------------------------------------- #
@pytest.fixture()
def small_retailer_tree():
    """A small retailer document used across unit tests."""
    return tree_from_dict(
        "retailer",
        {
            "name": "Brook Brothers",
            "product": "apparel",
            "store": [
                {
                    "name": "Galleria",
                    "state": "Texas",
                    "city": "Houston",
                    "merchandises": {
                        "clothes": [
                            {"category": "suit", "fitting": "man", "situation": "casual"},
                            {"category": "outwear", "fitting": "woman", "situation": "casual"},
                        ]
                    },
                },
                {
                    "name": "West Village",
                    "state": "Texas",
                    "city": "Austin",
                    "merchandises": {
                        "clothes": [
                            {"category": "outwear", "fitting": "man", "situation": "formal"},
                        ]
                    },
                },
            ],
        },
        name="small-retailer",
    )


@pytest.fixture()
def small_index(small_retailer_tree):
    """Index of the small retailer document."""
    return IndexBuilder().build(small_retailer_tree)


# ---------------------------------------------------------------------- #
# session-scoped heavy artefacts
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def figure1_tree():
    return figure1_document()


@pytest.fixture(scope="session")
def figure1_idx(figure1_tree):
    return IndexBuilder().build(figure1_tree)


@pytest.fixture(scope="session")
def figure1_result(figure1_idx):
    """The Brook Brothers query result of the running example."""
    return brook_brothers_result(figure1_idx)


@pytest.fixture(scope="session")
def figure1_query_text():
    return figure1_query()


@pytest.fixture(scope="session")
def figure5_idx():
    return IndexBuilder().build(figure5_document())


@pytest.fixture(scope="session")
def retail_idx():
    config = RetailConfig(retailers=4, stores_per_retailer=4, clothes_per_store=4, seed=3)
    return IndexBuilder().build(generate_retail_document(config, name="retail-fixture"))


@pytest.fixture(scope="session")
def movies_idx():
    return IndexBuilder().build(generate_movies_document(MoviesConfig(movies=20, seed=5)))


@pytest.fixture(scope="session")
def retail_results(retail_idx):
    """Results of a fixed query over the retail fixture."""
    return SearchEngine(retail_idx).search("retailer apparel")


@pytest.fixture(scope="session")
def retail_generator(retail_idx):
    return SnippetGenerator(retail_idx.analyzer)
