"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one experiment of DESIGN.md / EXPERIMENTS.md.
The measured quantity is the wall-clock time of the experiment's core
operation (pytest-benchmark), and each benchmark *also* asserts the
qualitative shape the paper reports, so a regression in either speed or
behaviour shows up here.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.datasets.paper_example import figure1_document
from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.eval.figures import brook_brothers_result
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.generator import SnippetGenerator


@pytest.fixture(scope="session")
def figure1_index():
    return IndexBuilder().build(figure1_document())


@pytest.fixture(scope="session")
def figure1_result(figure1_index):
    return brook_brothers_result(figure1_index)


@pytest.fixture(scope="session")
def retail_index():
    config = RetailConfig(retailers=10, stores_per_retailer=5, clothes_per_store=6, seed=21)
    return IndexBuilder().build(generate_retail_document(config, name="retail-bench"))


@pytest.fixture(scope="session")
def retail_result_set(retail_index):
    return SearchEngine(retail_index).search("retailer apparel")


@pytest.fixture(scope="session")
def retail_snippet_generator(retail_index):
    # Snippet cache disabled: the E1/E2 benchmarks re-invoke generate_all
    # with identical arguments, and a warm cache would make them measure
    # LRU lookups instead of snippet generation (the e2e warm_read
    # workload covers the cache itself).
    return SnippetGenerator(retail_index.analyzer, cache_size=0)

