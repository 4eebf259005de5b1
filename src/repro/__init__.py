"""eXtract — a snippet generation system for XML keyword search.

A complete Python reproduction of *"eXtract: A Snippet Generation System
for XML Search"* (Huang, Liu, Chen — VLDB 2008 demonstration), including
the XML substrate, the keyword-search engine the demo runs on top of, the
snippet-generation pipeline that is the paper's contribution, baselines,
datasets and the evaluation harness.

Quick start::

    from repro import ExtractSystem
    from repro.datasets import figure5_document

    system = ExtractSystem.from_tree(figure5_document())
    outcome = system.run_query("store texas", size_bound=6)
    print(outcome.render_text())

The most useful entry points:

* :class:`ExtractSystem` — end-to-end: document → index → search → snippets,
* :class:`repro.api.SnippetService` — the typed serving surface: versioned
  JSON requests/responses, pagination (see :mod:`repro.api`),
* :class:`SnippetGenerator` — the paper's contribution in isolation
  (query + query result + size bound → snippet),
* :class:`SearchEngine` / :class:`IndexBuilder` — the search substrate,
* :mod:`repro.datasets` — synthetic documents, including the paper's
  running example,
* :mod:`repro.eval` — the experiment harness regenerating every
  figure/table documented in EXPERIMENTS.md.
"""

from repro.errors import (
    ClusterError,
    DatasetError,
    DeweyError,
    DTDParseError,
    EvaluationError,
    ExtractError,
    InvalidSizeBoundError,
    ProtocolError,
    QueryError,
    SchemaError,
    SearchError,
    SnippetError,
    StorageError,
    XMLParseError,
)
from repro.api import (
    BatchRequest,
    BatchResponse,
    ConcurrentExecutor,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    SnippetPayload,
    SnippetService,
)
from repro.cluster import ClusterService, HashPartitioner, ShardServer
from repro.corpus import Corpus, compact_corpus_dir
from repro.index.builder import DocumentIndex, IndexBuilder
from repro.index.storage import load_index, save_index
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult, ResultSet
from repro.snippet.distinct import DistinctSnippetGenerator
from repro.snippet.generator import DEFAULT_SIZE_BOUND, GeneratedSnippet, SnippetBatch, SnippetGenerator
from repro.snippet.ilist import IList, IListBuilder, IListItem, ItemKind
from repro.snippet.snippet_tree import Snippet
from repro.system import ExtractSystem, SearchOutcome
from repro.utils.cache import DEFAULT_CACHE_SIZE, CacheStats, LRUCache
from repro.xmltree.builder import TreeBuilder, tree_from_dict
from repro.xmltree.parser import parse_xml, parse_xml_file
from repro.xmltree.tree import XMLTree

__version__ = "1.0.0"

__all__ = [
    # façade
    "ExtractSystem",
    "SearchOutcome",
    "Corpus",
    # serving layer
    "SnippetService",
    "SearchRequest",
    "SearchResponse",
    "BatchRequest",
    "BatchResponse",
    "SnippetPayload",
    "ErrorResponse",
    "ConcurrentExecutor",
    # sharded serving
    "ClusterService",
    "ShardServer",
    "HashPartitioner",
    "compact_corpus_dir",
    "LRUCache",
    "CacheStats",
    "DEFAULT_CACHE_SIZE",
    "save_index",
    "load_index",
    # snippet pipeline
    "SnippetGenerator",
    "DistinctSnippetGenerator",
    "GeneratedSnippet",
    "SnippetBatch",
    "Snippet",
    "IList",
    "IListBuilder",
    "IListItem",
    "ItemKind",
    "DEFAULT_SIZE_BOUND",
    # search substrate
    "SearchEngine",
    "KeywordQuery",
    "QueryResult",
    "ResultSet",
    "IndexBuilder",
    "DocumentIndex",
    # XML substrate
    "XMLTree",
    "TreeBuilder",
    "tree_from_dict",
    "parse_xml",
    "parse_xml_file",
    # errors
    "ExtractError",
    "XMLParseError",
    "DTDParseError",
    "DeweyError",
    "SchemaError",
    "QueryError",
    "SearchError",
    "SnippetError",
    "InvalidSizeBoundError",
    "DatasetError",
    "StorageError",
    "ProtocolError",
    "ClusterError",
    "EvaluationError",
    "__version__",
]
