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

import importlib


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The PEP 562 ``__getattr__`` / ``__dir__`` pair of a package whose
    exports are imported on first use.

    ``exports`` maps each submodule to the names the package re-exports
    from it.  The first read of a name imports its submodule and caches
    the value in ``namespace`` (the package's globals), so every later
    read — and whoever rebinds module attributes by name — finds a plain
    global.  ``from package import name``, ``import *`` (through
    ``__all__``) and ``dir()`` see every export, and importing the package
    imports none of its submodules: a process loads the modules it uses.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.errors": (
        "ClusterError", "DatasetError", "DeweyError", "DTDParseError", "EvaluationError",
        "ExtractError", "InvalidSizeBoundError", "ProtocolError", "QueryError", "SchemaError",
        "SearchError", "SnippetError", "StorageError", "XMLParseError",
    ),
    "repro.api.executors": ("ConcurrentExecutor",),
    "repro.api.protocol": (
        "BatchRequest", "BatchResponse", "ErrorResponse", "SearchRequest", "SearchResponse",
        "SnippetPayload",
    ),
    "repro.api.service": ("SnippetService",),
    "repro.cluster.partition": ("HashPartitioner",),
    "repro.cluster.router": ("ClusterService",),
    "repro.cluster.shard": ("ShardServer",),
    "repro.corpus": ("Corpus", "compact_corpus_dir"),
    "repro.index.builder": ("DocumentIndex", "IndexBuilder"),
    "repro.index.storage": ("load_index", "save_index"),
    "repro.search.engine": ("SearchEngine",),
    "repro.search.query": ("KeywordQuery",),
    "repro.search.results": ("QueryResult", "ResultSet"),
    "repro.snippet.distinct": ("DistinctSnippetGenerator",),
    "repro.snippet.generator": (
        "DEFAULT_SIZE_BOUND", "GeneratedSnippet", "SnippetBatch", "SnippetGenerator",
    ),
    "repro.snippet.ilist": ("IList", "IListBuilder", "IListItem", "ItemKind"),
    "repro.snippet.snippet_tree": ("Snippet",),
    "repro.system": ("ExtractSystem", "SearchOutcome"),
    "repro.utils.cache": ("DEFAULT_CACHE_SIZE", "CacheStats", "LRUCache"),
    "repro.xmltree.builder": ("TreeBuilder", "tree_from_dict"),
    "repro.xmltree.parser": ("parse_xml", "parse_xml_file"),
    "repro.xmltree.tree": ("XMLTree",),
})

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
