#!/usr/bin/env python3
"""Manage several datasets, query them all, and export drawings / DTDs.

Run with::

    python examples/corpus_and_export.py [output_directory]

Shows the parts of the reproduction that go beyond a single query:

* the :class:`repro.Corpus` registry (the demo web site let users pick one
  of several XML data sets before searching),
* querying every registered dataset at once,
* result-set-aware *distinct* snippets on an ambiguous catalogue,
* exporting a query result and its snippet as Graphviz DOT (the style of
  the paper's Figures 1 and 2) and the inferred schema as a DTD.
"""

from __future__ import annotations

import os
import sys

from repro import BatchRequest, Corpus, DistinctSnippetGenerator, SnippetService
from repro.eval.ablation import _ambiguous_store_catalogue
from repro.search.engine import SearchEngine
from repro.snippet.render import render_snippet_text
from repro.xmltree.export import export_doctype, to_dot
from repro.xmltree.schema import infer_schema


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "export_output"
    os.makedirs(output_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    # 1. a corpus of datasets, queried in one call
    # ------------------------------------------------------------------ #
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("movies")
    corpus.add_builtin("bibliography")

    print("=== registered datasets ===")
    for row in corpus.summary():
        print(f"  {row['name']:<14s} {row['nodes']:>6} nodes   entities: {row['entities']}")
    print()

    print('=== query "man" across every dataset ===')
    batch = BatchRequest(queries=("man",), size_bound=6, limit=2)
    for response in SnippetService(corpus).run_batch(batch).entries[0].responses:
        print(f"  {response.document}: {len(response.results)} results shown")
        for payload in response.results:
            print(f"    {payload.text.splitlines()[0]}")
    print()

    # ------------------------------------------------------------------ #
    # 2. distinct snippets on an ambiguous catalogue
    # ------------------------------------------------------------------ #
    print("=== distinct snippets on near-identical results ===")
    ambiguous = _ambiguous_store_catalogue(stores=4, seed=7)
    results = SearchEngine(ambiguous).search("store texas jeans")
    distinct = DistinctSnippetGenerator(ambiguous.analyzer).generate_all(results, size_bound=6)
    for generated in distinct:
        print(render_snippet_text(generated))
    print()

    # ------------------------------------------------------------------ #
    # 3. exports: DOT drawings and an inferred DTD
    # ------------------------------------------------------------------ #
    stores_system = corpus.system("stores")
    outcome = stores_system.run_query("store texas", size_bound=6)
    top = outcome.snippets[0]

    result_dot = os.path.join(output_dir, "result.dot")
    snippet_dot = os.path.join(output_dir, "snippet.dot")
    with open(result_dot, "w", encoding="utf-8") as handle:
        handle.write(to_dot(top.result.to_tree(), graph_name="query_result"))
    with open(snippet_dot, "w", encoding="utf-8") as handle:
        handle.write(
            to_dot(
                stores_system.index.tree.node(top.result.root),
                graph_name="snippet",
                highlight=top.snippet.node_labels,
            )
        )

    dtd_path = os.path.join(output_dir, "stores.dtd")
    schema = infer_schema(stores_system.index.tree)
    with open(dtd_path, "w", encoding="utf-8") as handle:
        handle.write(export_doctype(schema, stores_system.index.tree.root.tag))

    print(f"wrote {result_dot}, {snippet_dot} (render with: dot -Tpng {snippet_dot} -o snippet.png)")
    print(f"wrote {dtd_path} (DOCTYPE inferred from the data)")


if __name__ == "__main__":
    main()
