#!/usr/bin/env python3
"""The Figure 5 demo scenario: browse store search results as a web page.

Run with::

    python examples/store_search_demo.py [output.html]

Reproduces the demo walk-through of §4: the query "store texas" with a
snippet size upper bound of 6 edges over a store catalogue.  The snippets
are printed to the terminal and written to a standalone HTML page (the
stand-in for the original PHP web UI), with each snippet linking to the
full query result it summarises.
"""

from __future__ import annotations

import sys

from repro import ExtractSystem
from repro.datasets.retail import RetailConfig, figure5_document, generate_retail_document
from repro.snippet.render import write_result_page


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "store_search_results.html"

    # The curated Figure 5 document (Levis / ESprit / a non-Texas store) ...
    demo_system = ExtractSystem.from_tree(figure5_document())
    demo_outcome = demo_system.run_query("store texas", size_bound=6)

    print("=== Figure 5 walk-through (curated document) ===")
    print(demo_outcome.render_text())
    print()

    # ... and a larger generated catalogue to show the same pipeline at scale.
    catalogue = generate_retail_document(
        RetailConfig(retailers=8, stores_per_retailer=5, clothes_per_store=6, seed=5),
        name="retail-demo",
    )
    system = ExtractSystem.from_tree(catalogue)
    outcome = system.run_query("store texas", size_bound=6)

    print(f"=== generated catalogue ({catalogue.size_nodes} nodes) ===")
    print(f"query 'store texas' returned {len(outcome)} results")
    for generated in outcome.snippets[:5]:
        covered = ", ".join(generated.snippet.covered_texts)
        print(f"  result #{generated.result.result_id}: snippet shows [{covered}]")
    print()

    page = write_result_page(outcome.snippets, output_path)
    print(f"wrote HTML result page with {len(outcome)} snippets to {page}")
    print("per-phase timings (seconds):")
    print(outcome.timings.format_table())


if __name__ == "__main__":
    main()
