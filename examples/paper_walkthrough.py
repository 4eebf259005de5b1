#!/usr/bin/env python3
"""Walk through the paper's running example (Figures 1, 2 and 3).

Run with::

    python examples/paper_walkthrough.py

The script rebuilds the Figure 1 document, issues the query
"Texas, apparel, retailer", prints the value-occurrence statistics, the
IList (Figure 3) with its dominance scores and the generated snippet
(Figure 2), and checks them against the numbers printed in the paper.
"""

from __future__ import annotations

from repro import ExtractSystem
from repro.datasets.paper_example import (
    FIGURE1_EXPECTED_ILIST,
    FIGURE1_EXPECTED_SCORES,
    figure1_document,
    figure1_query,
)
from repro.eval.figures import run_figure1, run_figure2, run_figure3
from repro.snippet.render import render_snippet_text


def main() -> None:
    system = ExtractSystem.from_tree(figure1_document())
    print(f"document: {system.index.tree.size_nodes} nodes, "
          f"entities: {sorted(system.analyzer.entity_tags())}")
    print(f"query   : {figure1_query()!r}")
    print()

    outcome = system.run_query(figure1_query(), size_bound=14)
    print(f"{len(outcome)} query results")
    print()

    # Locate the Brook Brothers result (the one the paper discusses).
    for generated in outcome.snippets:
        keys = [item.text for item in generated.ilist.items if item.kind.value == "key"]
        if keys and keys[0] == "Brook Brothers":
            break
    else:  # pragma: no cover - the dataset guarantees the result exists
        raise SystemExit("Brook Brothers result not found")

    print("=== Figure 3: IList ===")
    measured = [text.lower() for text in generated.ilist.texts()]
    for position, (expected, got) in enumerate(zip(FIGURE1_EXPECTED_ILIST, measured), start=1):
        marker = "ok" if expected == got else "MISMATCH"
        score = FIGURE1_EXPECTED_SCORES.get(expected)
        score_text = f"  (paper DS {score})" if score else ""
        print(f"  {position:2d}. {got:<16s} {marker}{score_text}")
    print()

    print("=== Figure 2: snippet (size bound 14 edges) ===")
    print(render_snippet_text(generated))
    print()

    print("=== Paper-vs-measured tables (F1, F2, F3) ===")
    for table in (run_figure1(system.index), run_figure2(system.index), run_figure3(system.index)):
        print(table.format_text())
        print()


if __name__ == "__main__":
    main()
