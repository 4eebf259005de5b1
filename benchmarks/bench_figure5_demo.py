"""F5 — Figure 5: the demo walk-through ("store texas", size bound 6).

Measures the complete demo interaction — search plus snippet generation for
every result — and asserts the narrative of the screenshot: the Levis store
shows jeans/man, the ESprit store shows outwear/woman, both within bound.
"""

from __future__ import annotations

from repro.datasets.retail import figure5_document
from repro.eval.figures import run_figure5
from repro.system import ExtractSystem


def test_f5_end_to_end_demo_speed(benchmark):
    system = ExtractSystem.from_tree(figure5_document())

    def run_demo():
        # Cache disabled: this benchmark measures the full search + snippet
        # pipeline, not the serving cache (the e2e warm_read workload covers that).
        system.invalidate_cache()
        return system.run_query("store texas", size_bound=6, use_cache=False)

    outcome = benchmark(run_demo)
    assert len(outcome) == 2


def test_f5_narrative_holds():
    table = run_figure5()
    by_store = {row["store"]: row for row in table.rows}
    assert set(by_store) == {"Levis", "ESprit"}
    for row in by_store.values():
        assert row["within_bound"] == 1
        assert row["shows_store_name"] == 1
        assert row["shows_dominant_category"] == 1
