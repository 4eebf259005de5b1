"""Tests for the experiment registry and the figure experiments.

The heavier sweep experiments (E1-E7, A1-A2) are exercised with reduced
parameters so the whole suite stays fast; their full-size versions are the
benchmark targets.
"""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.eval.experiments import EXPERIMENTS, list_experiments, run_experiment
from repro.eval.figures import (
    FIGURE2_EXPECTED_CONTENT,
    brook_brothers_result,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure5,
)


class TestRegistry:
    def test_all_design_md_experiments_registered(self):
        expected = {"F1", "F2", "F3", "F5", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "A1", "A2", "A3"}
        assert expected <= set(list_experiments())

    def test_specs_have_descriptions_and_runners(self):
        for spec in EXPERIMENTS.values():
            assert spec.description
            assert callable(spec.runner)

    def test_unknown_experiment_raises(self):
        with pytest.raises(EvaluationError):
            run_experiment("Z9")


class TestFigureExperiments:
    def test_f1_counts_match(self, figure1_idx):
        table = run_figure1(figure1_idx)
        assert len(table) == 21
        for row in table.rows:
            assert row["paper_count"] == row["measured_count"]

    def test_f2_all_content_present(self, figure1_idx):
        table = run_figure2(figure1_idx)
        assert len(table) == len(FIGURE2_EXPECTED_CONTENT)
        assert all(row["present_in_generated_snippet"] == 1 for row in table.rows)

    def test_f3_items_and_scores_match(self, figure1_idx):
        table = run_figure3(figure1_idx)
        assert len(table) == 12
        for row in table.rows:
            assert row["paper_item"] == row["measured_item"]
            if row["paper_score"] != "":
                assert abs(float(row["measured_score"]) - float(row["paper_score"])) <= 0.08

    def test_f5_walkthrough_holds(self):
        table = run_figure5()
        assert {row["store"] for row in table.rows} == {"Levis", "ESprit"}
        for row in table.rows:
            assert row["within_bound"] == 1
            assert row["shows_store_name"] == 1
            assert row["shows_dominant_category"] == 1

    def test_brook_brothers_result_helper_raises_on_wrong_document(self, movies_idx):
        with pytest.raises(EvaluationError):
            brook_brothers_result(movies_idx)


class TestSweepExperimentsSmall:
    def test_e1_rows_scale_with_results(self):
        from repro.eval.efficiency import run_time_vs_results

        table = run_time_vs_results(retailer_counts=(2, 4), stores_per_retailer=3, clothes_per_store=3)
        assert len(table) == 2
        results = table.column("results")
        assert results[1] > results[0]

    def test_e2_coverage_grows_with_bound(self):
        from repro.eval.efficiency import run_time_vs_bound

        table = run_time_vs_bound(bounds=(4, 12), retailers=4)
        covered = table.column("mean_items_covered")
        assert covered[1] >= covered[0]

    def test_e3_rows_scale_with_docsize(self):
        from repro.eval.efficiency import run_time_vs_docsize

        table = run_time_vs_docsize(scales=(1, 2))
        nodes = table.column("nodes")
        assert nodes[1] > nodes[0]

    def test_e4_greedy_close_to_optimal(self):
        from repro.eval.quality import run_greedy_vs_optimal

        table = run_greedy_vs_optimal(bounds=(4, 8), queries=("store texas",))
        for row in table.rows:
            assert row["greedy_items"] <= row["optimal_items"] + 1e-9
            assert row["greedy_over_optimal"] >= 0.8
            assert row["optimal_items"] >= row["random_items"]

    def test_e5_dominance_beats_raw_frequency(self):
        from repro.eval.quality import run_feature_quality

        table = run_feature_quality(seeds=(0, 1), top_k=3)
        assert all(row["dominance_hit"] == 1 for row in table.rows)
        assert sum(row["raw_frequency_hit"] for row in table.rows) < len(table.rows)

    def test_e6_extract_beats_text_window(self):
        from repro.eval.userstudy import run_user_study

        table = run_user_study(size_bound=8, queries_per_dataset=4, seed=3)
        accuracy = {row["method"]: row["accuracy"] for row in table.rows}
        assert accuracy["extract"] >= accuracy["text_window"]
        assert accuracy["extract"] >= accuracy["random"]

    def test_e7_semantics_agree_and_scale(self):
        from repro.eval.efficiency import run_search_engine_scaling

        table = run_search_engine_scaling(scales=(1, 2))
        assert table.column("nodes")[1] > table.column("nodes")[0]

    def test_a1_dominance_ranking_wins(self):
        from repro.eval.ablation import run_ablation_dominance

        table = run_ablation_dominance(size_bound=10, queries_per_dataset=3, seed=2)
        by_key = {(row["dataset"], row["ranking"]): row for row in table.rows}
        for dataset in ("retail", "movies"):
            assert (
                by_key[(dataset, "dominance_score")]["mean_dominance_mass_coverage"]
                >= by_key[(dataset, "raw_frequency")]["mean_dominance_mass_coverage"]
            )

    def test_a2_greedy_closest_wins(self):
        from repro.eval.ablation import run_ablation_selector

        table = run_ablation_selector(size_bound=10, queries_per_dataset=3, seed=2)
        by_key = {(row["dataset"], row["strategy"]): row for row in table.rows}
        for dataset in ("retail", "movies"):
            assert (
                by_key[(dataset, "greedy_closest")]["mean_items_covered"]
                >= by_key[(dataset, "random_instance")]["mean_items_covered"]
            )

    def test_a3_distinct_postprocessing_improves_distinguishability(self):
        from repro.eval.ablation import run_ablation_distinct

        table = run_ablation_distinct(bounds=(6, 8), stores=4)
        for row in table.rows:
            # strictly: the regenerated snippets are written into the batch
            # generate_all returned, so reading that batch must show them
            assert row["distinct_distinguishability"] > row["per_result_distinguishability"]
            assert row["max_edges"] <= row["size_bound"]
        assert table.rows[-1]["distinct_distinguishability"] >= 0.99

    def test_e5b_quality_by_dataset(self):
        from repro.eval.quality import run_snippet_quality_by_dataset

        table = run_snippet_quality_by_dataset(size_bound=10, queries_per_dataset=3, seed=4)
        assert len(table) == 2
        for row in table.rows:
            assert row["mean_ilist_coverage"] > 0.5
            assert row["key_in_snippet_rate"] > 0.5

    def test_e6b_distinguishability(self):
        from repro.eval.userstudy import run_distinguishability_study

        table = run_distinguishability_study(size_bound=8, seed=4, queries=3)
        values = {row["method"]: row["mean_distinguishability"] for row in table.rows}
        assert values["extract"] >= 0.8
