"""Tests for snippet quality metrics."""

from __future__ import annotations

import pytest

from repro.eval.metrics import (
    distinguishability,
    evaluate_snippet,
    mean,
    text_snippet_contains,
)
from repro.search.engine import SearchEngine
from repro.snippet.baselines import TextWindowSnippetGenerator
from repro.snippet.distinct import snippet_signature
from repro.snippet.generator import SnippetGenerator


@pytest.fixture()
def figure5_snippets(figure5_idx):
    results = SearchEngine(figure5_idx).search("store texas")
    generator = SnippetGenerator(figure5_idx.analyzer)
    return [generator.generate(result, size_bound=6) for result in results]


class TestEvaluateSnippet:
    def test_metrics_in_unit_range(self, figure5_snippets):
        for generated in figure5_snippets:
            quality = evaluate_snippet(generated)
            assert 0.0 <= quality.ilist_coverage <= 1.0
            assert 0.0 <= quality.keyword_coverage <= 1.0
            assert 0.0 <= quality.entity_name_coverage <= 1.0
            assert 0.0 <= quality.dominant_feature_coverage <= 1.0
            assert 0.0 <= quality.dominance_mass_coverage <= 1.0
            assert quality.within_bound

    def test_key_detected(self, figure5_snippets):
        assert all(evaluate_snippet(generated).has_result_key for generated in figure5_snippets)

    def test_full_budget_gives_full_coverage(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generated = SnippetGenerator(figure5_idx.analyzer).generate(results[0], size_bound=1000)
        quality = evaluate_snippet(generated)
        assert quality.ilist_coverage == pytest.approx(1.0)
        assert quality.dominance_mass_coverage == pytest.approx(1.0)

    def test_as_dict_round_trip(self, figure5_snippets):
        quality = evaluate_snippet(figure5_snippets[0])
        data = quality.as_dict()
        assert data["ilist_coverage"] == quality.ilist_coverage
        assert data["has_result_key"] in (0.0, 1.0)

    def test_tiny_bound_reduces_coverage(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        small = evaluate_snippet(generator.generate(results[0], size_bound=2))
        large = evaluate_snippet(generator.generate(results[0], size_bound=20))
        assert small.ilist_coverage <= large.ilist_coverage


class TestSignaturesAndDistinguishability:
    def test_signature_contains_tag_value_pairs(self, figure5_snippets):
        signature = snippet_signature(figure5_snippets[0])
        assert any(part.startswith("name=") for part in signature)

    def test_different_results_distinguishable(self, figure5_snippets):
        assert distinguishability(figure5_snippets) == pytest.approx(1.0)

    def test_single_snippet_trivially_distinguishable(self, figure5_snippets):
        assert distinguishability(figure5_snippets[:1]) == 1.0

    def test_identical_snippets_not_distinguishable(self, figure5_snippets):
        assert distinguishability([figure5_snippets[0], figure5_snippets[0]]) == 0.0


class TestTextHelpers:
    def test_text_snippet_contains(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        snippet = TextWindowSnippetGenerator().generate(results[0], 10)
        assert text_snippet_contains(snippet, "texas") or text_snippet_contains(snippet, "Levis")
        assert not text_snippet_contains(snippet, "antarctica")

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
