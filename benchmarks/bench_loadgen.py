"""Serving benchmark — the closed-loop load harness smoke profile.

Two runs every push gets (ISSUE 10 acceptance):

* the **smoke load profile** (seed 7, mixed search/batch/update traffic)
  against a real HTTP server: p50/p95/p99 latency, achieved throughput,
  error/shed rates and the serving-cache hit rate all measured;
* the **smoke ablation matrix** (baseline + caches-off + two admission
  limits — 4 configurations) against freshly spawned ``serve`` processes,
  each replaying the identical seeded plan, one table row per
  configuration.

The assertions are correctness floors, not perf walls: the harness must
deliver every planned request without errors, and the matrix must produce
a measurement for every configuration.
"""

from __future__ import annotations

from repro.api import SnippetService
from repro.api.http import HttpServer
from repro.corpus import Corpus
from repro.eval.loadgen import (
    SMOKE_PROFILE,
    LoadProfile,
    ablation_matrix,
    build_plan,
    run_ablation,
    run_load,
    smoke_flags,
)


def _fresh_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return corpus


def test_smoke_profile_records_full_report():
    corpus = _fresh_corpus()
    plan = build_plan(corpus, SMOKE_PROFILE)
    with HttpServer(SnippetService(corpus), port=0) as server:
        report = run_load(plan, port=server.port)

    assert report.requests_sent == SMOKE_PROFILE.requests
    assert report.errors == 0, [o.code for o in report.outcomes if not o.ok]
    assert all(value is not None for value in report.latency.values())
    assert report.throughput_rps > 0
    # the Zipf head repeats queries, so the caches must have been hit
    assert report.cache_hit_rate is not None and report.cache_hit_rate > 0


def test_smoke_ablation_matrix_measures_every_config():
    corpus = Corpus()
    corpus.add_builtin("retail")
    configs = ablation_matrix(smoke_flags())
    assert len(configs) >= 4  # the CI acceptance floor

    profile = LoadProfile(seed=7, requests=32, concurrency=3)
    outcomes, table = run_ablation(
        corpus, ["--dataset", "retail"], configs, profile
    )

    assert [outcome.config.name for outcome in outcomes] == [
        config.name for config in configs
    ]
    for outcome in outcomes:
        assert outcome.report.requests_sent == profile.requests
        assert outcome.report.latency["p50"] is not None
    assert len(table.rows) == len(configs)
