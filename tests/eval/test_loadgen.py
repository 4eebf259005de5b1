"""The load harness: seeded determinism, the ablation matrix, measurement.

Three contracts from the PR acceptance list live here:

* **Seeded determinism** — the same profile over the same corpus plans
  byte-identical request sequences (payloads *and* offsets), twice, and
  across independently built corpora.
* **Ablation matrix** — baseline-plus-one-flip enumeration is exhaustive,
  deduplicated (duplicates are errors, not merges) and deterministic.
* **Measurement** — a smoke run against a real in-process
  :class:`HttpServer` fills every report field, the wire bytes under load
  stay identical to in-process ``handle_json``, and ``loadgen --report``
  writes its rows in a versioned envelope.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SnippetService
from repro.api.http import HttpServer
from repro.corpus import Corpus
from repro.errors import EvaluationError
from repro.eval import loadgen
from repro.eval.loadgen import (
    AblationFlag,
    FlagValue,
    LoadProfile,
    SMOKE_PROFILE,
    ablation_matrix,
    build_plan,
    default_flags,
    parse_mix,
    percentile,
    report_rows,
    run_load,
    smoke_flags,
    write_report_file,
)

def _fresh_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return corpus


# ---------------------------------------------------------------------- #
# layer 1: seeded determinism of the plan
# ---------------------------------------------------------------------- #
class TestPlanDeterminism:
    def test_same_seed_same_sequence(self):
        profile = LoadProfile(seed=7, requests=40)
        first = build_plan(_fresh_corpus(), profile)
        second = build_plan(_fresh_corpus(), profile)
        assert first.signature() == second.signature()
        assert first.sequence() == second.sequence()
        assert [p.offset for p in first.requests] == [
            p.offset for p in second.requests
        ]

    def test_different_seed_different_sequence(self):
        corpus = _fresh_corpus()
        assert (
            build_plan(corpus, LoadProfile(seed=7, requests=40)).signature()
            != build_plan(corpus, LoadProfile(seed=8, requests=40)).signature()
        )

    def test_smoke_profile_plans_a_mixed_stream(self):
        plan = build_plan(_fresh_corpus(), SMOKE_PROFILE)
        assert len(plan) == SMOKE_PROFILE.requests
        kinds = {planned.kind for planned in plan.requests}
        assert kinds == {"search", "batch", "update"}

    def test_pure_mix_plans_only_that_kind(self):
        profile = LoadProfile(
            seed=3, requests=20, search_weight=0.0, batch_weight=0.0,
            update_weight=1.0,
        )
        plan = build_plan(_fresh_corpus(), profile)
        assert {planned.kind for planned in plan.requests} == {"update"}

    def test_closed_arrivals_have_zero_offsets(self):
        plan = build_plan(_fresh_corpus(), LoadProfile(seed=1, requests=10))
        assert [planned.offset for planned in plan.requests] == [0.0] * 10

    def test_fixed_arrivals_pace_at_the_rate(self):
        profile = LoadProfile(seed=1, requests=5, arrival="fixed", rate_rps=10.0)
        plan = build_plan(_fresh_corpus(), profile)
        assert [planned.offset for planned in plan.requests] == [
            pytest.approx(index / 10.0) for index in range(5)
        ]

    def test_poisson_arrivals_are_monotone_and_seeded(self):
        profile = LoadProfile(seed=5, requests=20, arrival="poisson", rate_rps=50.0)
        offsets = [p.offset for p in build_plan(_fresh_corpus(), profile).requests]
        assert offsets == sorted(offsets)
        assert offsets[-1] > 0.0
        again = [p.offset for p in build_plan(_fresh_corpus(), profile).requests]
        assert offsets == again

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(EvaluationError):
            build_plan(Corpus(), LoadProfile(seed=1))

    @pytest.mark.parametrize(
        "profile",
        [
            LoadProfile(requests=0),
            LoadProfile(concurrency=0),
            LoadProfile(arrival="bursty"),
            LoadProfile(arrival="poisson"),  # open loop without a rate
            LoadProfile(arrival="fixed", rate_rps=0.0),
            LoadProfile(search_weight=-1.0),
            LoadProfile(search_weight=0.0, batch_weight=0.0, update_weight=0.0),
            LoadProfile(duration_seconds=0.0),
            LoadProfile(batch_size=0),
            LoadProfile(seed=True),
        ],
    )
    def test_invalid_profiles_rejected(self, profile):
        with pytest.raises(EvaluationError):
            profile.validate()

    def test_parse_mix(self):
        assert parse_mix("search=0.8,batch=0.15,update=0.05") == {
            "search": 0.8, "batch": 0.15, "update": 0.05,
        }
        assert parse_mix("search=1") == {"search": 1.0, "batch": 0.0, "update": 0.0}
        for bad in ("scan=1", "search", "search=x", "search=0,batch=0,update=0"):
            with pytest.raises(EvaluationError):
                parse_mix(bad)

    def test_percentile(self):
        assert percentile([], 50) is None
        assert percentile([0.42], 99) == 0.42
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0


# ---------------------------------------------------------------------- #
# layer 3: the matrix generator (no servers involved)
# ---------------------------------------------------------------------- #
class TestAblationMatrix:
    FLAGS = [
        AblationFlag(
            name="caches",
            baseline=FlagValue("on"),
            variants=(FlagValue("off", ("--cache-size", "0")),),
        ),
        AblationFlag(
            name="max-in-flight",
            baseline=FlagValue("unlimited"),
            variants=(
                FlagValue("2", ("--max-in-flight", "2")),
                FlagValue("8", ("--max-in-flight", "8")),
            ),
        ),
    ]

    def test_exhaustive_one_flip_each(self):
        matrix = ablation_matrix(self.FLAGS)
        assert [config.name for config in matrix] == [
            "baseline", "caches=off", "max-in-flight=2", "max-in-flight=8",
        ]
        # every variant of every flag appears exactly once, flipped alone
        assert matrix[1].values == (("caches", "off"), ("max-in-flight", "unlimited"))
        assert matrix[2].values == (("caches", "on"), ("max-in-flight", "2"))

    def test_argv_carries_only_the_flip(self):
        matrix = ablation_matrix(self.FLAGS)
        assert matrix[0].argv == ()  # baseline: every flag at default
        assert matrix[1].argv == ("--cache-size", "0")
        assert matrix[3].argv == ("--max-in-flight", "8")

    def test_deterministic(self):
        assert ablation_matrix(self.FLAGS) == ablation_matrix(self.FLAGS)

    def test_duplicate_flag_name_is_an_error(self):
        flags = [self.FLAGS[0], self.FLAGS[0]]
        with pytest.raises(EvaluationError):
            ablation_matrix(flags)

    def test_duplicate_variant_label_is_an_error(self):
        flag = AblationFlag(
            name="caches",
            baseline=FlagValue("on"),
            variants=(FlagValue("off"), FlagValue("off", ("--cache-size", "0"))),
        )
        with pytest.raises(EvaluationError):
            ablation_matrix([flag])

    def test_variant_shadowing_baseline_is_an_error(self):
        flag = AblationFlag(
            name="caches", baseline=FlagValue("on"), variants=(FlagValue("on"),)
        )
        with pytest.raises(EvaluationError):
            ablation_matrix([flag])

    def test_empty_matrix_is_an_error(self):
        with pytest.raises(EvaluationError):
            ablation_matrix([])

    def test_builtin_matrices(self):
        smoke = ablation_matrix(smoke_flags())
        assert len(smoke) >= 4  # the CI acceptance floor
        assert smoke[0].name == "baseline"
        full = ablation_matrix(default_flags())
        assert len(full) == 1 + sum(len(f.variants) for f in default_flags())


# ---------------------------------------------------------------------- #
# layer 2: measurement against a real in-process server
# ---------------------------------------------------------------------- #
class TestRunLoad:
    @pytest.fixture(scope="class")
    def run(self):
        corpus = _fresh_corpus()
        plan = build_plan(corpus, LoadProfile(seed=7, requests=24, concurrency=2))
        with HttpServer(SnippetService(corpus), port=0) as server:
            report = run_load(plan, port=server.port)
        return plan, report

    def test_every_report_field_is_filled(self, run):
        plan, report = run
        assert report.requests_sent == len(plan)
        assert set(report.latency) == {"p50", "p95", "p99"}
        assert all(value is not None and value > 0 for value in report.latency.values())
        assert report.latency["p50"] <= report.latency["p95"] <= report.latency["p99"]
        assert report.throughput_rps > 0
        assert report.errors == 0 and report.error_rate == 0.0
        assert report.shed == 0 and report.shed_rate == 0.0
        assert sum(report.by_kind.values()) == report.requests_sent

    def test_cache_hit_rate_measured_from_stats_delta(self, run):
        _, report = run
        # the Zipf-skewed stream repeats hot queries, so the delta of the
        # serving caches over exactly this run must show hits
        assert report.cache_hit_rate is not None
        assert 0.0 < report.cache_hit_rate <= 1.0

    def test_report_rows_carry_the_v2_fields(self, run):
        _, report = run
        (row,) = report_rows(report)
        assert row["op"] == "loadgen_mixed"
        assert row["requests"] == report.requests_sent
        assert set(row["latency"]) == {"p50", "p95", "p99"}
        for field in ("seconds", "throughput_rps", "error_rate", "shed_rate"):
            assert isinstance(row[field], float)

    def test_to_dict_is_json_clean(self, run):
        _, report = run
        round_tripped = json.loads(json.dumps(report.to_dict()))
        assert round_tripped["requests_sent"] == report.requests_sent


class TestWireBytesUnderLoad:
    def test_served_bytes_identical_to_handle_json(self):
        corpus = _fresh_corpus()
        plan = build_plan(corpus, LoadProfile(seed=11, requests=16))
        reference = SnippetService(_fresh_corpus())
        import http.client

        with HttpServer(SnippetService(corpus), port=0) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                for planned in plan.requests:
                    text = json.dumps(planned.payload, sort_keys=True)
                    expected = reference.handle_json(text)
                    connection.request(
                        "POST", f"/v1/{planned.kind}", body=text.encode("utf-8")
                    )
                    response = connection.getresponse()
                    body = response.read().decode("utf-8")
                    assert body == expected, (planned.kind, planned.payload)
            finally:
                connection.close()


# ---------------------------------------------------------------------- #
# the report file ``loadgen --report`` writes
# ---------------------------------------------------------------------- #
class TestReportFile:
    def test_rows_land_sorted_in_a_versioned_envelope(self, tmp_path):
        rows = [
            {"op": "loadgen_mixed", "seconds": 1.5, "requests": 48},
            {"op": "ablate_baseline", "seconds": 0.5, "requests": 32},
        ]
        path = write_report_file(rows, str(tmp_path / "report.json"))
        assert json.loads((tmp_path / "report.json").read_text()) == {
            "schema_version": loadgen.REPORT_SCHEMA_VERSION,
            "benchmark": "loadgen",
            "results": [rows[1], rows[0]],
        }
        assert path == str(tmp_path / "report.json")
