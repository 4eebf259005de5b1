"""Tier-1 smoke of the end-to-end benchmark: every workload and one traced
prefix at a tiny scale, the BENCHMARK.json contract, seed stability, the
missing-wrap-target tolerance, and process hygiene."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import plans  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


def _run(*arguments: str) -> dict:
    """One driver-style invocation at smoke scale; the last stdout line."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments,
         "--scale", "smoke", "--seconds", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _leftover_servers() -> list[str]:
    """Command lines of live CLI servers started from this benchmark's
    workspace (their port files live under ``out/``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        if "repro.cli" in command and os.path.join(HERE, "out") in command:
            found.append(command)
    return found


def test_contract_names_what_the_benchmark_emits():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(plans.WORKLOADS)
    import workloads

    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_every_workload_emits_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seed", "3", "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in CONTRACT["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {metric["name"] for metric in CONTRACT["end_to_end"]}
    assert _leftover_servers() == []


def test_plan_signatures_are_seed_stable():
    for workload in plans.WORKLOADS:
        first = plans.build_plan(workload, 5, 1, "smoke").signature()
        assert plans.build_plan(workload, 5, 1, "smoke").signature() == first
        assert plans.build_plan(workload, 6, 1, "smoke").signature() != first


def test_traced_prefix_and_a_missing_wrap_target():
    gone = tracing.Wrap("search.rank", "repro.search.no_such_module", "rank", ("search.rank_ms",))
    result = tracing.run_traced("mixed_rw", 3, 1, "smoke", table=tracing.WRAP_TABLE + (gone,))
    assert result["failed"] == 0, result["failures"]
    assert result["untraced"] == ["repro.search.no_such_module.rank"]
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert metrics["search.rank_ms"]["value"] is None  # its wrap target is gone
    for name in ("client.self_ms", "http.self_ms", "gateway.self_ms", "service.self_ms",
                 "search.total_ms", "snippet.total_ms", "corpus.update_ms",
                 "trace.overhead_ratio"):
        assert metrics[name]["value"] is not None, name
    assert os.path.exists(os.path.join(HERE, "out", "trace_mixed_rw.json"))
    assert _leftover_servers() == []
    # The wrappers are gone again: nothing of the program stays patched.
    from repro.search import ranking

    assert not hasattr(ranking.rank_results, "__wrapped__")
