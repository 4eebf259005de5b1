"""Printing, result files, A/A spreads and two-file comparison."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def load_contract() -> dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def print_result(result: dict[str, Any]) -> None:
    """Every metric by name and unit, then counts and signatures."""
    print(f"== {result['workload']} ({result['pass']})  seed={result['seed']}  "
          f"seconds={result['seconds']}  scale={result['scale']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:36s} {shown:>14s} {metric['unit']}")
    print(f"  attempted={result['attempted']} ok={result['attempted'] - result['failed']} "
          f"failed={result['failed']} error_rate={result['error_rate']:.6f}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")
    if result.get("untraced"):
        print(f"  untraced: {', '.join(result['untraced'])}")
    print(f"  samples: {json.dumps(result['samples'], sort_keys=True)}")
    print(f"  plan_sha256={result['plan_sha256']}")
    print(f"  response_sha256={result['response_sha256']}")


def environment() -> dict[str, Any]:
    """Where a result file was measured: commit, cores, interpreter."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version()}


def write_results(path: str, results: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"environment": environment(), "results": results}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------- #
# A/A: the spread of one checkout against itself
# ---------------------------------------------------------------------- #
def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 − q1) / median) — the quartiles Python's
    ``statistics.quantiles(values, n=4)`` gives."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def run_aa(
    run: Callable[[str, int], dict[str, Any]],
    workloads: list[str],
    sets: int,
    first_seed: int,
    out: str | None,
) -> int:
    """``sets`` runs per workload, each on another seed; per metric the
    median, quartiles and spread against its bound."""
    bounds = {metric["name"]: metric["bound"] for metric in load_contract()["end_to_end"]}
    rows = []
    exceeded = 0
    for workload in workloads:
        runs = [run(workload, first_seed + offset) for offset in range(sets)]
        failed = sum(result["failed"] for result in runs)
        print(f"== A/A {workload}: {sets} runs, seeds {first_seed}..{first_seed + sets - 1}, "
              f"failed operations {failed}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in runs]
            median, q1, q3, relative = spread(values)
            verdict = "ok" if relative <= bound or name == "setup_s" else "EXCEEDS"
            exceeded += verdict == "EXCEEDS"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:22s} median {median:12.4f} {unit:4s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {relative:7.2%} bound {bound:5.0%} {verdict}")
            rows.append({"workload": workload, "metric": name, "values": values, "median": median,
                         "q1": q1, "q3": q3, "spread": relative, "bound": bound})
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"environment": environment(), "aa": rows}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if exceeded else 0


# ---------------------------------------------------------------------- #
# compare: which metric moved between two result files
# ---------------------------------------------------------------------- #
def compare_files(path_a: str, path_b: str) -> int:
    """Per workload, every metric of both files with delta, bound and
    verdict; exit 1 when a bounded metric got worse by more than its bound."""
    contract = load_contract()
    declared = {metric["name"]: metric for metric in contract["end_to_end"] + contract["per_layer"]}
    with open(path_a, "r", encoding="utf-8") as handle:
        results_a = {_key(result): result for result in json.load(handle)["results"]}
    with open(path_b, "r", encoding="utf-8") as handle:
        results_b = {_key(result): result for result in json.load(handle)["results"]}
    worse = 0
    for key in results_a:
        if key not in results_b:
            continue
        print(f"== {key[0]} ({key[1]}, {key[2]})")
        metrics_a, metrics_b = results_a[key]["metrics"], results_b[key]["metrics"]
        for name in metrics_a:
            if name not in metrics_b:
                continue
            verdict, delta = judge_change(
                metrics_a[name]["value"], metrics_b[name]["value"], declared.get(name, {})
            )
            worse += verdict == "worse"
            print(f"  {name:36s} {_shown(metrics_a[name]['value']):>14s} -> "
                  f"{_shown(metrics_b[name]['value']):>14s} {metrics_a[name]['unit']:6s} "
                  f"{_shown(delta, '+.2%'):>9s}  {verdict}")
        sha_a, sha_b = results_a[key]["response_sha256"], results_b[key]["response_sha256"]
        print(f"  wire bytes: {'identical' if sha_a == sha_b else 'DIFFER'}")
    return 1 if worse else 0


def _key(result: dict[str, Any]) -> tuple[str, str, str]:
    return result["workload"], result["scale"], result["pass"]


#: per-layer metrics carry no bound; compare flags moves beyond this share
PER_LAYER_NOTICE = 0.10


def _shown(value: float | None, spec: str = ".4f") -> str:
    return "n/a" if value is None else format(value, spec)


def judge_change(
    before: float | None, after: float | None, declared: dict[str, Any]
) -> tuple[str, float | None]:
    """``better`` / ``worse`` / ``within`` (the bound) / ``unresolved``
    (a side is missing, or the metric has no direction or bound to judge
    by) and the relative change."""
    if before is None or after is None or not before:
        return "unresolved", None
    delta = (after - before) / before
    direction = declared.get("better")
    if direction is None:
        return "unresolved", delta
    bound = declared.get("bound", PER_LAYER_NOTICE)
    gain = -delta if direction == "lower" else delta
    if gain < -bound:
        return "worse", delta
    return ("better" if gain > bound else "within"), delta
