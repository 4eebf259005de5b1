"""Evaluation harness: workloads, metrics and the experiment suite.

The demo paper defers its evaluation details to the companion full paper
("User study and performance evaluation showed that eXtract can effectively
generate high-quality snippets", §3).  This package implements a complete
evaluation in that spirit — efficiency sweeps, quality comparisons against
baselines and an optimal selector, a simulated user study and ablations —
and each experiment is registered so the benchmark targets and
EXPERIMENTS.md stay in sync.

* :mod:`repro.eval.workload` — query workload generation per dataset,
* :mod:`repro.eval.loadgen` — the closed-loop load harness: seeded mixed
  traffic against the real HTTP server, measured through the obs stack,
  plus the baseline-plus-one-flip serving-flag ablation matrix,
* :mod:`repro.eval.metrics` — snippet quality metrics,
* :mod:`repro.eval.reporting` — experiment tables and text rendering,
* :mod:`repro.eval.efficiency` — experiments E1, E2, E3, E7,
* :mod:`repro.eval.quality` — experiments E4, E5,
* :mod:`repro.eval.userstudy` — experiment E6,
* :mod:`repro.eval.ablation` — experiments A1, A2,
* :mod:`repro.eval.experiments` — the registry tying experiment ids
  (F1–F5, E1–E7, A1–A2) to runnable functions.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.eval.reporting": ("ExperimentTable",),
    "repro.eval.workload": ("QueryWorkload", "WorkloadGenerator"),
    "repro.eval.metrics": ("SnippetQuality", "evaluate_snippet", "distinguishability"),
    "repro.eval.experiments": ("EXPERIMENTS", "run_experiment", "list_experiments"),
    "repro.eval.loadgen": (
        "AblationConfig", "AblationFlag", "FlagValue", "LoadProfile", "LoadReport",
        "RequestPlan", "SMOKE_PROFILE", "ablation_matrix", "build_plan", "default_flags",
        "run_ablation", "run_load", "smoke_flags",
    ),
})

__all__ = [
    "ExperimentTable",
    "QueryWorkload",
    "WorkloadGenerator",
    "AblationConfig",
    "AblationFlag",
    "FlagValue",
    "LoadProfile",
    "LoadReport",
    "RequestPlan",
    "SMOKE_PROFILE",
    "ablation_matrix",
    "build_plan",
    "default_flags",
    "run_ablation",
    "run_load",
    "smoke_flags",
    "SnippetQuality",
    "evaluate_snippet",
    "distinguishability",
    "EXPERIMENTS",
    "run_experiment",
    "list_experiments",
]
