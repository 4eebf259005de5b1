"""The experiment registry.

Maps experiment identifiers (as used in DESIGN.md and EXPERIMENTS.md) to
runnable functions returning an :class:`~repro.eval.reporting.ExperimentTable`.
Benchmarks, the ``examples/run_experiments.py`` script and the tests all go
through this registry, so an experiment cannot silently disappear from one
of them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.eval.ablation import run_ablation_distinct, run_ablation_dominance, run_ablation_selector
from repro.eval.efficiency import (
    run_search_engine_scaling,
    run_time_vs_bound,
    run_time_vs_docsize,
    run_time_vs_results,
)
from repro.eval.figures import run_figure1, run_figure2, run_figure3, run_figure5
from repro.eval.quality import (
    run_feature_quality,
    run_greedy_vs_optimal,
    run_snippet_quality_by_dataset,
)
from repro.eval.reporting import ExperimentTable
from repro.eval.userstudy import run_distinguishability_study, run_user_study


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    experiment_id: str
    description: str
    runner: Callable[..., ExperimentTable]

    def run(self, **kwargs) -> ExperimentTable:
        return self.runner(**kwargs)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec("F1", "Figure 1 value-occurrence statistics of the running example", run_figure1),
        ExperimentSpec("F2", "Figure 2 snippet of the running example", run_figure2),
        ExperimentSpec("F3", "Figure 3 IList and §2.3 dominance scores", run_figure3),
        ExperimentSpec("F5", 'Figure 5 demo walk-through ("store texas", bound 6)', run_figure5),
        ExperimentSpec("E1", "Snippet generation time vs. number of results", run_time_vs_results),
        ExperimentSpec("E2", "Snippet generation time vs. snippet size bound", run_time_vs_bound),
        ExperimentSpec("E3", "Per-phase time vs. document size", run_time_vs_docsize),
        ExperimentSpec("E4", "Greedy vs. optimal vs. baselines (IList items covered)", run_greedy_vs_optimal),
        ExperimentSpec("E5", "Feature identification: dominance score vs. raw frequency", run_feature_quality),
        ExperimentSpec("E5b", "Snippet quality metrics per dataset", run_snippet_quality_by_dataset),
        ExperimentSpec("E6", "Simulated user study: identification accuracy and effort", run_user_study),
        ExperimentSpec("E6b", "Snippet distinguishability per method", run_distinguishability_study),
        ExperimentSpec("E7", "Search semantics scaling (SLCA / ELCA / brute force)", run_search_engine_scaling),
        ExperimentSpec("A1", "Ablation: dominance score vs. raw frequency feature ranking", run_ablation_dominance),
        ExperimentSpec("A2", "Ablation: instance selection strategy", run_ablation_selector),
        ExperimentSpec(
            "A3",
            "Ablation: result-set-aware distinct snippets on an ambiguous catalogue",
            run_ablation_distinct,
        ),
    )
}


def list_experiments() -> list[str]:
    """All registered experiment ids, in registry order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentTable:
    """Run one experiment by id.

    >>> table = run_experiment("F1")
    >>> table.experiment_id
    'F1'
    """
    spec = EXPERIMENTS.get(experiment_id)
    if spec is None:
        raise EvaluationError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return spec.run(**kwargs)
