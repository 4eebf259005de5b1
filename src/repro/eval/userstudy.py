"""Simulated user study (E6).

The companion evaluation ran a user study: users judge result relevance
from snippets alone.  Humans are not available offline, so the study is
simulated with a deterministic "user model" (documented as a substitution
in DESIGN.md):

* a *target* result is chosen per query and summarised into the facts a
  user would remember: its key value and its top ground-truth dominant
  features (computed from the **full** result — information the user is
  assumed to want, independent of any snippet method);
* the simulated user inspects the snippets of all results of the query and
  selects the result whose snippet content best matches those facts (a key
  match is decisive, feature overlap breaks ties, rank breaks remaining
  ties);
* metrics: **identification accuracy** (chose the target) and **inspection
  effort** (position of the target when results are re-ordered by
  snippet-match score, i.e. how many full results the user must open).

Methods compared: eXtract, the first-K-edges baseline, the random-subtree
baseline and the flat text-window baseline (the "Google Desktop" stand-in).
A snippet method wins when it surfaces exactly the distinguishing facts —
which is the paper's core claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.base import DatasetRandom
from repro.datasets.movies import MoviesConfig, generate_movies_document
from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.eval.metrics import mean
from repro.eval.reporting import ExperimentTable
from repro.eval.workload import WorkloadGenerator
from repro.index.builder import DocumentIndex, IndexBuilder
from repro.search.engine import SearchEngine
from repro.search.results import QueryResult
from repro.snippet.baselines import (
    FirstEdgesSnippetGenerator,
    RandomSubtreeSnippetGenerator,
    TextWindowSnippetGenerator,
)
from repro.snippet.distinct import snippet_signature
from repro.snippet.dominant import DominantFeatureIdentifier
from repro.snippet.generator import SnippetGenerator
from repro.snippet.return_entity import ReturnEntityIdentifier
from repro.snippet.result_key import QueryResultKeyIdentifier
from repro.utils.text import normalize_value


@dataclass
class UserKnowledge:
    """What the simulated user knows about the result they want."""

    key_value: str | None
    feature_facts: set[str]  # "tag=value" strings of top dominant features

    def is_empty(self) -> bool:
        return self.key_value is None and not self.feature_facts


def derive_user_knowledge(
    index: DocumentIndex, result: QueryResult, query, top_features: int = 3
) -> UserKnowledge:
    """Ground-truth facts about a result, from the full result tree."""
    decision = ReturnEntityIdentifier(index.analyzer).identify(query, result)
    keys = QueryResultKeyIdentifier(index.analyzer).identify(result, decision)
    key_value = normalize_value(keys[0].value) if keys else None
    dominant = DominantFeatureIdentifier(index.analyzer).identify(result)
    facts = {
        f"{scored.feature.attribute}={scored.feature.value}" for scored in dominant[:top_features]
    }
    return UserKnowledge(key_value=key_value, feature_facts=facts)


def _tree_snippet_facts(generated) -> tuple[set[str], str]:
    """(tag=value facts, flattened text) of a tree-based snippet."""
    facts = set()
    text_parts = []
    for node in generated.snippet.selected_nodes():
        if node.has_text_value:
            value = normalize_value(node.text or "")
            facts.add(f"{node.tag}={value}")
            text_parts.append(value)
    return facts, " ".join(text_parts)


def _match_score(knowledge: UserKnowledge, facts: set[str], flat_text: str) -> float:
    """How strongly a snippet's content matches the user's knowledge."""
    score = 0.0
    if knowledge.key_value and knowledge.key_value in flat_text:
        score += 10.0
    if knowledge.feature_facts:
        overlap = len(knowledge.feature_facts & facts)
        score += overlap / len(knowledge.feature_facts)
    return score


def run_user_study(
    size_bound: int = 8,
    queries_per_dataset: int = 8,
    seed: int = 53,
) -> ExperimentTable:
    """E6: simulated user study across the retail and movies datasets."""
    rng = DatasetRandom(seed)
    datasets = {
        "retail": generate_retail_document(
            RetailConfig(retailers=8, stores_per_retailer=4, clothes_per_store=5, seed=seed),
            name="retail-study",
        ),
        "movies": generate_movies_document(MoviesConfig(movies=36, seed=seed), name="movies-study"),
    }

    methods = ("extract", "first_edges", "random", "text_window")
    per_method_correct: dict[str, list[float]] = {method: [] for method in methods}
    per_method_effort: dict[str, list[float]] = {method: [] for method in methods}

    for tree in datasets.values():
        index = IndexBuilder().build(tree)
        engine = SearchEngine(index)
        extract_generator = SnippetGenerator(index.analyzer)
        first_edges = FirstEdgesSnippetGenerator(index.analyzer)
        random_gen = RandomSubtreeSnippetGenerator(index.analyzer, seed=seed)
        text_gen = TextWindowSnippetGenerator()

        workload = WorkloadGenerator(index, seed=seed).generate(
            query_count=queries_per_dataset, keywords_per_query=2, name="study"
        )
        for query in workload:
            results = engine.search(query)
            if len(results) < 2:
                continue
            target = results[rng.randrange(len(results))]
            knowledge = derive_user_knowledge(index, target, query)
            if knowledge.is_empty():
                continue

            snippet_sets = {
                "extract": [extract_generator.generate(r, size_bound, query=query) for r in results],
                "first_edges": [first_edges.generate(r, size_bound, query=query) for r in results],
                "random": [random_gen.generate(r, size_bound, query=query) for r in results],
            }
            for method, generated_list in snippet_sets.items():
                scored = []
                for rank, generated in enumerate(generated_list):
                    facts, flat = _tree_snippet_facts(generated)
                    scored.append((-_match_score(knowledge, facts, flat), rank, generated.result))
                scored.sort()
                chosen = scored[0][2]
                per_method_correct[method].append(1.0 if chosen is target else 0.0)
                effort = next(
                    position + 1 for position, entry in enumerate(scored) if entry[2] is target
                )
                per_method_effort[method].append(float(effort))

            # text-window baseline: content is flat text only
            scored_text = []
            for rank, result in enumerate(results):
                snippet = text_gen.generate(result, size_bound, query=query)
                flat = normalize_value(snippet.text)
                scored_text.append((-_match_score(knowledge, set(), flat), rank, result))
            scored_text.sort()
            per_method_correct["text_window"].append(1.0 if scored_text[0][2] is target else 0.0)
            effort = next(
                position + 1 for position, entry in enumerate(scored_text) if entry[2] is target
            )
            per_method_effort["text_window"].append(float(effort))

    table = ExperimentTable(
        experiment_id="E6",
        title=f"Simulated user study (bound={size_bound}): identification accuracy and effort",
        columns=["method", "accuracy", "mean_results_inspected", "trials"],
        notes="user model: key match decisive, dominant-feature overlap breaks ties",
    )
    for method in methods:
        table.add_row(
            method=method,
            accuracy=mean(per_method_correct[method]),
            mean_results_inspected=mean(per_method_effort[method]),
            trials=len(per_method_correct[method]),
        )
    return table


def run_distinguishability_study(
    size_bound: int = 8, seed: int = 59, queries: int = 6
) -> ExperimentTable:
    """Supplementary to E6: pairwise snippet distinguishability per method."""
    from repro.eval.metrics import distinguishability

    tree = generate_retail_document(
        RetailConfig(retailers=8, stores_per_retailer=4, clothes_per_store=5, seed=seed),
        name="retail-distinguish",
    )
    index = IndexBuilder().build(tree)
    engine = SearchEngine(index)
    generators = {
        "extract": SnippetGenerator(index.analyzer),
        "first_edges": FirstEdgesSnippetGenerator(index.analyzer),
        "random": RandomSubtreeSnippetGenerator(index.analyzer, seed=seed),
    }
    workload = WorkloadGenerator(index, seed=seed).generate(query_count=queries, keywords_per_query=2)

    table = ExperimentTable(
        experiment_id="E6b",
        title=f"Snippet distinguishability per method (bound={size_bound})",
        columns=["method", "mean_distinguishability"],
    )
    for method, generator in generators.items():
        values = []
        for query in workload:
            results = engine.search(query)
            if len(results) < 2:
                continue
            generated = [generator.generate(result, size_bound, query=query) for result in results]
            values.append(distinguishability(generated))
        table.add_row(method=method, mean_distinguishability=mean(values))
    return table
