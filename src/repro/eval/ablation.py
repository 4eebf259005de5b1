"""Ablation experiments (A1, A2).

A1 — dominance score vs. raw occurrence counts when ranking features into
     the IList (the design choice argued in §2.3).  Measured by how much
     dominance "mass" the resulting snippets capture and whether the
     planted normalised-frequency features survive.

A2 — instance-selection strategy (the design choice of §2.4): the paper's
     greedy-closest choice vs. taking the first instance in document order
     vs. a random instance.  Measured by IList items covered and snippet
     size at a fixed bound.
"""

from __future__ import annotations

from repro.datasets.movies import MoviesConfig, generate_movies_document
from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.eval.metrics import evaluate_snippet, mean
from repro.eval.reporting import ExperimentTable
from repro.eval.workload import WorkloadGenerator
from repro.index.builder import IndexBuilder
from repro.search.engine import SearchEngine
from repro.snippet.baselines import RawFrequencySnippetGenerator
from repro.snippet.generator import SnippetGenerator
from repro.snippet.instance_selector import SelectionStrategy


def _study_indexes(seed: int):
    retail = generate_retail_document(
        RetailConfig(retailers=6, stores_per_retailer=4, clothes_per_store=6, seed=seed),
        name="retail-ablation",
    )
    movies = generate_movies_document(MoviesConfig(movies=30, seed=seed), name="movies-ablation")
    return {"retail": IndexBuilder().build(retail), "movies": IndexBuilder().build(movies)}


# ---------------------------------------------------------------------- #
# A1 — dominance score vs. raw frequency
# ---------------------------------------------------------------------- #
def run_ablation_dominance(
    size_bound: int = 10, queries_per_dataset: int = 6, seed: int = 61
) -> ExperimentTable:
    """A1: dominance-ranked IList vs. raw-frequency-ranked IList."""
    table = ExperimentTable(
        experiment_id="A1",
        title=f"Feature ranking ablation (bound={size_bound}): dominance score vs. raw frequency",
        columns=[
            "dataset",
            "ranking",
            "mean_dominance_mass_coverage",
            "mean_dominant_feature_coverage",
            "mean_ilist_coverage",
        ],
        notes="dominance mass = sum of DS of captured dominant features / total DS",
    )
    for dataset, index in _study_indexes(seed).items():
        engine = SearchEngine(index)
        extract_generator = SnippetGenerator(index.analyzer)
        raw_generator = RawFrequencySnippetGenerator(index.analyzer)
        workload = WorkloadGenerator(index, seed=seed).generate(
            query_count=queries_per_dataset, keywords_per_query=2
        )
        per_method = {"dominance_score": [], "raw_frequency": []}
        for query in workload:
            results = engine.search(query)
            for result in results:
                generated = extract_generator.generate(result, size_bound=size_bound, query=query)
                per_method["dominance_score"].append(evaluate_snippet(generated))
                # The raw-frequency pipeline builds its own IList, but quality
                # is always judged against the *dominance-based* ground truth
                # IList, so the two rankings are scored on the same scale.
                raw_generated = raw_generator.generate(result, size_bound, query=query)
                reference = extract_generator.generate(result, size_bound=size_bound, query=query)
                reference_ilist = reference.ilist
                captured = [
                    item
                    for item in reference_ilist.coverable_items()
                    if any(raw_generated.snippet.contains(pre) for pre in item.instances)
                ]
                raw_generated.snippet.covered_items = captured
                raw_generated.ilist = reference_ilist
                per_method["raw_frequency"].append(evaluate_snippet(raw_generated))
        for ranking, qualities in per_method.items():
            table.add_row(
                dataset=dataset,
                ranking=ranking,
                mean_dominance_mass_coverage=mean([q.dominance_mass_coverage for q in qualities]),
                mean_dominant_feature_coverage=mean([q.dominant_feature_coverage for q in qualities]),
                mean_ilist_coverage=mean([q.ilist_coverage for q in qualities]),
            )
    return table


# ---------------------------------------------------------------------- #
# A2 — instance selection strategy
# ---------------------------------------------------------------------- #
def run_ablation_selector(
    size_bound: int = 10, queries_per_dataset: int = 6, seed: int = 67
) -> ExperimentTable:
    """A2: greedy-closest vs. first-instance vs. random-instance selection."""
    table = ExperimentTable(
        experiment_id="A2",
        title=f"Instance selection ablation (bound={size_bound})",
        columns=["dataset", "strategy", "mean_items_covered", "mean_ilist_coverage", "mean_snippet_edges"],
    )
    strategies = (
        SelectionStrategy.GREEDY_CLOSEST,
        SelectionStrategy.FIRST_INSTANCE,
        SelectionStrategy.RANDOM_INSTANCE,
    )
    for dataset, index in _study_indexes(seed).items():
        engine = SearchEngine(index)
        workload = WorkloadGenerator(index, seed=seed).generate(
            query_count=queries_per_dataset, keywords_per_query=2
        )
        for strategy in strategies:
            generator = SnippetGenerator(index.analyzer, strategy=strategy)
            covered: list[float] = []
            coverage: list[float] = []
            edges: list[float] = []
            for query in workload:
                results = engine.search(query)
                for result in results:
                    generated = generator.generate(result, size_bound=size_bound, query=query)
                    quality = evaluate_snippet(generated)
                    covered.append(float(generated.covered_items))
                    coverage.append(quality.ilist_coverage)
                    edges.append(float(generated.snippet.size_edges))
            table.add_row(
                dataset=dataset,
                strategy=strategy.value,
                mean_items_covered=mean(covered),
                mean_ilist_coverage=mean(coverage),
                mean_snippet_edges=mean(edges),
            )
    return table


# ---------------------------------------------------------------------- #
# A3 — result-set-aware distinct snippets
# ---------------------------------------------------------------------- #
def _ambiguous_store_catalogue(stores: int, seed: int):
    """A catalogue of near-identical stores (the hard case for distinctness).

    Every store shares the same state, city and dominant clothes profile
    and has no unique key attribute; each differs only in one minority
    clothes item.  The per-result pipeline therefore produces identical
    snippets at tight bounds — exactly the situation the result-set-aware
    post-processing is meant to fix.
    """
    from repro.datasets.base import CLOTHES_CATEGORIES
    from repro.xmltree.builder import TreeBuilder

    builder = TreeBuilder("stores", name=f"ambiguous-{stores}")
    for index in range(stores):
        with builder.element("store"):
            builder.add_value("state", "Texas")
            builder.add_value("city", "Houston")
            with builder.element("merchandises"):
                for _ in range(3):
                    with builder.element("clothes"):
                        builder.add_value("category", "jeans")
                        builder.add_value("fitting", "man")
                with builder.element("clothes"):
                    builder.add_value("category", CLOTHES_CATEGORIES[index % len(CLOTHES_CATEGORIES)])
                    builder.add_value("fitting", "woman")
    return IndexBuilder().build(builder.build())


def run_ablation_distinct(
    bounds: tuple[int, ...] = (5, 6, 8, 10),
    stores: int = 6,
    seed: int = 71,
) -> ExperimentTable:
    """A3: per-result pipeline vs. result-set-aware distinct post-processing.

    Measures pairwise snippet distinguishability (the abstract's
    "differentiate them from one another" goal) on an *ambiguous* catalogue
    of near-identical stores, with and without the
    :class:`~repro.snippet.distinct.DistinctSnippetGenerator` clash
    resolution, across size bounds.  On such catalogues the per-result
    pipeline produces identical snippets; the post-processing spends part
    of the same budget on features that tell the results apart.
    """
    from repro.eval.metrics import distinguishability
    from repro.snippet.distinct import DistinctSnippetGenerator

    index = _ambiguous_store_catalogue(stores=stores, seed=seed)
    engine = SearchEngine(index)
    results = engine.search("store texas jeans")
    per_result = SnippetGenerator(index.analyzer)
    distinct = DistinctSnippetGenerator(index.analyzer)

    table = ExperimentTable(
        experiment_id="A3",
        title=f"Distinct-snippet post-processing on an ambiguous catalogue ({len(results)} near-identical results)",
        columns=["size_bound", "per_result_distinguishability", "distinct_distinguishability", "max_edges"],
        notes="distinguishability = fraction of snippet pairs with different visible content",
    )
    for bound in bounds:
        base_batch = per_result.generate_all(results, size_bound=bound)
        distinct_batch = distinct.generate_all(results, size_bound=bound)
        table.add_row(
            size_bound=bound,
            per_result_distinguishability=distinguishability(list(base_batch)),
            distinct_distinguishability=distinguishability(list(distinct_batch)),
            max_edges=max(g.snippet.size_edges for g in distinct_batch),
        )
    return table
