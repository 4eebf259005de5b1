"""The eXtract core: snippet generation for XML keyword search results.

The pipeline mirrors Figure 4 of the paper:

* :mod:`repro.snippet.features` — feature triples ``(entity, attribute,
  value)`` and their occurrence statistics inside one query result,
* :mod:`repro.snippet.return_entity` — the Return Entity Identifier (§2.2),
* :mod:`repro.snippet.result_key` — the Query Result Key Identifier (§2.2),
* :mod:`repro.snippet.dominant` — the Dominant Feature Identifier (§2.3),
* :mod:`repro.snippet.ilist` — Snippet Information List construction (§2),
* :mod:`repro.snippet.snippet_tree` — the snippet tree and its size/coverage
  accounting,
* :mod:`repro.snippet.instance_selector` — the greedy Instance Selector
  (§2.4),
* :mod:`repro.snippet.optimal` — an exact (exponential) selector used to
  validate the greedy algorithm on small inputs,
* :mod:`repro.snippet.generator` — the :class:`SnippetGenerator` façade,
* :mod:`repro.snippet.baselines` — comparison snippet generators,
* :mod:`repro.snippet.render` — text/HTML presentation.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.snippet.features": ("Feature", "FeatureStatistics", "extract_features"),
    "repro.snippet.return_entity": ("ReturnEntityIdentifier", "ReturnEntityDecision"),
    "repro.snippet.result_key": ("QueryResultKeyIdentifier", "ResultKey"),
    "repro.snippet.dominant": ("DominantFeatureIdentifier", "ScoredFeature"),
    "repro.snippet.ilist": ("IList", "IListItem", "ItemKind", "IListBuilder"),
    "repro.snippet.snippet_tree": ("Snippet",),
    "repro.snippet.instance_selector": ("GreedyInstanceSelector", "SelectionStrategy"),
    "repro.snippet.optimal": ("OptimalInstanceSelector",),
    "repro.snippet.generator": ("SnippetGenerator",),
    "repro.snippet.baselines": (
        "FirstEdgesSnippetGenerator", "RawFrequencySnippetGenerator",
        "RandomSubtreeSnippetGenerator", "TextWindowSnippetGenerator", "TextSnippet",
    ),
    "repro.snippet.distinct": ("DistinctSnippetGenerator",),
    "repro.snippet.render": ("render_snippet_text", "render_snippet_html", "render_result_page"),
})

__all__ = [
    "Feature",
    "FeatureStatistics",
    "extract_features",
    "ReturnEntityIdentifier",
    "ReturnEntityDecision",
    "QueryResultKeyIdentifier",
    "ResultKey",
    "DominantFeatureIdentifier",
    "ScoredFeature",
    "IList",
    "IListItem",
    "ItemKind",
    "IListBuilder",
    "Snippet",
    "GreedyInstanceSelector",
    "SelectionStrategy",
    "OptimalInstanceSelector",
    "SnippetGenerator",
    "FirstEdgesSnippetGenerator",
    "RawFrequencySnippetGenerator",
    "RandomSubtreeSnippetGenerator",
    "TextWindowSnippetGenerator",
    "TextSnippet",
    "DistinctSnippetGenerator",
    "render_snippet_text",
    "render_snippet_html",
    "render_result_page",
]
