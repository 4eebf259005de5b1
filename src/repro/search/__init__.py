"""XML keyword search substrate.

Snippet generation "takes query results as input" (paper §2, footnote 1)
and the demo uses XSeek as its search engine.  This package provides the
search substrate so the reproduction is end-to-end runnable:

* :mod:`repro.search.query` — keyword query parsing,
* :mod:`repro.search.slca` — Smallest LCA semantics [Xu & Papakonstantinou,
  SIGMOD 2005], the result-root semantics most XML keyword engines use,
* :mod:`repro.search.elca` — Exclusive LCA semantics [XRANK, SIGMOD 2003],
* :mod:`repro.search.lca` — brute-force reference implementations used by
  property-based tests,
* :mod:`repro.search.xseek` — XSeek-style result-tree construction
  [Liu & Chen, SIGMOD 2007]: each result root is expanded to a
  self-contained result tree (the input the snippet generator consumes),
* :mod:`repro.search.ranking` — a simple size/keyword-proximity ranking,
* :mod:`repro.search.engine` — the façade combining all of the above.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.search.query": ("KeywordQuery",),
    "repro.search.results": ("QueryResult", "ResultSet"),
    "repro.search.slca": ("compute_slca",),
    "repro.search.elca": ("compute_elca",),
    "repro.search.lca": ("brute_force_slca", "brute_force_elca"),
    "repro.search.xseek": ("ResultConstruction", "build_result_tree"),
    "repro.search.ranking": ("rank_results",),
    "repro.search.engine": ("SearchEngine",),
})

__all__ = [
    "KeywordQuery",
    "QueryResult",
    "ResultSet",
    "compute_slca",
    "compute_elca",
    "brute_force_slca",
    "brute_force_elca",
    "ResultConstruction",
    "build_result_tree",
    "rank_results",
    "SearchEngine",
]
