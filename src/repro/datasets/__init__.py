"""Synthetic dataset generators.

The demo scenarios are "movies and stores" (§4); the running example is the
retailer/store/clothes document of Figure 1.  The authors' actual data files
are not available, so this package generates documents with the same
structural shape (see DESIGN.md, substitutions):

* :mod:`repro.datasets.paper_example` — the Figure 1 document, constructed
  so that the published value-occurrence statistics and dominance scores
  hold exactly,
* :mod:`repro.datasets.retail` — parametric retailer/store/clothes data
  (drives the Figure 5 walk-through and the efficiency sweeps),
* :mod:`repro.datasets.movies` — a movie database (demo scenario),
* :mod:`repro.datasets.auctions` — an XMark-style auction site used for
  the document-size scaling experiments,
* :mod:`repro.datasets.bibliography` — a DBLP-style bibliography used for
  workloads with deeper nesting and many small entities.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.datasets.paper_example": (
        "figure1_document", "figure1_query", "FIGURE1_EXPECTED_ILIST",
        "FIGURE1_EXPECTED_SCORES",
    ),
    "repro.datasets.retail": ("RetailConfig", "generate_retail_document", "figure5_document"),
    "repro.datasets.movies": ("MoviesConfig", "generate_movies_document"),
    "repro.datasets.auctions": ("AuctionConfig", "generate_auction_document"),
    "repro.datasets.bibliography": ("BibliographyConfig", "generate_bibliography_document"),
})

__all__ = [
    "figure1_document",
    "figure1_query",
    "FIGURE1_EXPECTED_ILIST",
    "FIGURE1_EXPECTED_SCORES",
    "RetailConfig",
    "generate_retail_document",
    "figure5_document",
    "MoviesConfig",
    "generate_movies_document",
    "AuctionConfig",
    "generate_auction_document",
    "BibliographyConfig",
    "generate_bibliography_document",
]
