"""Index Builder (Figure 4): keyword, label and structure indexes.

"The Index Builder builds indexes for efficiently retrieving matches to
user input keywords, as well as the information about node category, and
parent-children relationship."

* :mod:`repro.index.postings` — sorted posting lists of ``pre`` ids and
  merge ops,
* :mod:`repro.index.inverted` — keyword → posting list inverted index,
* :mod:`repro.index.structure` — tag/label index, node-category index and
  parent/children accessors,
* :mod:`repro.index.builder` — the façade that builds all of them,
* :mod:`repro.index.storage` — persistence: ``save_index`` / ``load_index``
  (``snapshot.bin`` only; an older build's text snapshot is rejected by
  name), the corpus manifest/journal,
* :mod:`repro.index.binfmt` — the v4 binary snapshot format every
  snapshot is written and read in; a load decodes every posting list into
  the same :class:`InvertedIndex` a build produces.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.index.postings": ("PostingList",),
    "repro.index.inverted": ("InvertedIndex",),
    "repro.index.structure": ("StructureIndex",),
    "repro.index.builder": ("DocumentIndex", "IndexBuilder"),
    "repro.index.storage": ("save_index", "load_index"),
    "repro.index.binfmt": ("BINARY_FORMAT_VERSION", "load_binary_index", "write_binary_index"),
})

__all__ = [
    "PostingList",
    "InvertedIndex",
    "StructureIndex",
    "DocumentIndex",
    "IndexBuilder",
    "save_index",
    "load_index",
    "load_binary_index",
    "write_binary_index",
    "BINARY_FORMAT_VERSION",
]
