"""Index Builder (Figure 4): keyword, label and structure indexes.

"The Index Builder builds indexes for efficiently retrieving matches to
user input keywords, as well as the information about node category, and
parent-children relationship."

* :mod:`repro.index.postings` — sorted Dewey posting lists and merge ops,
* :mod:`repro.index.inverted` — keyword → posting list inverted index,
* :mod:`repro.index.structure` — tag/label index, node-category index and
  parent/children accessors,
* :mod:`repro.index.builder` — the façade that builds all of them,
* :mod:`repro.index.storage` — persistence: ``save_index`` / ``load_index``
  (the v3 text snapshots of older builds are read-only input), the corpus
  manifest/journal,
* :mod:`repro.index.binfmt` — the v4 mmap-able binary snapshot format
  every snapshot is written in, with lazy posting-list materialisation.
"""

from repro.index.postings import PostingList
from repro.index.inverted import InvertedIndex
from repro.index.structure import StructureIndex
from repro.index.builder import DocumentIndex, IndexBuilder
from repro.index.storage import save_index, load_index
from repro.index.binfmt import (
    BINARY_FORMAT_VERSION,
    LazyInvertedIndex,
    load_binary_index,
    write_binary_index,
)

__all__ = [
    "PostingList",
    "InvertedIndex",
    "LazyInvertedIndex",
    "StructureIndex",
    "DocumentIndex",
    "IndexBuilder",
    "save_index",
    "load_index",
    "load_binary_index",
    "write_binary_index",
    "BINARY_FORMAT_VERSION",
]
