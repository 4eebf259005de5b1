"""Data Analyzer: node classification (entity / attribute / connection) and key mining.

Implements the §2.1 classification rules adopted from XSeek [6] and the
§2.2 key mining ("After mining the keys of entities in the data ...").
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.classify.categories": ("NodeCategory", "classify_path", "classify_schema"),
    "repro.classify.analyzer": ("DataAnalyzer", "EntityType"),
    "repro.classify.keys": ("KeyMiner", "KeyInfo"),
})

__all__ = [
    "NodeCategory",
    "classify_path",
    "classify_schema",
    "DataAnalyzer",
    "EntityType",
    "KeyMiner",
    "KeyInfo",
]
