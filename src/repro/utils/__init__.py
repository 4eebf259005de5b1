"""Shared utilities: text normalisation, tokenisation, timing, RNG helpers."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.utils.text": (
        "STOPWORDS", "normalize_token", "normalize_value", "tokenize", "tokenize_query",
        "singularize",
    ),
    "repro.utils.timing": ("Stopwatch", "TimingBreakdown", "timed"),
})

__all__ = [
    "STOPWORDS",
    "normalize_token",
    "normalize_value",
    "tokenize",
    "tokenize_query",
    "singularize",
    "Stopwatch",
    "TimingBreakdown",
    "timed",
]
