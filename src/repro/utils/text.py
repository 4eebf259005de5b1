"""Text normalisation and tokenisation for XML keyword search.

The eXtract paper treats keywords case-insensitively and matches them
against both element tags ("retailer") and text values ("Texas", "Brook
Brothers").  This module centralises the normalisation rules so the index,
the search engine and the snippet generator agree on what a "keyword" is.

Only lightweight, dependency-free processing is done:

* lower-casing,
* splitting on non-alphanumeric characters,
* a tiny English stop-word list (articles/prepositions that never help
  identify entities in the demo scenarios),
* a conservative plural → singular folding so that a query keyword
  ``stores`` matches a tag ``store`` (the paper's Figure 5 query
  "store texas" must hit ``<store>`` elements).
"""

from __future__ import annotations

import re
from collections.abc import Iterator

#: Words ignored when tokenising keyword queries.  Deliberately tiny: XML
#: tag names are rarely stop words, and dropping too much would change
#: which nodes match a query.
STOPWORDS: frozenset[str] = frozenset(
    {
        "a",
        "an",
        "and",
        "are",
        "as",
        "at",
        "be",
        "by",
        "for",
        "from",
        "in",
        "into",
        "is",
        "it",
        "of",
        "on",
        "or",
        "the",
        "to",
        "with",
    }
)

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

# Irregular plurals that show up in retail / movie style data.
_IRREGULAR_PLURALS: dict[str, str] = {
    "children": "child",
    "men": "man",
    "women": "woman",
    "people": "person",
    "feet": "foot",
    "mice": "mouse",
    "geese": "goose",
}


def singularize(token: str) -> str:
    """Fold a plural English token to a singular form, conservatively.

    The goal is matching query keywords against element tag names
    (``stores`` vs ``store``), not linguistic correctness.  Tokens that do
    not look plural are returned unchanged.

    >>> singularize("stores")
    'store'
    >>> singularize("clothes")
    'clothes'
    >>> singularize("children")
    'child'
    """
    if token in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[token]
    if len(token) <= 3 or not token.endswith("s"):
        return token
    # Words ending in "ss", "us", "is" are usually not plural (dress, status,
    # analysis); "clothes" is kept as-is because the tag in the paper is
    # literally <clothes>.
    if token.endswith(("ss", "us", "is", "clothes")):
        return token
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("es") and token[:-2].endswith(("ch", "sh", "x", "z")):
        return token[:-2]
    return token[:-1]


def normalize_token(token: str) -> str:
    """Normalise a single token for identity comparisons: lower-case only.

    Plural folding is *not* applied here: identities must be stable and
    human-readable ("texas" must stay "texas").  Plural-insensitive
    *matching* is handled where text is matched against keywords
    (:func:`matches_keyword`) and in the inverted index, which indexes both
    the raw and the singular form of every token.
    """
    return token.strip().lower()


def tokenize(text: str) -> list[str]:
    """Split arbitrary text into normalised tokens (stop words retained).

    Used for indexing text values: stop words are kept because a value such
    as "Gone with the Wind" should still be findable by the word "wind"
    while its full phrase remains reconstructible from token positions.

    >>> tokenize("Brook Brothers")
    ['brook', 'brothers']
    """
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def iter_index_terms(text: str) -> Iterator[str]:
    """Yield the terms under which ``text`` should be indexed.

    Each raw lower-cased token is yielded, and additionally its singular
    form when that differs, so queries can match either form without any
    query-time expansion.
    """
    for raw in tokenize(text):
        yield raw
        folded = singularize(raw)
        if folded != raw:
            yield folded


def tokenize_query(query: str) -> list[str]:
    """Tokenise a keyword query: normalise, drop stop words and duplicates.

    Order of first occurrence is preserved because the IList is initialised
    with the query keywords *in order* (paper §2).

    >>> tokenize_query("Texas, apparel, retailer")
    ['texas', 'apparel', 'retailer']
    >>> tokenize_query("the stores in Texas")
    ['stores', 'texas']
    """
    seen: set[str] = set()
    keywords: list[str] = []
    for raw in tokenize(query):
        if raw in STOPWORDS:
            continue
        token = normalize_token(raw)
        if token in seen:
            continue
        seen.add(token)
        keywords.append(token)
    return keywords


def normalize_value(value: str) -> str:
    """Normalise an attribute value for feature identity (§2.3 features).

    Two textual values are the same feature value iff their normalised
    forms are equal: surrounding whitespace is irrelevant, interior runs of
    whitespace collapse and case is folded.

    >>> normalize_value("  Brook   Brothers ")
    'brook brothers'
    """
    return " ".join(tokenize(value))


class NormalizedValues(dict):
    """:func:`normalize_value` memoised per raw text: ``values[raw]``
    normalises ``raw`` the first time it is read and looks it up after.

    A document's values repeat — most of them — so the passes of an index
    build that read the same values (schema inference, then key mining)
    share one and normalise each distinct text once.

    >>> values = NormalizedValues()
    >>> values["  Brook   Brothers "]
    'brook brothers'
    """

    def __missing__(self, raw: str) -> str:
        value = self[raw] = normalize_value(raw)
        return value


def matches_keyword(text: str, keyword: str) -> bool:
    """Return True if normalised ``keyword`` occurs as a token of ``text``.

    The keyword is expected to be already normalised (via
    :func:`normalize_token`); tag names and values are tokenised on the
    fly.  Matching is plural-insensitive in both directions, so the keyword
    ``stores`` matches the tag ``store`` and vice versa.
    """
    keyword = normalize_token(keyword)
    keyword_singular = singularize(keyword)
    for token in tokenize(text):
        if token == keyword or singularize(token) in (keyword, keyword_singular):
            return True
    return False
