"""Keyword query representation.

A keyword query is a flat bag of keywords ("Texas, apparel, retailer").
The IList is *initialised with the query keywords in their given order*
(§2), so the parsed query preserves order while de-duplicating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.utils.text import normalize_token, tokenize_query


@dataclass(frozen=True)
class KeywordQuery:
    """A parsed keyword query.

    >>> query = KeywordQuery.parse("Texas, apparel, retailer")
    >>> query.keywords
    ('texas', 'apparel', 'retailer')
    >>> "TEXAS" in query
    True
    """

    raw: str
    keywords: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, text: str) -> "KeywordQuery":
        """Parse raw query text into normalised keywords.

        Raises :class:`QueryError` when no usable keyword remains (empty
        string, only punctuation or only stop words).
        """
        if not isinstance(text, str):
            raise QueryError(f"query must be a string, got {type(text).__name__}")
        keywords = tuple(tokenize_query(text))
        if not keywords:
            raise QueryError(f"query {text!r} contains no searchable keyword")
        return cls(raw=text, keywords=keywords)

    @classmethod
    def from_keywords(cls, keywords: list[str] | tuple[str, ...]) -> "KeywordQuery":
        """Build a query from an already tokenised keyword list."""
        normalised: list[str] = []
        seen: set[str] = set()
        for keyword in keywords:
            token = normalize_token(str(keyword).strip().lower())
            if token and token not in seen:
                seen.add(token)
                normalised.append(token)
        if not normalised:
            raise QueryError("from_keywords() received no usable keyword")
        return cls(raw=" ".join(keywords), keywords=tuple(normalised))

    @property
    def size(self) -> int:
        return len(self.keywords)

    @staticmethod
    def share(parsed: "list[KeywordQuery] | tuple[KeywordQuery, ...]") -> "list[KeywordQuery]":
        """Share one object among queries normalising to the same keyword
        tuple (first occurrence wins; keyword *order* is part of the
        identity because the IList preserves it).

        This is the batch executor's parse-once rule
        (:meth:`repro.api.SnippetService.run_batch`).
        """
        by_keywords: dict[tuple[str, ...], KeywordQuery] = {}
        return [by_keywords.setdefault(query.keywords, query) for query in parsed]

    def __contains__(self, keyword: str) -> bool:
        return normalize_token(keyword.lower()) in self.keywords

    def __iter__(self):
        return iter(self.keywords)

    def __str__(self) -> str:
        return ", ".join(self.keywords)
