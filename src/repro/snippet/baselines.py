"""Baseline snippet generators used in the evaluation.

The demo compares eXtract with the snippets Google Desktop produces for the
same XML files (§4): a text search engine "ignores XML tags and all
structural information".  The companion evaluation additionally needs
structure-aware but naive baselines.  Four baselines are provided:

* :class:`TextWindowSnippetGenerator` — the Google-Desktop stand-in: the
  result's text is flattened, and a window of words around the first
  keyword occurrences is returned.  Produces a :class:`TextSnippet`
  (plain text, no tree).
* :class:`FirstEdgesSnippetGenerator` — takes the first *B* edges of the
  result subtree in document order (what a system without an IList would
  show).
* :class:`RawFrequencySnippetGenerator` — identical pipeline to eXtract
  but ranks features by raw occurrence count instead of dominance score
  (the §2.3 ablation, experiment A1).
* :class:`RandomSubtreeSnippetGenerator` — adds random result nodes until
  the bound is reached; a sanity-check lower bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.classify.analyzer import DataAnalyzer
from repro.errors import InvalidSizeBoundError
from repro.search.query import KeywordQuery
from repro.search.results import QueryResult
from repro.snippet.generator import GeneratedSnippet
from repro.snippet.ilist import IList, IListBuilder, IListItem, ItemKind
from repro.snippet.instance_selector import GreedyInstanceSelector
from repro.snippet.snippet_tree import Snippet
from repro.utils.text import normalize_token, tokenize


# ---------------------------------------------------------------------- #
# text-window baseline ("Google Desktop" stand-in)
# ---------------------------------------------------------------------- #
@dataclass
class TextSnippet:
    """A flat text snippet (no structure), like a text search engine's."""

    result: QueryResult
    text: str
    window_words: int

    @property
    def word_count(self) -> int:
        return len(self.text.split())

    def __repr__(self) -> str:
        return f"<TextSnippet words={self.word_count} {self.text[:40]!r}...>"


class TextWindowSnippetGenerator:
    """Flattens the result to text and keeps windows around keyword hits.

    The size bound is interpreted as a *word* budget: an XML snippet of
    ``B`` edges shows about ``B`` tag/value pairs, so the same number of
    words keeps the comparison with eXtract honest.
    """

    def __init__(self, words_per_window: int = 8):
        self.words_per_window = words_per_window

    def generate(
        self, result: QueryResult, size_bound: int, query: KeywordQuery | None = None
    ) -> TextSnippet:
        if size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)
        effective_query = query or result.query
        words = tokenize(result.text_content())
        keywords = {normalize_token(keyword) for keyword in effective_query.keywords}

        hit_positions = [
            position for position, word in enumerate(words) if normalize_token(word) in keywords
        ]
        budget = size_bound
        pieces: list[str] = []
        used: set[int] = set()
        for position in hit_positions:
            if budget <= 0:
                break
            half = self.words_per_window // 2
            start = max(0, position - half)
            end = min(len(words), position + half + 1)
            window = [words[i] for i in range(start, end) if i not in used]
            used.update(range(start, end))
            if not window:
                continue
            take = window[:budget]
            budget -= len(take)
            pieces.append(" ".join(take))
        if not pieces:
            take = words[:size_bound]
            pieces.append(" ".join(take))
        return TextSnippet(result=result, text=" ... ".join(pieces), window_words=self.words_per_window)


def _items_inside(ilist: IList, snippet: Snippet) -> list[IListItem]:
    """Coverage re-attributed in terms of the real IList, so quality
    metrics compare like with like: an item counts as covered when one of
    its instances happens to be inside the snippet."""
    return [
        item
        for item in ilist
        if item.has_instances and any(snippet.contains(pre) for pre in item.instances)
    ]


# ---------------------------------------------------------------------- #
# first-K-edges baseline
# ---------------------------------------------------------------------- #
class FirstEdgesSnippetGenerator:
    """Shows the first ``size_bound`` edges of the result in document order."""

    def __init__(self, analyzer: DataAnalyzer):
        self.analyzer = analyzer
        self._ilist_builder = IListBuilder(analyzer)

    def generate(
        self, result: QueryResult, size_bound: int, query: KeywordQuery | None = None
    ) -> GeneratedSnippet:
        if size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)
        effective_query = query or result.query
        ilist = self._ilist_builder.build(effective_query, result)
        snippet = Snippet(result)
        for node in result.iter_nodes():
            if node is result.root_node:
                continue
            if snippet.size_edges + snippet.cost_of(node.pre) > size_bound:
                break
            item = IListItem(
                kind=ItemKind.ENTITY_NAME,
                text=node.tag,
                identity=f"first-edges:{node.dewey}",
                instances=[node.pre],
            )
            snippet.add_instance(item, node.pre)
        snippet.covered_items = _items_inside(ilist, snippet)
        return GeneratedSnippet(result=result, ilist=ilist, snippet=snippet, size_bound=size_bound)


# ---------------------------------------------------------------------- #
# raw-frequency ablation baseline
# ---------------------------------------------------------------------- #
class _RawFrequencyIListBuilder(IListBuilder):
    """IList builder that ranks features by raw count, not dominance score."""

    def _feature_items(self, result, statistics):  # type: ignore[override]
        scored = self.dominant_identifier.score_all(result, statistics)
        # Raw-frequency ranking: order by N(e, a, v) alone and keep the same
        # number of feature items as the dominance-based IList would, so the
        # two pipelines only differ in *which* features they consider
        # important — the ablation the experiment A1 isolates.
        dominant_count = sum(1 for item in scored if statistics.is_dominant(item.feature))
        by_count = sorted(scored, key=lambda item: (-item.value_count, str(item.feature)))
        chosen = by_count[:dominant_count] if dominant_count else by_count[: len(by_count)]
        return [
            IListItem(
                kind=ItemKind.DOMINANT_FEATURE,
                text=item.display_value,
                identity=item.feature.value,
                instances=list(item.instances),
                score=float(item.value_count),
                feature=item,
            )
            for item in chosen
        ]


class RawFrequencySnippetGenerator:
    """eXtract pipeline with raw-frequency feature ranking (ablation A1)."""

    def __init__(self, analyzer: DataAnalyzer):
        self.analyzer = analyzer
        self._ilist_builder = _RawFrequencyIListBuilder(analyzer)
        self._selector = GreedyInstanceSelector()

    def build_ilist(self, result: QueryResult, query: KeywordQuery | None = None) -> IList:
        return self._ilist_builder.build(query or result.query, result)

    def generate(
        self, result: QueryResult, size_bound: int, query: KeywordQuery | None = None
    ) -> GeneratedSnippet:
        if size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)
        ilist = self.build_ilist(result, query)
        snippet = self._selector.select(result, ilist, size_bound)
        return GeneratedSnippet(result=result, ilist=ilist, snippet=snippet, size_bound=size_bound)


# ---------------------------------------------------------------------- #
# random baseline
# ---------------------------------------------------------------------- #
class RandomSubtreeSnippetGenerator:
    """Adds random result nodes until the bound is reached (sanity floor)."""

    def __init__(self, analyzer: DataAnalyzer, seed: int = 0):
        self.analyzer = analyzer
        self._ilist_builder = IListBuilder(analyzer)
        self._seed = seed

    def generate(
        self, result: QueryResult, size_bound: int, query: KeywordQuery | None = None
    ) -> GeneratedSnippet:
        if size_bound <= 0:
            raise InvalidSizeBoundError(size_bound)
        effective_query = query or result.query
        ilist = self._ilist_builder.build(effective_query, result)
        rng = random.Random(self._seed + result.result_id)
        snippet = Snippet(result)
        nodes = [node for node in result.iter_nodes() if node is not result.root_node]
        rng.shuffle(nodes)
        for node in nodes:
            if snippet.size_edges >= size_bound:
                break
            if snippet.size_edges + snippet.cost_of(node.pre) > size_bound:
                continue
            item = IListItem(
                kind=ItemKind.ENTITY_NAME,
                text=str(node.dewey),
                identity=f"random:{node.dewey}",
                instances=[node.pre],
            )
            snippet.add_instance(item, node.pre)
        snippet.covered_items = _items_inside(ilist, snippet)
        return GeneratedSnippet(result=result, ilist=ilist, snippet=snippet, size_bound=size_bound)
