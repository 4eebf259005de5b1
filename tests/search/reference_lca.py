"""The label-based search path, frozen — a test-only oracle.

Until the search engine moved to ``pre`` ids, posting lists held sorted
:class:`~repro.xmltree.dewey.Dewey` labels and SLCA / ELCA, result
construction and ranking compared, hashed and sliced those labels.  This
module is that code as it stood (posting list, Indexed-Lookup SLCA,
candidate-sweep ELCA, XSeek construction, the score formula), minus the
optional pre/post span table — the Dewey prefix walk gives the same
answers — plus the few lines of index build and lookup needed to get label
posting lists straight from a tree.  Nothing under ``src/`` imports it:
the differential suites hold the int implementation to it (same roots,
same matches per keyword, same scores, same rank order).

It reads the tree through labels only (``node.dewey``, ``tree.node``,
``extract_projection``), which stay public on the int side.  The label
helpers only this path ever called — :func:`remove_ancestors`,
:func:`common_ancestor_of_all` — live here with it.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.classify.analyzer import DataAnalyzer
from repro.utils.text import iter_index_terms, normalize_token, singularize
from repro.errors import DeweyError
from repro.xmltree.dewey import Dewey
from repro.xmltree.tree import XMLTree


# ---------------------------------------------------------------------- #
# label helpers
# ---------------------------------------------------------------------- #
def remove_ancestors(labels: Iterable[Dewey]) -> list[Dewey]:
    """Keep only labels that have no descendant in the collection."""
    ordered = sorted(set(labels))
    kept: list[Dewey] = []
    for label in ordered:
        while kept and kept[-1].is_ancestor_or_self(label) and kept[-1] != label:
            kept.pop()
        kept.append(label)
    # A label may still be an ancestor of a later one only if they were
    # adjacent; the pass above removes those, so the result is antichain.
    return kept


def common_ancestor_of_all(labels: Iterable[Dewey]) -> Dewey:
    """Lowest common ancestor of a non-empty collection of labels."""
    iterator = iter(labels)
    try:
        result = next(iterator)
    except StopIteration as exc:
        raise DeweyError("common_ancestor_of_all() requires at least one label") from exc
    for label in iterator:
        result = Dewey.common_ancestor(result, label)
        if result.is_root:
            break
    return result


class LabelPostingList:
    """A sorted, de-duplicated list of Dewey labels."""

    def __init__(self, labels: Iterable[Dewey] = ()):
        self._labels: list[Dewey] = sorted(set(labels))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    @property
    def labels(self) -> list[Dewey]:
        return list(self._labels)

    @property
    def is_empty(self) -> bool:
        return not self._labels

    def left_neighbour(self, label: Dewey) -> Dewey | None:
        position = bisect.bisect_right(self._labels, label)
        return self._labels[position - 1] if position else None

    def right_neighbour(self, label: Dewey) -> Dewey | None:
        position = bisect.bisect_left(self._labels, label)
        return self._labels[position] if position < len(self._labels) else None

    def closest_match(self, label: Dewey) -> Dewey | None:
        """The neighbour with the deeper LCA; ties go to the left one."""
        left = self.left_neighbour(label)
        right = self.right_neighbour(label)
        if left is None:
            return right
        if right is None:
            return left
        left_depth = Dewey.common_ancestor(left, label).depth
        right_depth = Dewey.common_ancestor(right, label).depth
        if left_depth == right_depth:
            return left
        return left if left_depth > right_depth else right

    def has_descendant_of(self, ancestor: Dewey) -> bool:
        position = bisect.bisect_left(self._labels, ancestor)
        return position < len(self._labels) and ancestor.is_ancestor_or_self(
            self._labels[position]
        )

    def descendants_of(self, ancestor: Dewey) -> list[Dewey]:
        result: list[Dewey] = []
        position = bisect.bisect_left(self._labels, ancestor)
        while position < len(self._labels):
            label = self._labels[position]
            if not ancestor.is_ancestor_or_self(label):
                break
            result.append(label)
            position += 1
        return result


# ---------------------------------------------------------------------- #
# index build and lookup, by label
# ---------------------------------------------------------------------- #
def reference_postings(tree: XMLTree, keyword: str) -> LabelPostingList:
    """The nodes ``keyword`` matches: a node is indexed under the terms of
    its tag and of its text, and a lookup consults the normalised keyword
    and its singular form."""
    token = normalize_token(keyword)
    forms = {token, singularize(token)}
    labels = []
    for node in tree.iter_nodes():
        terms = set(iter_index_terms(node.tag))
        if node.has_text_value:
            terms.update(iter_index_terms(node.text or ""))
        if terms & forms:
            labels.append(node.dewey)
    return LabelPostingList(labels)


# ---------------------------------------------------------------------- #
# SLCA (Indexed Lookup) and ELCA (candidate sweep)
# ---------------------------------------------------------------------- #
def reference_slca(posting_lists: Sequence[LabelPostingList]) -> list[Dewey]:
    if not posting_lists or any(postings.is_empty for postings in posting_lists):
        return []
    if len(posting_lists) == 1:
        return remove_ancestors(posting_lists[0].labels)

    ordered = sorted(posting_lists, key=len)
    anchor_list, others = ordered[0], ordered[1:]
    candidates: list[Dewey] = []
    for anchor in anchor_list:
        current = anchor
        for postings in others:
            closest = postings.closest_match(current)
            current = Dewey.common_ancestor(current, closest)
            if current.is_root:
                break
        candidates.append(current)
    slcas = remove_ancestors(candidates)
    return [
        label
        for label in slcas
        if all(postings.has_descendant_of(label) for postings in posting_lists)
    ]


def reference_elca(posting_lists: Sequence[LabelPostingList]) -> list[Dewey]:
    if not posting_lists or any(postings.is_empty for postings in posting_lists):
        return []
    if len(posting_lists) == 1:
        return list(posting_lists[0])

    closure: set[Dewey] | None = None
    for postings in posting_lists:
        keyword_closure: set[Dewey] = set()
        for label in postings:
            keyword_closure.update(label.ancestors(include_self=True))
        closure = keyword_closure if closure is None else closure & keyword_closure
    ordered = sorted(closure or ())

    elcas: list[Dewey] = []
    for index, candidate in enumerate(ordered):
        blocking: list[Dewey] = []
        for label in ordered[index + 1 :]:
            if not candidate.is_ancestor_of(label):
                break
            if blocking and blocking[-1].is_ancestor_or_self(label):
                continue
            blocking.append(label)
        if all(
            any(
                not any(block.is_ancestor_or_self(match) for block in blocking)
                for match in postings.descendants_of(candidate)
            )
            for postings in posting_lists
        ):
            elcas.append(candidate)
    return elcas


# ---------------------------------------------------------------------- #
# result construction and ranking
# ---------------------------------------------------------------------- #
@dataclass
class ReferenceResult:
    """What a ranked query result is made of, in labels."""

    root: Dewey
    matches: dict[str, tuple[Dewey, ...]]
    size_nodes: int
    score: float = 0.0


def reference_results(
    tree: XMLTree,
    analyzer: DataAnalyzer,
    keywords: Sequence[str],
    roots: Sequence[Dewey],
    postings: dict[str, LabelPostingList],
    construction: str,
) -> list[ReferenceResult]:
    """One result per distinct (entity-promoted, for ``xseek``) root, its
    matches cut out of the keyword posting lists; construction order."""
    results: list[ReferenceResult] = []
    seen: set[Dewey] = set()
    for root in roots:
        if construction == "xseek":
            owning = analyzer.owning_entity(tree.node(root))
            if owning is not None:
                root = owning.dewey
        if root in seen:
            continue
        seen.add(root)
        matches = {
            keyword: tuple(postings[keyword].descendants_of(root)) for keyword in keywords
        }
        if construction == "match_paths":
            labels = sorted({label for found in matches.values() for label in found})
            projection, _ = tree.extract_projection((labels or [root]) + [root])
            size = projection.size_nodes
        else:
            size = tree.node(root).subtree_size_nodes()
        results.append(ReferenceResult(root=root, matches=matches, size_nodes=size))
    return results


def reference_score(result: ReferenceResult, keyword_count: int) -> float:
    """Coverage · 10 + proximity · 2 + specificity (the weights of
    :mod:`repro.search.ranking` at the freeze)."""
    matched = sum(1 for labels in result.matches.values() if labels)
    coverage = matched / max(1, keyword_count)

    proximity = 0.0
    labels = sorted({label for found in result.matches.values() for label in found})
    if len(labels) >= 2:
        lca = common_ancestor_of_all(labels)
        span = max(label.depth - lca.depth for label in labels)
        proximity = 1.0 / (1.0 + span)
    elif len(labels) == 1:
        proximity = 1.0

    specificity = 1.0 / (1.0 + math.log1p(max(1, result.size_nodes)))
    return 10.0 * coverage + 2.0 * proximity + 1.0 * specificity


def reference_search(
    tree: XMLTree,
    analyzer: DataAnalyzer,
    keywords: Sequence[str],
    algorithm: str = "slca",
    construction: str = "xseek",
) -> list[ReferenceResult]:
    """The whole label path: lookup, roots, construction, stable ranking."""
    postings = {keyword: reference_postings(tree, keyword) for keyword in keywords}
    lists = [postings[keyword] for keyword in keywords]
    roots = reference_slca(lists) if algorithm == "slca" else reference_elca(lists)
    results = reference_results(tree, analyzer, keywords, roots, postings, construction)
    for result in results:
        result.score = reference_score(result, len(keywords))
    return sorted(results, key=lambda result: -result.score)
