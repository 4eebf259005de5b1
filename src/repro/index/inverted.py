"""Keyword inverted index over an XML document.

Each node is indexed under:

* the tokens of its tag name (so the query keyword ``retailer`` matches
  ``<retailer>`` elements), and
* the tokens of its own text value (so ``Texas`` matches
  ``<state>Texas</state>``).

Tokens are additionally indexed under their singular form (``stores`` →
``store``) so that the Figure 5 query "store texas" behaves the same
regardless of pluralisation.  Lookups return :class:`PostingList` objects
of the *matching nodes themselves* (their ``pre`` ids); keyword-search
semantics that require ancestor propagation (ELCA) derive what they need
from the tree's ``parent`` table.
"""

from __future__ import annotations

from array import array

from repro.errors import IndexNotBuiltError
from repro.index.postings import PostingList
from repro.utils.text import iter_index_terms, normalize_token, singularize
from repro.xmltree.tree import TreeShape, XMLTree


class InvertedIndex:
    """keyword → posting list of the matching nodes' ``pre`` ids."""

    def __init__(self) -> None:
        self._postings: dict[str, PostingList] = {}
        #: the shape of the indexed tree — what every posting list indexes
        self._shape: TreeShape | None = None
        self._built = False

    @property
    def indexed_nodes(self) -> int:
        """Number of nodes of the indexed document, however the index was
        obtained (built, loaded, updated)."""
        return len(self._shape.size) if self._shape is not None else 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, tree: XMLTree) -> "InvertedIndex":
        """Index every node of ``tree``; returns ``self`` for chaining.

        Nodes are visited in document order, so every term's list is
        appended in ascending ``pre`` and never sorted.  Tags and values
        repeat, so a node's terms — its tag's, then its text's, each once —
        are computed once per distinct ``(tag, text)`` pair, from each
        distinct tag and text tokenised once.
        """
        accumulator: dict[str, array[int]] = {}
        tag_terms: dict[str, tuple[str, ...]] = {}
        text_terms: dict[str, tuple[str, ...]] = {}
        node_terms: dict[tuple[str, str | None], tuple[str, ...]] = {}
        for pre, node in enumerate(tree.nodes_by_pre):
            key = (node.tag, node.text)
            terms = node_terms.get(key)
            if terms is None:
                terms = _memoised_terms(tag_terms, node.tag)
                if node.text:
                    terms += _memoised_terms(text_terms, node.text)
                terms = node_terms[key] = tuple(dict.fromkeys(terms))
            for term in terms:
                ids = accumulator.get(term)
                if ids is None:
                    accumulator[term] = array("I", (pre,))
                else:
                    ids.append(pre)
        shape = tree.shape
        self._postings = {
            term: PostingList._trusted(shape, ids) for term, ids in accumulator.items()
        }
        self._shape = shape
        self._built = True
        return self

    @classmethod
    def from_postings(
        cls, shape: TreeShape, postings: dict[str, PostingList]
    ) -> "InvertedIndex":
        """Reconstruct the index of the tree with ``shape`` from stored
        posting lists."""
        index = cls()
        index._postings = dict(postings)
        index._shape = shape
        index._built = True
        return index

    def apply_delta(
        self,
        added: dict[str, set[int]],
        removed: dict[str, set[int]],
    ) -> "InvertedIndex":
        """A new index with posting-level deltas applied (``self`` untouched).

        ``added``/``removed`` map index terms to the ``pre`` ids gaining/losing
        that term.  Only the touched terms get new :class:`PostingList`
        objects; every other term shares its list with this index, so the
        cost of an update scales with the *edit*, not with the vocabulary.
        Terms whose last id is removed drop out of the vocabulary —
        exactly what a from-scratch :meth:`build` of the edited document
        would produce.

        The original index keeps serving unchanged (copy-on-write): in-
        flight readers hold either the old or the new object, never a
        half-updated one.
        """
        self._ensure_built()
        postings = dict(self._postings)
        for term in set(added) | set(removed):
            base = postings.get(term) or PostingList(self._shape)
            updated = base.with_changes(
                added=added.get(term, ()), removed=removed.get(term, ())
            )
            if updated.is_empty:
                postings.pop(term, None)
            else:
                postings[term] = updated
        # Text edits touch values, not the node set: the edited document
        # has this one's shape by construction (structural edits take the
        # full-rebuild path instead).
        return InvertedIndex.from_postings(self._shape, postings)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def lookup(self, keyword: str) -> PostingList:
        """Posting list of the (normalised) keyword; empty if unseen.

        The raw lower-cased form and its singular form are both consulted,
        because nodes are indexed under both: the query keyword ``stores``
        therefore matches ``<store>`` elements and vice versa.
        """
        self._ensure_built()
        token = normalize_token(keyword)
        forms = {token, singularize(token)}
        found = [self._postings[form] for form in forms if form in self._postings]
        if not found:
            return PostingList(self._shape)
        if len(found) == 1:
            return found[0]
        return PostingList.union_all(found)

    def contains_term(self, keyword: str) -> bool:
        self._ensure_built()
        token = normalize_token(keyword)
        return token in self._postings or singularize(token) in self._postings

    @property
    def vocabulary(self) -> list[str]:
        """All indexed terms, sorted."""
        self._ensure_built()
        return sorted(self._postings)

    @property
    def vocabulary_size(self) -> int:
        self._ensure_built()
        return len(self._postings)

    def document_frequency(self, keyword: str) -> int:
        """Number of nodes matching the keyword."""
        return len(self.lookup(keyword))

    def postings_dict(self) -> dict[str, PostingList]:
        """The raw term → posting list mapping (for storage)."""
        self._ensure_built()
        return dict(self._postings)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("InvertedIndex used before build() was called")

    def __repr__(self) -> str:
        status = f"terms={len(self._postings)}" if self._built else "unbuilt"
        return f"<InvertedIndex {status}>"


def _memoised_terms(memo: dict[str, tuple[str, ...]], text: str) -> tuple[str, ...]:
    terms = memo.get(text)
    if terms is None:
        terms = memo[text] = tuple(iter_index_terms(text))
    return terms
