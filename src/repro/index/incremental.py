"""Incremental maintenance of a :class:`~repro.index.builder.DocumentIndex`.

Re-registering an edited document rebuilds everything — schema inference,
classification, key mining, tokenisation of every text value, structure
index.  For the common case of *text-only* edits (same tree shape, same
tags, values changed) almost all of that work is redundant, and this
module applies the edit as a set of deltas instead:

* **inverted index** — per changed node, the index terms its old and new
  text disagree on become posting-level additions/removals
  (:meth:`~repro.index.inverted.InvertedIndex.apply_delta`); untouched
  terms keep sharing their posting lists with the previous index.
* **schema** — classification inputs (shape, tags, text *presence*) are
  unchanged by construction, so the schema summary is reused with only the
  per-path value counters patched.
* **entity keys** — key mining reads attribute values document-wide, so an
  edited attribute value can flip the mined key of exactly one entity
  type: its direct parent.  Only those entity paths are re-mined, by the
  same :class:`~repro.classify.keys.KeyMiner` as the full build, over the
  per-path lists of the tag-path column the edited tree adopted (not the
  whole tree).
* **structure index** — stores node positions, tag paths and categories
  only, none of which a text edit can move; the object is shared as-is.
* **feature table** — the analyzer's per-node feature ids (what snippet
  generation counts) exist only once a snippet was generated for the
  document; then they are carried as a copy with the edited nodes
  re-derived, one value normalisation per edit.
* **tree shape** — the edited tree has the old one's shape and tags, so it
  adopts the old tree's ``parent``/``level``/``size`` tables and tag-path
  column: every posting list
  the edit did not touch, every cached result root and every root-memo
  key names the same positions in both versions.

Everything is copy-on-write: the previous index keeps serving unchanged
while the update is being assembled, and the result is a fresh
:class:`DocumentIndex` whose observable behaviour is identical to a
from-scratch rebuild of the edited document — the incremental-update
property tests compare wire-level responses byte for byte.

Structural edits (node set, tags, attributes or text presence changed) are
out of scope by design: they can reclassify schema nodes, so callers
(:meth:`repro.corpus.Corpus.update_document`) fall back to a full rebuild.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace

from repro.classify.analyzer import DataAnalyzer
from repro.classify.categories import NodeCategory
from repro.classify.keys import KeyMiner
from repro.errors import IndexError_
from repro.index.builder import DocumentIndex
from repro.utils.text import iter_index_terms, normalize_value, singularize
from repro.xmltree.diff import TreeDiff
from repro.xmltree.schema import SchemaSummary, TagPath
from repro.xmltree.tree import XMLTree


@dataclass(frozen=True)
class IncrementalUpdate:
    """The outcome of applying a text-only edit to an existing index."""

    index: DocumentIndex
    #: ``pre`` ids of the nodes whose text changed (document order)
    changed_pres: tuple[int, ...]
    #: index terms whose posting lists changed (raw and singular forms)
    changed_terms: frozenset[str]
    #: entity paths whose keys were re-mined
    remined_entity_paths: tuple[TagPath, ...]
    #: True when a re-mined key now names a different attribute (or appeared /
    #: disappeared) — cached snippets may carry the old key and must go
    key_attributes_changed: bool

    def touches_keyword(self, keyword: str) -> bool:
        """Could the posting lists consulted for ``keyword`` have changed?

        Lookups consult the normalised keyword and its singular form (the
        index stores both forms of every token), so a cached entry is
        affected exactly when either form is among the changed terms.
        """
        return keyword in self.changed_terms or singularize(keyword) in self.changed_terms


def apply_text_update(
    old_index: DocumentIndex, new_tree: XMLTree, diff: TreeDiff
) -> IncrementalUpdate:
    """Apply a text-only :class:`TreeDiff` to ``old_index``.

    ``new_tree`` must be the tree ``diff`` was computed against; the
    returned index is built around it.  Raises :class:`IndexError_` when the
    diff is not text-only (callers decide the fallback, this module never
    guesses).
    """
    if not diff.is_text_only:
        raise IndexError_(
            "apply_text_update() requires a text-only diff; "
            f"got {diff!r} (structural edits need a full rebuild)"
        )

    old_tree = old_index.tree
    new_tree.adopt_shape(old_tree.shape)
    new_tree.adopt_paths(old_tree.paths)
    added, removed = _posting_deltas(diff)
    new_inverted = old_index.inverted.apply_delta(added, removed)

    old_analyzer = old_index.analyzer
    schema = _patched_schema(old_analyzer.schema, diff)

    affected = sorted(_affected_entity_paths(old_analyzer, diff))
    entity_types = dict(old_analyzer.entity_types)
    key_changed = False
    if affected:
        keys = KeyMiner(schema).mine(new_tree, affected)
        for entity_path in affected:
            old_entity = entity_types[entity_path]
            new_key = keys.get(entity_path)
            if _key_attribute(new_key) != _key_attribute(old_entity.key):
                key_changed = True
            entity_types[entity_path] = replace(
                old_entity, attribute_paths=list(old_entity.attribute_paths), key=new_key
            )

    changed_pres = tuple(edit.pre for edit in diff.text_edits)
    analyzer = old_analyzer.rebound_to_same_shape(new_tree, schema, entity_types, changed_pres)
    index = DocumentIndex(
        tree=new_tree,
        analyzer=analyzer,
        inverted=new_inverted,
        structure=old_index.structure,
    )
    return IncrementalUpdate(
        index=index,
        changed_pres=changed_pres,
        changed_terms=frozenset(added) | frozenset(removed),
        remined_entity_paths=tuple(affected),
        key_attributes_changed=key_changed,
    )


# ---------------------------------------------------------------------- #
# delta derivation
# ---------------------------------------------------------------------- #
def _posting_deltas(
    diff: TreeDiff,
) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """Per-term ``pre`` id additions/removals implied by the text edits.

    A node is indexed under its tag terms *and* its text terms; only terms
    the tag does not already contribute can actually appear or disappear
    when the text changes (the tag is untouched for text-only edits).
    """
    added: dict[str, set[int]] = defaultdict(set)
    removed: dict[str, set[int]] = defaultdict(set)
    for edit in diff.text_edits:
        tag_terms = set(iter_index_terms(edit.tag))
        old_terms = set(iter_index_terms(edit.old_text))
        new_terms = set(iter_index_terms(edit.new_text))
        for term in old_terms - new_terms - tag_terms:
            removed[term].add(edit.pre)
        for term in new_terms - old_terms - tag_terms:
            added[term].add(edit.pre)
    return dict(added), dict(removed)


def _patched_schema(old_schema: SchemaSummary, diff: TreeDiff) -> SchemaSummary:
    """The old schema with per-path value counters moved to the new texts.

    Shape, tags and text presence are untouched by a text-only diff, so
    instance counts, sibling maxima and classification inputs are reused;
    only ``value_counts`` of the edited paths changes — and only those
    :class:`SchemaNode` entries are copied, the rest stay shared (the old
    analyzer may still be serving in-flight requests).
    """
    nodes = dict(old_schema.nodes)
    patched: set[TagPath] = set()
    for edit in diff.text_edits:
        if edit.tag_path not in patched:
            patched.add(edit.tag_path)
            entry = nodes[edit.tag_path]
            nodes[edit.tag_path] = replace(entry, value_counts=Counter(entry.value_counts))
        counts = nodes[edit.tag_path].value_counts
        old_value = normalize_value(edit.old_text)
        new_value = normalize_value(edit.new_text)
        counts[old_value] -= 1
        if counts[old_value] <= 0:
            # Counter equality does not ignore zero entries; a fresh
            # inference never records them, so neither may the patch.
            del counts[old_value]
        counts[new_value] += 1
    schema = SchemaSummary(dtd=old_schema.dtd)
    schema.nodes = nodes
    return schema


def _affected_entity_paths(analyzer: DataAnalyzer, diff: TreeDiff) -> set[TagPath]:
    """Entity paths whose mined key can depend on an edited value.

    Key mining only reads the values of an entity's *direct* attribute
    children, so an edited node can affect exactly one entity path: its
    parent — and only when the edited path is attribute-classified.
    """
    affected: set[TagPath] = set()
    for edit in diff.text_edits:
        parent = edit.tag_path[:-1]
        if (
            parent in analyzer.entity_types
            and analyzer.categories.get(edit.tag_path) == NodeCategory.ATTRIBUTE
        ):
            affected.add(parent)
    return affected


def _key_attribute(key) -> TagPath | None:
    return key.attribute_path if key is not None else None
