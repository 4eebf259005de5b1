"""The whole-tree index build, frozen as the differential oracle.

This is how schema inference, key mining, node binding and the two index
builds read a document before they read the tag-path column
(:attr:`repro.xmltree.tree.XMLTree.paths`): every node's tag path rebuilt by
walking its ancestors, one whole-tree scan per entity type, the first
attribute child found by ``find_child``, every tag and value tokenised
where it occurs.  It is slow on purpose and must not be "improved": the
column build is held equal to it by
``tests/property/test_property_build_columns.py``.

Only :class:`SchemaSummary` / :class:`SchemaNode` (plain containers),
``classify_schema`` / ``entity_paths`` / ``attribute_paths_of`` (per-path
rules the column change does not touch) and the text functions are shared
with ``src/``.
"""

from __future__ import annotations

from array import array
from collections import Counter

from repro.classify.analyzer import EntityType
from repro.classify.categories import (
    NodeCategory,
    attribute_paths_of,
    classify_schema,
    entity_paths,
)
from repro.classify.keys import MIN_COVERAGE, KeyInfo, _name_preference
from repro.utils.text import iter_index_terms, normalize_value
from repro.xmltree.dtd import DTD
from repro.xmltree.schema import SchemaNode, SchemaSummary, TagPath
from repro.xmltree.tree import XMLTree

_CODES = {NodeCategory.CONNECTION: 0, NodeCategory.ATTRIBUTE: 1, NodeCategory.ENTITY: 2}


def reference_schema(tree: XMLTree, dtd: DTD | None = None) -> SchemaSummary:
    """``infer_schema`` as a per-node walk over ``XMLNode.tag_path``."""
    summary = SchemaSummary(dtd=dtd)
    for node in tree.iter_nodes():
        path = node.tag_path
        entry = summary.nodes.get(path)
        if entry is None:
            entry = SchemaNode(tag_path=path, tag=node.tag)
            summary.nodes[path] = entry
        entry.instance_count += 1
        if node.has_text_value:
            entry.with_text += 1
            entry.value_counts[normalize_value(node.text or "")] += 1
        if node.children:
            entry.with_element_children += 1
        for child in node.children:
            entry.child_paths.add(child.tag_path)
        sibling_counts = Counter(child.tag for child in node.children)
        for child_tag, count in sibling_counts.items():
            child_path = path + (child_tag,)
            child_entry = summary.nodes.get(child_path)
            if child_entry is None:
                child_entry = SchemaNode(tag_path=child_path, tag=child_tag)
                summary.nodes[child_path] = child_entry
            if count > child_entry.max_siblings_per_parent:
                child_entry.max_siblings_per_parent = count
    return summary


def _find_by_tag_path(tree: XMLTree, tag_path: TagPath) -> list:
    return [node for node in tree.iter_nodes() if node.tag_path == tag_path]


def reference_key(schema: SchemaSummary, tree: XMLTree, entity_path: TagPath) -> KeyInfo | None:
    """``KeyMiner.mine_entity`` over a whole-tree scan and ``find_child``."""
    candidates = attribute_paths_of(schema, entity_path)
    if not candidates:
        return None
    dtd = schema.dtd
    dtd_ids = set(dtd.id_attributes(entity_path[-1])) if dtd is not None else set()
    entity_instances = _find_by_tag_path(tree, entity_path)
    if not entity_instances:
        return None
    scored = []
    for order, attribute_path in enumerate(candidates):
        attribute_tag = attribute_path[-1]
        values = []
        present = 0
        for entity in entity_instances:
            child = entity.find_child(attribute_tag)
            if child is not None and child.has_text_value:
                present += 1
                values.append(normalize_value(child.text or ""))
        if present == 0:
            continue
        coverage = present / len(entity_instances)
        uniqueness = len(set(values)) / len(values)
        from_dtd = attribute_tag in dtd_ids
        if not from_dtd and coverage < MIN_COVERAGE:
            continue
        if not from_dtd and uniqueness < 1.0:
            continue
        score = (1.0 if from_dtd else 0.0, _name_preference(attribute_tag), coverage, -float(order))
        scored.append(
            (
                score,
                KeyInfo(
                    entity_path=entity_path,
                    attribute_path=attribute_path,
                    coverage=coverage,
                    uniqueness=uniqueness,
                    from_dtd=from_dtd,
                ),
            )
        )
    if not scored:
        return None
    scored.sort(key=lambda item: item[0], reverse=True)
    return scored[0][1]


def reference_entity_types(schema: SchemaSummary, tree: XMLTree) -> dict[TagPath, EntityType]:
    return {
        path: EntityType(
            tag_path=path,
            tag=path[-1],
            instance_count=schema.node_for(path).instance_count,
            attribute_paths=attribute_paths_of(schema, path),
            key=reference_key(schema, tree, path),
        )
        for path in entity_paths(schema)
    }


def reference_node_tables(tree: XMLTree, categories: dict) -> tuple[bytes, list[int]]:
    """Per node, by ``pre``: its category code and the ``pre`` of its
    owning entity (``-1`` for none), each node classified by its own tag
    path and owned by its nearest ancestor-or-self entity."""
    codes = bytearray()
    owners = []
    for node in tree.nodes_by_pre:
        codes.append(_CODES[categories.get(node.tag_path, NodeCategory.CONNECTION)])
        owner = -1
        for candidate in node.iter_ancestors(include_self=True):
            if categories.get(candidate.tag_path) == NodeCategory.ENTITY:
                owner = candidate.pre
                break
        owners.append(owner)
    return bytes(codes), owners


def reference_structure(tree: XMLTree) -> dict[TagPath, list[int]]:
    """Tag path → the ``pre`` ids of its instances, node by node."""
    by_path: dict[TagPath, list[int]] = {}
    for pre, node in enumerate(tree.nodes_by_pre):
        by_path.setdefault(node.tag_path, []).append(pre)
    return by_path


def reference_postings(tree: XMLTree) -> dict[str, array]:
    """Term → ``pre`` ids, every node's tag and text tokenised where it
    occurs; the dict's order is the order terms were first met."""
    accumulator: dict[str, array] = {}
    for pre, node in enumerate(tree.nodes_by_pre):
        terms = iter_index_terms(node.tag)
        if node.text:
            terms = (*terms, *iter_index_terms(node.text))
        for term in terms:
            ids = accumulator.get(term)
            if ids is None:
                accumulator[term] = array("I", (pre,))
            elif ids[-1] != pre:
                ids.append(pre)
    return accumulator


def reference_analysis(tree: XMLTree, dtd: DTD | None = None) -> dict:
    """Everything the oracle computes for one document, by name."""
    schema = reference_schema(tree, dtd)
    categories = classify_schema(schema)
    codes, owners = reference_node_tables(tree, categories)
    return {
        "schema": schema,
        "categories": categories,
        "entity_types": reference_entity_types(schema, tree),
        "codes": codes,
        "owners": owners,
        "structure": reference_structure(tree),
        "postings": reference_postings(tree),
    }
