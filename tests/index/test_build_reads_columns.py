"""The index build reads each node once and each distinct string once.

Schema inference, classification, key mining and both indexes read the
tree's tag-path column (``XMLTree.paths``), so building an index or loading
a v4 snapshot never rebuilds a node's tag path by walking its ancestors and
never looks an attribute up among an entity's children.  Values and index
terms repeat across a document, so each distinct raw text is normalised
once and each distinct tag and text tokenised once.  A text-only update
re-mines an entity's key over the column the edited tree adopted.
Counting wrappers, not timings, as in
``tests/snippet/test_recomputation_off_hot_path.py``.
"""

from __future__ import annotations

import sys

import pytest

from repro.index.builder import IndexBuilder
from repro.index.incremental import apply_text_update
from repro.index.storage import load_index, save_index
from repro.utils import text as text_module
from repro.xmltree.diff import clone_tree, diff_trees
from repro.xmltree.dtd import parse_dtd
from repro.xmltree.node import XMLNode
from tests.property.test_property_node_tables import SHAPES

DTD_TEXT = "<!ELEMENT retailer (name, product, store*)><!ATTLIST store name ID #REQUIRED>"


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the routes an index build must not take per node."""
    counts: dict[str, int] = {}

    def counting(key, function):
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        XMLNode, "tag_path", property(counting("tag_path", XMLNode.tag_path.fget))
    )
    monkeypatch.setattr(XMLNode, "find_child", counting("find_child", XMLNode.find_child))
    # the text functions are bound by name wherever they were imported
    for name in ("normalize_value", "iter_index_terms"):
        original = getattr(text_module, name)
        counted = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def reset(calls) -> None:
    for name in calls:
        calls[name] = 0


def distinct_strings(tree) -> tuple[int, int]:
    """(distinct tags, distinct non-empty texts) of a document."""
    nodes = tree.nodes_by_pre
    return len({node.tag for node in nodes}), len({node.text for node in nodes if node.text})


def documents():
    for shape in sorted(SHAPES):
        yield pytest.param(shape, None, id=shape)
    yield pytest.param("retail-wide", DTD_TEXT, id="retail-wide+dtd")


@pytest.mark.parametrize("shape, dtd_text", documents())
def test_build_and_load_read_the_columns(shape, dtd_text, calls, tmp_path):
    tree = SHAPES[shape]()
    dtd = parse_dtd(dtd_text) if dtd_text else None
    tags, texts = distinct_strings(tree)
    reset(calls)

    index = IndexBuilder(dtd=dtd).build(tree)

    assert index.analyzer.entity_types  # the build had keys to mine
    assert calls["tag_path"] == 0
    assert calls["find_child"] == 0
    assert 0 < calls["normalize_value"] <= texts
    assert 0 < calls["iter_index_terms"] <= tags + texts

    save_index(index, tmp_path)
    reset(calls)
    loaded = load_index(tmp_path)
    assert loaded.analyzer._node_codes == index.analyzer._node_codes
    assert calls == dict.fromkeys(calls, 0)


def test_the_text_only_key_remine_reads_the_adopted_column(calls):
    tree = SHAPES["retail-wide"]()
    index = IndexBuilder().build(tree)
    store = ("commerce", "retailer", "store")
    assert index.analyzer.entity_types[store].key.attribute_tag == "name"
    edited = clone_tree(tree)
    first_store = edited.nodes_by_pre[tree.paths.instances_of(store)[0]]
    first_store.children[0].text = "A Brand New Name"  # the store's key attribute

    reset(calls)
    update = apply_text_update(index, edited, diff_trees(tree, edited))

    assert update.remined_entity_paths == (store,)
    assert edited.paths is tree.paths  # adopted, not rebuilt
    assert calls["tag_path"] == 0 and calls["find_child"] == 0
    assert update.index.analyzer.entity_types[store].key.attribute_tag == "name"
