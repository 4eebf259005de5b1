"""Tests for ShardServer: update deltas and replica replication.

The replication contract: a replica that applies a primary's
:class:`ShardDelta` stream in order serves responses **byte-identical** to
the primary — text edits travel as node-level deltas through the same
incremental machinery, never as whole documents.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchRequest, UpdateRequest
from repro.cluster import ShardDelta, ShardServer
from repro.corpus import Corpus
from repro.errors import ClusterError, DeweyError
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string


def shard_pair() -> tuple[ShardServer, ShardServer]:
    """A primary and a replica bootstrapped from the same documents."""

    def build() -> ShardServer:
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        corpus.add_builtin("retail")
        return ShardServer(0, corpus=corpus)

    return build(), build()


def wire(shard: ShardServer, query: str, document: str) -> str:
    response = shard.service.run(
        SearchRequest(query=query, document=document, size_bound=6)
    )
    return json.dumps(response.to_dict(), sort_keys=True)


def edited_stores_xml(shard: ShardServer, old: str, new: str) -> str:
    tree = clone_tree(shard.corpus.system("stores").index.tree)
    changed = 0
    for node in tree.iter_nodes():
        if node.text == old:
            node.text = new
            changed += 1
    assert changed > 0
    return to_xml_string(tree)


class TestApplyUpdate:
    def test_text_edit_produces_node_level_delta(self):
        primary, _ = shard_pair()
        xml = edited_stores_xml(primary, "Texas", "Nevada")
        response, delta = primary.update(UpdateRequest(document="stores", xml=xml))
        assert response.incremental
        assert delta.kind == "update"
        assert delta.shard == 0
        assert delta.xml is None  # deltas, not documents
        assert len(delta.edits) == response.changed_nodes > 0

    def test_structural_edit_produces_replace_delta(self):
        primary, _ = shard_pair()
        tree = clone_tree(primary.corpus.system("stores").index.tree)
        tree.root.append_child(type(tree.root)("annex"))
        xml = to_xml_string(tree)
        response, delta = primary.update(UpdateRequest(document="stores", xml=xml))
        assert not response.incremental
        assert delta.kind == "replace"
        assert delta.xml == xml

    def test_new_document_produces_add_delta(self):
        primary, _ = shard_pair()
        response, delta = primary.update(
            UpdateRequest(document="fresh", xml="<root><a>hello</a></root>")
        )
        assert response.action == "added"
        assert delta.kind == "add"
        assert delta.document == "fresh"

    def test_remove_produces_tombstone(self):
        primary, _ = shard_pair()
        response, delta = primary.update(
            UpdateRequest(document="retail", action="remove")
        )
        assert response.action == "removed"
        assert delta == ShardDelta(shard=0, document="retail", kind="remove")


class TestReplication:
    def test_replica_matches_primary_after_text_delta(self):
        primary, replica = shard_pair()
        xml = edited_stores_xml(primary, "Texas", "Nevada")
        _, delta = primary.update(UpdateRequest(document="stores", xml=xml))
        replica.apply_delta(delta)
        for query in ("store texas", "store nevada", "store houston"):
            assert wire(primary, query, "stores") == wire(replica, query, "stores")

    def test_replica_matches_primary_after_mixed_stream(self):
        primary, replica = shard_pair()
        operations = [
            UpdateRequest(document="stores", xml=edited_stores_xml(primary, "Texas", "Utah")),
            UpdateRequest(document="extra", xml="<root><name>alpha beta</name></root>"),
            UpdateRequest(document="retail", action="remove"),
        ]
        deltas = [primary.update(request)[1] for request in operations]
        for delta in deltas:
            replica.apply_delta(delta)
        assert primary.names() == replica.names()
        for document in primary.names():
            for query in ("store utah", "alpha", "name beta"):
                assert wire(primary, query, document) == wire(replica, query, document)

    def test_delta_for_unknown_document_rejected(self):
        _, replica = shard_pair()
        with pytest.raises(ClusterError, match="unknown document"):
            replica.apply_delta(ShardDelta(shard=0, document="ghost", kind="remove"))
        with pytest.raises(ClusterError, match="unknown document"):
            replica.apply_delta(
                ShardDelta(shard=0, document="ghost", kind="update", edits=(("0", "x"),))
            )

    def test_delta_for_missing_node_rejected(self):
        _, replica = shard_pair()
        with pytest.raises(ClusterError) as raised:
            replica.apply_delta(
                ShardDelta(
                    shard=0, document="stores", kind="update",
                    edits=(("0.99.99", "nowhere"),),
                )
            )
        assert str(raised.value) == (
            "replication delta references missing node 0.99.99 "
            "in document 'stores' on shard 0"
        )
        # a label that does not parse keeps its own structured error
        with pytest.raises(DeweyError, match="malformed Dewey label text '0.x'"):
            replica.apply_delta(
                ShardDelta(shard=0, document="stores", kind="update", edits=(("0.x", "y"),))
            )

    def test_unknown_delta_kind_rejected(self):
        _, replica = shard_pair()
        with pytest.raises(ClusterError, match="unknown replication delta kind"):
            replica.apply_delta(ShardDelta(shard=0, document="stores", kind="mystery"))


class TestShardServer:
    def test_bad_shard_id_rejected(self):
        with pytest.raises(ClusterError):
            ShardServer(-1)
        with pytest.raises(ClusterError):
            ShardServer(True)

    def test_registry_views(self):
        shard, _ = shard_pair()
        assert "stores" in shard
        assert "ghost" not in shard
        assert len(shard) == 2
        assert shard.names() == ["retail", "stores"]
        assert "documents=2" in repr(shard)
