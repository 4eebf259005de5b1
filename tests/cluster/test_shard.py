"""Tests for ShardServer: update deltas and replica replication.

The replication contract: a replica that applies a primary's
:class:`ShardDelta` stream in order serves responses **byte-identical** to
the primary — text edits travel as node-level deltas through the same
incremental machinery, never as whole documents.  A delta exists only on
the primary→replica hop, so the tests take it where a coordinator does:
from the primary's ``apply-update`` answer.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchRequest, UpdateRequest
from repro.api.protocol import UpdateResponse, parse_response
from repro.cluster import ShardBackend, ShardDelta, ShardServer
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


def primary_update(
    primary: ShardServer, request: UpdateRequest
) -> tuple[UpdateResponse, ShardDelta]:
    """``request`` applied by ``primary`` as the ``apply-update`` op: the
    response and the delta a coordinator fans to the replicas."""
    answer = ShardBackend(primary).handle_replicate(
        {"op": "apply-update", "request": request.to_dict()}
    )
    return parse_response(answer["response"]), ShardDelta.from_wire(answer["delta"])


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
        response, delta = primary_update(primary, UpdateRequest(document="stores", xml=xml))
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
        response, delta = primary_update(primary, UpdateRequest(document="stores", xml=xml))
        assert not response.incremental
        assert delta.kind == "replace"
        assert delta.xml == xml

    def test_new_document_produces_add_delta(self):
        primary, _ = shard_pair()
        response, delta = primary_update(
            primary, UpdateRequest(document="fresh", xml="<root><a>hello</a></root>")
        )
        assert response.action == "added"
        assert delta.kind == "add"
        assert delta.document == "fresh"

    def test_remove_produces_tombstone(self):
        primary, _ = shard_pair()
        response, delta = primary_update(
            primary, UpdateRequest(document="retail", action="remove")
        )
        assert response.action == "removed"
        assert delta == ShardDelta(shard=0, document="retail", kind="remove")


def structural_stores_xml(shard: ShardServer) -> str:
    tree = clone_tree(shard.corpus.system("stores").index.tree)
    tree.root.append_child(type(tree.root)("annex"))
    return to_xml_string(tree)


#: name → (request builder over the primary, expected kind, carries the XML)
OPERATIONS = {
    "text": (
        lambda shard: UpdateRequest(
            document="stores", xml=edited_stores_xml(shard, "Texas", "Nevada")
        ),
        "update",
        False,
    ),
    "no-change": (
        lambda shard: UpdateRequest(
            document="stores",
            xml=to_xml_string(shard.corpus.system("stores").index.tree),
        ),
        "update",
        False,
    ),
    "structural": (
        lambda shard: UpdateRequest(document="stores", xml=structural_stores_xml(shard)),
        "replace",
        True,
    ),
    "add": (
        lambda shard: UpdateRequest(document="fresh", xml="<root><a>hello</a></root>"),
        "add",
        True,
    ),
    "remove": (
        lambda shard: UpdateRequest(document="retail", action="remove"),
        "remove",
        False,
    ),
}


class TestShardDeltaOf:
    @pytest.mark.parametrize("operation", list(OPERATIONS))
    def test_the_delta_reads_the_report(self, operation):
        build, kind, carries_xml = OPERATIONS[operation]
        primary, _ = shard_pair()
        request = build(primary)
        _, report = primary.service.run_update_with_report(request)
        delta = ShardDelta.of(3, request, report)
        assert (delta.shard, delta.document, delta.kind) == (3, request.document, kind)
        assert delta.kind == report.kind
        assert delta.xml == (request.xml if carries_xml else None)
        # only a text update carries edits; a no-change update is empty
        assert delta.edits == report.label_edits
        assert bool(delta.edits) == (operation == "text")
        assert ShardDelta.from_wire(delta.to_wire()) == delta


class TestReplication:
    def test_replica_matches_primary_after_text_delta(self):
        primary, replica = shard_pair()
        xml = edited_stores_xml(primary, "Texas", "Nevada")
        _, delta = primary_update(primary, UpdateRequest(document="stores", xml=xml))
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
        deltas = [primary_update(primary, request)[1] for request in operations]
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

    def test_close_releases_nothing_and_the_shard_keeps_serving(self):
        # The shard's service holds no executor: closing the shard (what
        # the router does on close) leaves it serving, so a re-entered
        # router needs nothing re-opened.
        shard, reference = shard_pair()
        shard.close()
        shard.close()
        pin = shard.capture("stores")
        response = shard.search(
            SearchRequest(query="store texas", document="stores", size_bound=6), pin
        )
        assert json.dumps(response.to_dict(), sort_keys=True) == wire(
            reference, "store texas", "stores"
        )
