"""A replica and a journal replay agree: both come from one corpus report.

One fixed edit script — a text update, a no-change update, a structural
replace, an add and a remove — goes down the two roads a write can take:

* **replication**: a primary :class:`~repro.cluster.ShardBackend` answers
  each ``apply-update`` with a delta, and a replica ``ShardBackend``
  applies it as ``apply-delta``;
* **the journal**: :func:`repro.corpus.journal_update` on a saved
  directory, then :meth:`repro.corpus.Corpus.load_dir`.

After every step the primary, the replica and the reloaded corpus answer
every search with the same bytes.  A no-change update still ships its
empty ``update`` delta, so the replica's sequence keeps pace with the
primary's (promotion requires it); only the journal skips it.
"""

from __future__ import annotations

from repro.api import SearchRequest, SnippetService, UpdateRequest
from repro.cluster import ShardBackend, ShardServer
from repro.corpus import Corpus, journal_update
from repro.xmltree.diff import clone_tree
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml_string

QUERIES = ("store texas", "store nevada", "retailer apparel", "annex", "alpha beta")


def build_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return corpus


def edit_script(stores) -> list[UpdateRequest]:
    """The five requests, built from the base version of ``stores``."""
    text = clone_tree(stores)
    for node in text.iter_nodes():
        if node.text == "Texas":
            node.text = "Nevada"
    structural = clone_tree(text)
    structural.root.append_child(type(structural.root)("annex"))
    return [
        UpdateRequest(document="stores", xml=to_xml_string(text)),
        UpdateRequest(document="stores", xml=to_xml_string(text)),
        UpdateRequest(document="stores", xml=to_xml_string(structural)),
        UpdateRequest(document="extra", xml="<root><name>alpha beta</name></root>"),
        UpdateRequest(document="retail", action="remove"),
    ]


def answers(backend, documents) -> list[bytes]:
    """Every query over every document, as the bytes the backend encodes
    (unknown-document errors included)."""
    return [
        backend.handle_encoded(
            SearchRequest(query=query, document=document, size_bound=6).to_dict()
        )[1]
        for document in documents
        for query in QUERIES
    ]


def test_replica_and_journal_replay_serve_the_same_bytes(tmp_path):
    primary = ShardBackend(ShardServer(0, corpus=build_corpus()))
    replica = ShardBackend(ShardServer(0, corpus=build_corpus()))
    directory = tmp_path / "corpus"
    journalled = build_corpus()
    journalled.save_dir(directory)
    documents = ("stores", "retail", "extra")
    kinds = []

    script = edit_script(primary.shard.corpus.system("stores").index.tree)
    for step, request in enumerate(script):
        answer = primary.handle_replicate({"op": "apply-update", "request": request.to_dict()})
        assert answer["response"]["kind"] == "update_response", answer
        ack = replica.handle_replicate(
            {"op": "apply-delta", "delta": answer["delta"], "sequence": answer["sequence"]}
        )
        assert ack["applied"] is True

        if request.action == "remove":
            _, record = journal_update(directory, journalled, request.document)
        else:
            parsed = parse_xml(request.xml, name=request.document)
            _, record = journal_update(
                directory, journalled, request.document, parsed.tree, parsed.dtd()
            )
        # the record and the delta name one kind; the journal alone skips
        # the update that changed nothing
        kinds.append((answer["delta"]["kind"], record and record.kind))
        reloaded = SnippetService(Corpus.load_dir(directory))

        expected = answers(primary, documents)
        assert answers(replica, documents) == expected, f"replica differs after step {step}"
        assert answers(reloaded, documents) == expected, f"replay differs after step {step}"
        if step == 1:
            # the no-change update: an empty delta, and the sequences agree
            assert answer["delta"] == {"shard": 0, "document": "stores", "kind": "update"}
            assert replica.sequence == primary.sequence == 2
    assert kinds == [
        ("update", "update"),
        ("update", None),
        ("replace", "replace"),
        ("add", "add"),
        ("remove", "remove"),
    ]
    assert replica.shard.names() == reloaded.corpus.names() == ["extra", "stores"]
