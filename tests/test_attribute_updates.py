"""A one-value edit of a document with XML attributes is a text update on
every road a write takes.

The parser makes each attribute a child element (``<store id="3">`` has an
``id`` child) and also records the start tag's attributes on the node; a
v4 snapshot stores (parent, tag, text) per node, so a loaded tree has no
such record.  The diff compares what the data model holds — the mirror
children — and never the record, so the same edit answers the same
``UpdateResponse`` bytes, incremental (record kind ``update``), whether
the document was added in memory, saved and loaded, or is served by a
2-shard, 2-replica cluster, whose replica then receives an ``update``
delta, not the whole document.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SnippetService, UpdateRequest
from repro.cluster import ClusterService, ShardBackend
from repro.corpus import Corpus, journal_update
from repro.xmltree.parser import parse_xml
from tests.cluster.conftest import in_thread_remote

XML = (
    '<shop><store id="3" kind="outlet"><name>Levis</name><city>Austin</city></store>'
    '<store id="4"><name>Gap</name><city>Houston</city></store></shop>'
)
EDITED = XML.replace("Austin", "Dallas")
OTHER = "<shop><store><name>Zara</name><city>Austin</city></store></shop>"


def build_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add_xml("shop", XML)
    corpus.add_xml("other", OTHER)
    return corpus


def update(backend) -> bytes:
    error, body = backend.handle_encoded(UpdateRequest(document="shop", xml=EDITED).to_dict())
    assert error is None, body
    return body


@pytest.fixture()
def replicated_deltas(monkeypatch):
    """The kind of every delta a replica applies."""
    kinds: list[str] = []
    handle = ShardBackend.handle_replicate

    def recording(self, payload):
        if payload.get("op") == "apply-delta":
            kinds.append(payload["delta"]["kind"])
        return handle(self, payload)

    monkeypatch.setattr(ShardBackend, "handle_replicate", recording)
    return kinds


def test_an_attribute_document_updates_as_text_on_every_road(tmp_path, replicated_deltas):
    in_memory = update(SnippetService(build_corpus()))

    build_corpus().save_dir(tmp_path / "saved")
    loaded = update(SnippetService(Corpus.load_dir(tmp_path / "saved")))

    with in_thread_remote(lambda: ClusterService.from_corpus(build_corpus(), shards=2)) as cluster:
        clustered = update(cluster)

    answer = json.loads(in_memory)
    assert (answer["action"], answer["incremental"], answer["structural_reason"]) == (
        "updated", True, None,
    )
    assert answer["changed_nodes"] == 1
    assert loaded == in_memory
    assert clustered == in_memory
    assert replicated_deltas == ["update"]


def test_a_loaded_attribute_document_journals_an_update(tmp_path):
    directory = tmp_path / "saved"
    build_corpus().save_dir(directory)
    corpus = Corpus.load_dir(directory)
    report, record = journal_update(directory, corpus, "shop", tree=parse_xml(EDITED).tree)
    assert report.kind == "update" and report.structural_reason is None
    assert record is not None and record.kind == "update"
    assert report.label_edits == (("0.3", "Dallas"),)
