"""A text-only update numbers its new version without a reindex.

The parser numbers each node as it makes it and ``XMLTree.copy`` takes
its source's ids, so the write path never runs ``XMLTree._reindex``: not
a served update (parse, diff, posting deltas, carry-over), and not a
replica's replay of the primary's label edits (copy, edit, diff, posting
deltas).  The counting wrapper counts every call, whoever makes it.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.api import SearchRequest, SnippetService, UpdateRequest
from repro.cluster import ShardBackend, ShardServer
from repro.corpus import Corpus
from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import XMLTree

_CITY = re.compile(r"<city>([^<]*)</city>")


@pytest.fixture(scope="module")
def xml() -> str:
    config = RetailConfig(retailers=2, stores_per_retailer=3, clothes_per_store=3, seed=100)
    return to_xml_string(generate_retail_document(config, name="retail"))


def edited(xml: str, rng: random.Random) -> str:
    match = rng.choice(list(_CITY.finditer(xml)))
    city = rng.choice([city for city in ("Reno", "Waco", "Yuma") if city != match.group(1)])
    return f"{xml[: match.start(1)]}{city}{xml[match.end(1):]}"


def build_corpus(xml: str) -> Corpus:
    corpus = Corpus()
    corpus.add_xml("retail", xml)
    return corpus


@pytest.fixture()
def reindexes(monkeypatch) -> list[str]:
    """Names of the trees ``_reindex`` ran on, from here on."""
    calls: list[str] = []
    reindex = XMLTree._reindex

    def counted(self):
        calls.append(self.name)
        reindex(self)

    monkeypatch.setattr(XMLTree, "_reindex", counted)
    return calls


def test_a_served_text_update_reindexes_nothing(xml, reindexes):
    service = SnippetService(build_corpus(xml))
    service.run(SearchRequest(query="store texas", document="retail", size_bound=6))
    reindexes.clear()
    rng = random.Random(7)
    for _ in range(3):
        xml = edited(xml, rng)
        response = service.run_update(UpdateRequest(document="retail", xml=xml))
        assert response.incremental and response.changed_nodes == 1
        service.run(SearchRequest(query="store reno", document="retail", size_bound=6))
    assert reindexes == []


def test_a_replica_replays_label_edits_without_a_reindex(xml, reindexes):
    primary = ShardBackend(ShardServer(0, corpus=build_corpus(xml)))
    replica = ShardBackend(ShardServer(0, corpus=build_corpus(xml)))
    request = UpdateRequest(document="retail", xml=edited(xml, random.Random(11)))
    answer = primary.handle_replicate({"op": "apply-update", "request": request.to_dict()})
    assert answer["delta"]["kind"] == "update"
    reindexes.clear()
    ack = replica.handle_replicate(
        {"op": "apply-delta", "delta": answer["delta"], "sequence": answer["sequence"]}
    )
    assert ack["sequence"] == answer["sequence"]
    assert reindexes == []
    served = [
        backend.shard.corpus.system("retail").index.tree for backend in (primary, replica)
    ]
    assert [node.text for node in served[0].nodes_by_pre] == [
        node.text for node in served[1].nodes_by_pre
    ]


def test_the_guard_counts(reindexes):
    """The wrapper is live: a tree built by hand is numbered by a reindex."""
    tree_from_dict("shop", {"city": "Austin"}, name="shop")
    assert reindexes == ["shop"]
