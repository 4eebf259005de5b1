"""The cluster router is drop-in compatible with SnippetService.

The acceptance bar of the cluster: for any shard count and either kind of
shard — in-process :class:`~repro.cluster.ShardServer`\\ s or
:class:`~repro.cluster.RemoteShard`\\ s reached over HTTP — the default
(meta-free) wire responses of the router are byte-identical to a
single-corpus :class:`~repro.api.SnippetService` serving the same
documents — searches, paging, batches, updates and errors alike.  The
equivalence classes take the ``cluster_with`` fixture and so run once per
transport; the construction/lifecycle class pins in-process specifics.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import (
    BatchRequest,
    SearchRequest,
    SnippetService,
    UpdateRequest,
    UpdateResponse,
)
from repro.api.protocol import parse_response
from repro.cluster import (
    ClusterService,
    ExplicitPartitioner,
    HashPartitioner,
    ShardServer,
)
from repro.corpus import Corpus
from repro.errors import ClusterError
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string

from tests.cluster.conftest import QUERIES, build_corpus

SHARD_COUNTS = (1, 2, 3, 4)


def in_process(shards: int) -> ClusterService:
    return ClusterService.from_corpus(build_corpus(), shards=shards)


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def edited_xml(document: str, old: str, new: str) -> str:
    """``document`` of the fixture corpus with every ``old`` text → ``new``."""
    tree = clone_tree(build_corpus().system(document).index.tree)
    for node in tree.iter_nodes():
        if node.text == old:
            node.text = new
    return to_xml_string(tree)


class TestSearchEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_search_responses_byte_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        for document in single_service.corpus.names():
            for query in QUERIES:
                request = SearchRequest(query=query, document=document, size_bound=6)
                assert dumps(cluster.handle_dict(request.to_dict())) == dumps(
                    single_service.handle_dict(request.to_dict())
                ), (shards, document, query)

    def test_repeated_search_is_stable(self, cluster_with, single_service):
        # Remote reads rotate round-robin over the replicas, so consecutive
        # requests hit different endpoints — the bytes must not depend on
        # which one served.
        cluster = cluster_with(2)
        request = SearchRequest(query="store texas", document="stores")
        expected = dumps(single_service.handle_dict(request.to_dict()))
        for _ in range(4):
            assert dumps(cluster.handle_dict(request.to_dict())) == expected

    def test_page_walk_byte_identical(self, cluster_with, single_service):
        cluster = cluster_with(2)
        request = SearchRequest(
            query="store texas", document="stores", size_bound=6, page_size=1
        )
        pages = 0
        while True:
            ours = dumps(cluster.handle_dict(request.to_dict()))
            assert ours == dumps(single_service.handle_dict(request.to_dict()))
            pages += 1
            token = parse_response(json.loads(ours)).next_page
            if token is None:
                break
            request = request.with_page(token)
        assert pages > 1

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_unknown_document_error_byte_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        request = SearchRequest(query="store texas", document="ghost")
        assert dumps(cluster.handle_dict(request.to_dict())) == dumps(
            single_service.handle_dict(request.to_dict())
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_protocol_errors_byte_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        for payload in (
            {"kind": "search", "schema_version": 1, "document": "stores"},
            {"kind": "search", "schema_version": 1, "query": "", "document": "stores"},
            {"kind": "nonsense"},
            [1, 2, 3],
        ):
            assert dumps(cluster.handle_dict(payload)) == dumps(
                single_service.handle_dict(payload)
            )

    def test_handle_json_end_to_end(self, cluster_with, single_service):
        cluster = cluster_with(3)
        text = json.dumps(
            SearchRequest(query="store texas", document="stores", size_bound=6).to_dict()
        )
        assert cluster.handle_json(text) == single_service.handle_json(text)

    def test_run_matches_serial_singles(self, cluster_with, single_service):
        cluster = cluster_with(4)
        requests = [
            SearchRequest(query=query, document=document, size_bound=6)
            for query in QUERIES
            for document in single_service.corpus.names()
        ]
        ours = [dumps(cluster.run(r).to_dict()) for r in requests]
        theirs = [dumps(single_service.run(r).to_dict()) for r in requests]
        assert ours == theirs


class TestBatchEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_all_documents_batch_byte_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        batch = BatchRequest(queries=QUERIES, size_bound=6)
        assert dumps(cluster.handle_dict(batch.to_dict())) == dumps(
            single_service.handle_dict(batch.to_dict())
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_explicit_document_order_preserved(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        batch = BatchRequest(
            queries=("store texas", "movie drama"),
            documents=("movies", "stores", "retail", "stores"),  # duplicates included
            size_bound=6,
        )
        assert dumps(cluster.handle_dict(batch.to_dict())) == dumps(
            single_service.handle_dict(batch.to_dict())
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_unknown_batch_document_error_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        batch = BatchRequest(queries=("store texas",), documents=("stores", "ghost"))
        assert dumps(cluster.handle_dict(batch.to_dict())) == dumps(
            single_service.handle_dict(batch.to_dict())
        )

    def test_empty_document_list_batch_identical(self, cluster_with, single_service):
        cluster = cluster_with(2)
        batch = BatchRequest(queries=("store texas",), documents=())
        assert dumps(cluster.handle_dict(batch.to_dict())) == dumps(
            single_service.handle_dict(batch.to_dict())
        )


class TestUpdateEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_update_then_search_byte_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        # a text-only edit: rides the incremental path (and, remotely,
        # replicates to the replicas as a node-level delta)
        update = UpdateRequest(document="stores", xml=edited_xml("stores", "Texas", "Nevada"))
        assert dumps(cluster.handle_dict(update.to_dict())) == dumps(
            single_service.handle_dict(update.to_dict())
        )
        for query in ("store texas", "store nevada"):
            request = SearchRequest(query=query, document="stores", size_bound=6)
            for _ in range(2):  # remotely: once per replica
                assert dumps(cluster.handle_dict(request.to_dict())) == dumps(
                    single_service.handle_dict(request.to_dict())
                )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_add_and_remove_byte_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        add = UpdateRequest(document="fresh", xml="<root><name>alpha beta</name></root>")
        assert dumps(cluster.handle_dict(add.to_dict())) == dumps(
            single_service.handle_dict(add.to_dict())
        )
        probe = SearchRequest(query="alpha", document="fresh")
        for _ in range(2):
            assert dumps(cluster.handle_dict(probe.to_dict())) == dumps(
                single_service.handle_dict(probe.to_dict())
            )
        remove = UpdateRequest(document="fresh", action="remove")
        assert dumps(cluster.handle_dict(remove.to_dict())) == dumps(
            single_service.handle_dict(remove.to_dict())
        )
        assert "fresh" not in cluster
        # the registry followed: the document is now unknown, identically
        assert dumps(cluster.handle_dict(probe.to_dict())) == dumps(
            single_service.handle_dict(probe.to_dict())
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_remove_unknown_document_error_identical(self, cluster_with, single_service, shards):
        cluster = cluster_with(shards)
        remove = UpdateRequest(document="ghost", action="remove")
        assert dumps(cluster.handle_dict(remove.to_dict())) == dumps(
            single_service.handle_dict(remove.to_dict())
        )

    def test_rejected_update_error_identical(self, cluster_with, single_service):
        # The owning shard rejects the XML; its structured answer comes
        # back with the caller's request echoed, whichever side of the
        # shard seam produced it.
        cluster = cluster_with(2)
        broken = UpdateRequest(document="stores", xml="<root><unclosed></root>")
        assert dumps(cluster.handle_dict(broken.to_dict())) == dumps(
            single_service.handle_dict(broken.to_dict())
        )

    def test_new_document_lands_on_partitioner_shard(self, cluster_with):
        cluster = cluster_with(4)
        expected = cluster.partitioner.shard_of("fresh")
        response = cluster.run_update(
            UpdateRequest(document="fresh", xml="<root><a>hi</a></root>")
        )
        assert "fresh" in cluster.shards[expected]
        assert cluster.owner_of("fresh") is cluster.shards[expected]
        assert response.action == "added"
        assert response.shard == expected

    def test_the_shard_seam_answers_the_response_alone(self, cluster_with, single_service):
        # A delta lives only on the primary→replica hop: the owning
        # shard's update(request) — in process or remote — answers what a
        # single corpus answers, and the router only stamps the shard.
        cluster = cluster_with(2)
        update = UpdateRequest(document="stores", xml=edited_xml("stores", "Texas", "Nevada"))
        owner = cluster.owner_of("stores")
        response = owner.update(update)
        assert isinstance(response, UpdateResponse)
        assert dumps(response.to_dict()) == dumps(single_service.run_update(update).to_dict())
        again = cluster.run_update(update)
        assert isinstance(again, UpdateResponse)
        assert again.shard == owner.shard_id
        assert (again.action, again.changed_nodes) == ("updated", 0)

    def test_update_stays_on_owning_shard_even_if_partitioner_disagrees(self, cluster_with):
        # An explicit partitioner that would place 'stores' on shard 1 must
        # not strand the registered copy on its current shard.
        cluster = cluster_with(partitioner=ExplicitPartitioner({}, 2, default=1))
        owner = cluster.owner_of("stores")
        response = cluster.run_update(
            UpdateRequest(document="stores", xml=edited_xml("stores", "Texas", "Utah"))
        )
        assert response.action == "updated"
        assert cluster.owner_of("stores") is owner


class TestMetaProvenance:
    def test_shard_id_in_meta_block_only(self, cluster_with):
        cluster = cluster_with(3)
        plain = cluster.run(SearchRequest(query="store texas", document="stores"))
        assert plain.shard == cluster.owner_of("stores").shard_id
        assert "meta" not in plain.to_dict()
        with_meta = plain.to_dict(include_meta=True)
        assert with_meta["meta"]["shard"] == plain.shard

    def test_single_service_meta_has_no_shard_key(self, single_service):
        response = single_service.run(
            SearchRequest(query="store texas", document="stores", include_meta=True)
        )
        assert response.shard is None
        assert "shard" not in response.to_dict(include_meta=True)["meta"]

    def test_batch_meta_provenance_spans_shards(self, cluster_with):
        cluster = cluster_with(4)
        batch = BatchRequest(queries=("store texas",), include_meta=True)
        response = cluster.run_batch(batch)
        shards_seen = {item.shard for item in response.entries[0].responses}
        expected = {cluster.owner_of(name).shard_id for name in cluster.names()}
        assert shards_seen == expected

    def test_update_meta_provenance(self, cluster_with):
        cluster = cluster_with(3)
        response = cluster.run_update(
            UpdateRequest(document="fresh", xml="<root><a>hi</a></root>", include_meta=True)
        )
        assert response.shard == cluster.partitioner.shard_of("fresh")
        assert response.to_dict(include_meta=True)["meta"]["shard"] == response.shard


class TestClusterConstruction:
    def test_requires_at_least_one_shard(self):
        with pytest.raises(ClusterError, match="at least one shard"):
            ClusterService([])

    def test_shard_ids_must_be_dense(self):
        with pytest.raises(ClusterError, match="0..N-1"):
            ClusterService([ShardServer(0), ShardServer(2)])

    def test_partitioner_shard_count_must_match(self):
        with pytest.raises(ClusterError, match="partitioner covers"):
            ClusterService([ShardServer(0)], partitioner=HashPartitioner(2))

    def test_from_corpus_needs_shards_or_partitioner(self):
        with pytest.raises(ClusterError, match="shard count or a partitioner"):
            ClusterService.from_corpus(Corpus())

    def test_from_corpus_rejects_disagreeing_counts(self):
        with pytest.raises(ClusterError, match="disagrees"):
            ClusterService.from_corpus(
                Corpus(), shards=3, partitioner=HashPartitioner(2)
            )

    def test_from_corpus_places_by_partitioner(self):
        cluster = in_process(4)
        for shard in cluster.shards:
            for name in shard.names():
                assert cluster.partitioner.shard_of(name) == shard.shard_id
                assert cluster.owner_of(name) is shard
        assert cluster.owner_of("ghost") is None

    def test_registry_views_and_repr(self, cluster_with):
        cluster = cluster_with(2)
        assert len(cluster) == 4
        assert "stores" in cluster
        assert "ghost" not in cluster
        assert cluster.names() == sorted(cluster.names())
        assert "shards=2" in repr(cluster)
        summary = cluster.shard_summary()
        assert sum(row["documents"] for row in summary) == 4

    def test_cache_stats_merged_across_shards(self):
        cluster = in_process(3)
        cluster.run(SearchRequest(query="store texas", document="stores"))
        stats = cluster.cache_stats()
        assert set(stats) == set(cluster.names())
        assert stats["stores"]["query"]["misses"] >= 1

    def test_context_manager(self):
        with in_process(2) as cluster:
            response = cluster.run(SearchRequest(query="store texas", document="stores"))
            assert response.total_results >= 1

    def test_context_manager_reentry_reopens_the_whole_service(self):
        cluster = in_process(2)
        batch = BatchRequest(queries=("store texas",))
        with cluster:
            first = cluster.run_batch(batch)
        # A closed cluster keeps serving, as a closed SnippetService does:
        # nothing between the router and its shards needs re-opening.
        closed = cluster.run_batch(batch)
        with cluster:
            again = cluster.run_batch(batch)
        assert dumps(closed.to_dict()) == dumps(first.to_dict())
        assert dumps(again.to_dict()) == dumps(first.to_dict())

    def test_batch_snapshot_survives_concurrent_remove(self):
        # Drop-in parity with SnippetService.entries_snapshot: a document
        # removed after the router pinned its entries — here, as the first
        # shard's sub-batch starts — is still served from the pinned state
        # instead of failing the batch part-way.
        single = SnippetService(build_corpus())
        batch = BatchRequest(queries=("movie drama",), documents=("stores", "movies"))
        expected = dumps(single.run_batch(batch).to_dict())

        cluster = ClusterService.from_corpus(build_corpus(), shards=3)
        first = min(
            (cluster.owner_of(name) for name in batch.documents),
            key=lambda shard: shard.shard_id,
        )
        run_batch = first.batch

        def remove_then_batch(sub_batch, pins):
            cluster.run_update(UpdateRequest(document="movies", action="remove"))
            return run_batch(sub_batch, pins)

        first.batch = remove_then_batch
        assert dumps(cluster.run_batch(batch).to_dict()) == expected
        assert "movies" not in cluster
        # the next batch sees the removal
        assert cluster.execute_batch(batch).kind == "error"

    @staticmethod
    def three_busy_shards() -> ClusterService:
        placement = {"stores": 0, "retail": 1, "movies": 2, "bibliography": 2}
        return ClusterService.from_corpus(
            build_corpus(), partitioner=ExplicitPartitioner(placement, 3)
        )

    def test_batch_runs_every_shard_on_the_calling_thread(self):
        cluster = self.three_busy_shards()
        calls: list[tuple[int, threading.Thread]] = []
        for shard in cluster.shards:

            def recording(sub_batch, pins, _shard=shard, _batch=shard.batch):
                calls.append((_shard.shard_id, threading.current_thread()))
                return _batch(sub_batch, pins)

            shard.batch = recording
        cluster.run_batch(BatchRequest(queries=QUERIES[:2]))
        assert [shard_id for shard_id, _ in calls] == [0, 1, 2]
        assert all(thread is threading.current_thread() for _, thread in calls)

    def test_first_failure_in_shard_order_propagates(self):
        cluster = self.three_busy_shards()
        reached: list[int] = []
        for shard in cluster.shards[1:]:

            def failing(sub_batch, pins, _shard_id=shard.shard_id):
                reached.append(_shard_id)
                raise ClusterError(f"shard {_shard_id} failed")

            shard.batch = failing
        with pytest.raises(ClusterError, match="shard 1 failed"):
            cluster.run_batch(BatchRequest(queries=("store texas",)))
        assert reached == [1]
