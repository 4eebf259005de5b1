"""The unified stats() contract: one envelope shape, snapshots not handles.

Every serving backend's ``stats()`` returns the schema-versioned envelope
(``schema_version`` + ``backend`` + sections), and what it returns is a
*snapshot*: mutating the returned dict must never corrupt the live
counters a later caller reads.
"""

from __future__ import annotations

import pytest

from repro.api.backend import STATS_SCHEMA_VERSION, stats_envelope
from repro.api.gateway import build_gateway
from repro.api.protocol import SearchRequest
from repro.api.service import SnippetService
from repro.cluster.router import ClusterService
from tests.cluster.conftest import build_corpus


@pytest.fixture()
def service():
    backend = SnippetService(build_corpus())
    yield backend
    backend.close()


@pytest.fixture()
def cluster():
    backend = ClusterService.from_corpus(build_corpus(), shards=2)
    yield backend
    backend.close()


class TestEnvelope:
    def test_helper_shape(self):
        envelope = stats_envelope("some-backend", documents=3)
        assert envelope == {
            "schema_version": STATS_SCHEMA_VERSION,
            "backend": "some-backend",
            "documents": 3,
        }

    def test_snippet_service_envelope(self, service):
        stats = service.stats()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["backend"] == "snippet-service"
        assert stats["documents"] == 4
        assert "caches" in stats

    def test_snippet_service_counts_live_versions(self, service):
        documents = ["bibliography", "movies", "retail", "stores"]
        assert service.stats()["live_versions"] == dict.fromkeys(documents, 1)
        # a text-only update retires a version; nothing the caches kept holds it
        service.execute(SearchRequest(query="store texas", document="stores"))
        tree = service.corpus.system("stores").index.tree
        edited = tree.copy()
        next(node for node in edited.iter_nodes() if node.has_text_value).text += " edited"
        del tree
        assert service.corpus.update_document("stores", edited).incremental
        assert service.stats()["live_versions"] == dict.fromkeys(documents, 1)
        service.corpus.remove_document("movies")
        assert list(service.stats()["live_versions"]) == ["bibliography", "retail", "stores"]

    def test_cluster_service_envelope(self, cluster):
        stats = cluster.stats()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["backend"] == "cluster-service"
        assert stats["documents"] == 4
        assert [row["shard"] for row in stats["shards"]] == [0, 1]

    def test_gateway_preserves_the_inner_envelope(self, service):
        stack = build_gateway(service, max_in_flight=4)
        stats = stack.stats()
        # middleware sections merge INTO the backend envelope, flat
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["backend"] == "snippet-service"
        assert "requests" in stats
        assert "admission" in stats


class TestStatsAreSnapshots:
    def test_mutating_gateway_stats_does_not_corrupt_counters(self, service):
        stack = build_gateway(service, max_in_flight=4)
        stack.execute(SearchRequest(query="store texas", document="stores"))

        first = stack.stats()
        assert first["requests"]["total"] == 1

        # Sabotage every nested section of the returned snapshot.
        first["requests"]["total"] = 10**6
        first["requests"]["by_kind"]["search"] = 10**6
        first["requests"]["by_kind"]["injected"] = 1
        first["admission"]["admitted"] = -5
        first["caches"].clear()

        second = stack.stats()
        assert second["requests"]["total"] == 1
        assert second["requests"]["by_kind"] == {"search": 1}
        assert second["admission"]["admitted"] == 1
        assert second["caches"]

    def test_backend_stats_are_snapshots_too(self, service, cluster):
        for backend in (service, cluster):
            first = backend.stats()
            first.clear()
            second = backend.stats()
            assert second["schema_version"] == STATS_SCHEMA_VERSION
            assert second["documents"] == 4

    def test_counters_survive_shard_row_mutation(self, cluster):
        first = cluster.stats()
        first["shards"][0]["documents"] = 999
        assert cluster.stats()["shards"][0]["documents"] != 999
