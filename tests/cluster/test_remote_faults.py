"""Fault injection against spawned remote clusters.

Each test spawns its own small cluster, kills or isolates real processes,
and asserts the coordinator's behaviour: a dead replica loses no request,
a dead primary is promoted past (and the promotion then takes writes), a
fully-partitioned shard degrades to a structured error while the rest of
the cluster keeps serving byte-identical answers.  Health probing is
driven synchronously through :meth:`HealthMonitor.check_once` so every
test is deterministic — no sleeps racing a background thread.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api.protocol import BatchRequest, SearchRequest, UpdateRequest
from repro.api.service import SnippetService
from repro.cluster import ClusterService, HealthMonitor, RemoteClusterService
from tests.cluster.conftest import QUERIES, build_corpus


def wire(backend, payload) -> str:
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return backend.handle_json(json.dumps(payload, sort_keys=True))


def spawn_cluster(directory, replicas: int) -> RemoteClusterService:
    service = ClusterService.from_corpus(build_corpus(), shards=2)
    service.save_dir(directory)
    service.close()
    return RemoteClusterService.spawn(directory, replicas=replicas)


def processes_of_shard(remote: RemoteClusterService, shard_id: int):
    return [process for process in remote.processes if process.shard_id == shard_id]


def process_at(remote: RemoteClusterService, endpoint):
    """The spawned process behind ``endpoint`` (matched by port)."""
    for process in remote.processes:
        if process.port == endpoint.client.port:
            return process
    raise AssertionError(f"no spawned process listens on {endpoint.address}")


@pytest.fixture()
def single():
    service = SnippetService(build_corpus())
    yield service
    service.close()


class TestReplicaDeath:
    def test_killing_a_replica_loses_no_request(self, tmp_path, single):
        with spawn_cluster(tmp_path, replicas=2) as remote:
            victim = remote.replica_sets[0].replicas[0]
            process_at(remote, victim).kill()
            # Every read after the kill succeeds byte-identically: the
            # rotation will hand some of them to the dead endpoint first,
            # and the failover path must absorb that silently.
            for query in QUERIES:
                for _dataset, name in (("", "stores"), ("", "retail")):
                    request = SearchRequest(query=query, document=name)
                    assert wire(remote, request) == wire(single, request)
            assert not victim.healthy  # the failure was recorded, not ignored

    def test_killing_a_replica_mid_batch_stream_loses_no_request(
        self, tmp_path, single
    ):
        with spawn_cluster(tmp_path, replicas=2) as remote:
            batch = BatchRequest(queries=QUERIES[:2], documents=None)
            expected = wire(single, batch)
            results: list[str] = []
            errors: list[BaseException] = []

            def stream() -> None:
                try:
                    for _ in range(6):
                        results.append(wire(remote, batch))
                except BaseException as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            worker = threading.Thread(target=stream)
            worker.start()
            # Kill a replica while the stream is in flight.
            victim = remote.replica_sets[1].replicas[0]
            process_at(remote, victim).kill()
            worker.join(timeout=120)
            assert not worker.is_alive()
            assert errors == []
            assert len(results) == 6
            assert all(result == expected for result in results)

    def test_monitor_marks_dead_replica_down_and_leaves_rest_up(self, tmp_path):
        with spawn_cluster(tmp_path, replicas=2) as remote:
            monitor = HealthMonitor(remote.replica_sets)
            victim = remote.replica_sets[0].replicas[0]
            process_at(remote, victim).kill()
            monitor.check_once()
            assert monitor.probes == 1
            assert not victim.healthy
            survivors = [
                endpoint
                for replica_set in remote.replica_sets
                for endpoint in replica_set.endpoints()
                if endpoint is not victim
            ]
            assert all(endpoint.healthy for endpoint in survivors)


class TestPrimaryDeath:
    def test_primary_death_promotes_and_next_update_lands(self, tmp_path, single):
        with spawn_cluster(tmp_path, replicas=2) as remote:
            shard_id = remote.owner_of("movies").shard_id
            replica_set = remote.replica_sets[shard_id]
            old_primary = replica_set.primary
            expected_new = replica_set.replicas[0]
            process_at(remote, old_primary).kill()

            # The doomed update is *not* retried: it reports a transport
            # failure (the primary may have applied it) — and promotes.
            doomed = remote.execute_update(
                UpdateRequest(action="remove", document="movies")
            )
            assert doomed.kind == "error"
            assert doomed.code == "internal"
            assert "transport failure" in doomed.message
            assert replica_set.primary is expected_new
            assert expected_new.role == "primary"
            assert old_primary.role == "replica"
            assert not old_primary.healthy

            # The retry lands on the promotion, byte-identical to the
            # single-corpus service applying the same remove.
            request = UpdateRequest(action="remove", document="movies")
            assert wire(remote, request) == wire(single, request)
            # ... and the post-remove state agrees too (unknown-doc bytes).
            probe = SearchRequest(query="drama", document="movies")
            assert wire(remote, probe) == wire(single, probe)

    def test_monitor_promotes_past_dead_primary(self, tmp_path):
        with spawn_cluster(tmp_path, replicas=2) as remote:
            monitor = HealthMonitor(remote.replica_sets)
            replica_set = remote.replica_sets[0]
            old_primary = replica_set.primary
            survivor = replica_set.replicas[0]
            process_at(remote, old_primary).kill()
            monitor.check_once()
            assert replica_set.primary is survivor
            assert survivor.role == "primary"
            assert not old_primary.healthy

    def test_writes_after_promotion_replicate_to_later_recoveries(
        self, tmp_path, single
    ):
        # A promoted primary keeps the replication contract: subsequent
        # updates bump the set sequence and reads still serve identically.
        with spawn_cluster(tmp_path, replicas=2) as remote:
            shard_id = remote.owner_of("stores").shard_id
            replica_set = remote.replica_sets[shard_id]
            process_at(remote, replica_set.primary).kill()
            remote.execute_update(UpdateRequest(action="remove", document="stores"))
            request = UpdateRequest(action="remove", document="stores")
            assert wire(remote, request) == wire(single, request)
            assert replica_set.sequence == 1
            probe = SearchRequest(query="store texas", document="stores")
            assert wire(remote, probe) == wire(single, probe)


class TestShardPartition:
    def test_partitioned_shard_degrades_to_structured_error(self, tmp_path, single):
        with spawn_cluster(tmp_path, replicas=2) as remote:
            dead_shard = remote.owner_of("stores").shard_id
            for process in processes_of_shard(remote, dead_shard):
                process.kill()

            # Reads on the dead shard: a structured internal error, never a
            # raised exception out of the backend surface.
            raw = json.loads(
                wire(remote, SearchRequest(query="store texas", document="stores"))
            )
            assert raw["kind"] == "error"
            assert raw["code"] == "internal"
            assert "unreachable" in raw["message"]
            assert raw["request"]["document"] == "stores"

            # A batch touching the dead shard degrades the same way, with
            # the caller's full batch echoed.
            batch = BatchRequest(queries=("store",), documents=None)
            raw = json.loads(wire(remote, batch))
            assert raw["kind"] == "error"
            assert raw["code"] == "internal"
            assert raw["request"]["kind"] == "batch"

            # Every other shard keeps serving byte-identical answers.
            live = [
                name
                for name in remote.names()
                if remote.owner_of(name).shard_id != dead_shard
            ]
            assert live, "the partition test needs a surviving shard"
            for name in live:
                request = SearchRequest(query="author movie store", document=name)
                assert wire(remote, request) == wire(single, request)
            live_batch = BatchRequest(queries=("author",), documents=tuple(sorted(live)))
            assert wire(remote, live_batch) == wire(single, live_batch)

    def test_recovered_replica_is_marked_up_by_monitor_only(self, tmp_path):
        # mark_down by the serving path is sticky until a probe succeeds:
        # the monitor owns the up transition.
        with spawn_cluster(tmp_path, replicas=2) as remote:
            monitor = HealthMonitor(remote.replica_sets)
            replica_set = remote.replica_sets[0]
            endpoint = replica_set.replicas[0]
            replica_set.mark_down(endpoint)  # spurious mark: process is alive
            assert not endpoint.healthy
            monitor.check_once()  # the probe reaches the live process
            assert endpoint.healthy
