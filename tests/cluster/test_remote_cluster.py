"""Remote cluster: what is specific to spawned shard processes.

That the router serves bytes identical to a single-corpus
:class:`~repro.api.SnippetService` over remote shards is the parametrised
equivalence suite's job (``test_router.py``, ``test_property_cluster.py``
— their remote leg talks HTTP to in-thread servers).  This module covers
what only a really spawned N-shard × M-replica
:class:`~repro.cluster.remote.RemoteClusterService` can show: ``spawn``
wires real ``serve --shard-of`` processes up from a saved cluster
directory (registry included), the replication bookkeeping across real
endpoints, the shard-side backend and the delta wire form.  Spawning is
expensive, so the read-only tests share one module-scoped cluster.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.api.client import ServiceClient
from repro.api.protocol import (
    BatchRequest,
    BatchResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.api.service import SnippetService
from repro.cluster import (
    ClusterService,
    RemoteClusterService,
    ShardBackend,
    ShardDelta,
    read_cluster_manifest,
)
from repro.errors import ClusterError
from tests.cluster.conftest import CLUSTER_DATASETS, QUERIES, build_corpus


def wire(backend, payload) -> str:
    """The exact bytes a wire frontend would emit for ``payload``."""
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    return backend.handle_json(json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def cluster_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("remote-cluster")
    service = ClusterService.from_corpus(build_corpus(), shards=2)
    service.save_dir(directory)
    service.close()
    return directory


@pytest.fixture(scope="module")
def remote(cluster_dir):
    service = RemoteClusterService.spawn(cluster_dir, replicas=2)
    yield service
    service.close()


@pytest.fixture(scope="module")
def single():
    service = SnippetService(build_corpus())
    yield service
    service.close()


class TestSpawnedCluster:
    def test_spawn_reads_the_registry_from_the_saved_directory(self, remote, cluster_dir):
        saved = ClusterService.load_dir(cluster_dir)
        assert remote.names() == saved.names()
        for name in saved.names():
            assert remote.owner_of(name).shard_id == saved.owner_of(name).shard_id
        assert remote.partitioner.kind == saved.partitioner.kind

    def test_spawned_processes_serve_identical_bytes(self, remote, single):
        for _dataset, name in CLUSTER_DATASETS:
            request = SearchRequest(query=QUERIES[0], document=name)
            for _ in range(2):  # once per replica of the rotation
                assert wire(remote, request) == wire(single, request)
        batch = BatchRequest(queries=QUERIES[:3], documents=None)
        assert wire(remote, batch) == wire(single, batch)
        missing = SearchRequest(query="anything", document="no-such-doc")
        assert wire(remote, missing) == wire(single, missing)

    def test_capabilities_and_stats_shape(self, remote):
        caps = remote.capabilities()
        assert caps["backend"] == "remote-cluster"
        assert caps["shards"] == 2
        assert caps["replicas"] == 2
        assert caps["remote"] is True
        stats = remote.stats()
        assert stats["backend"] == "remote-cluster"
        assert stats["documents"] == len(CLUSTER_DATASETS)
        assert [row["endpoints"] for row in stats["shards"]] == [2, 2]
        assert all(row["healthy"] == 2 for row in stats["shards"])

    def test_coordinator_policy_is_inherited_not_copied(self):
        for name in (
            "execute", "execute_batch", "execute_update",
            "_run_batch", "names", "_unknown_document",
        ):
            assert name not in RemoteClusterService.__dict__, name

    def test_add_document_replicates_to_replicas(self, tmp_path):
        service = ClusterService.from_corpus(build_corpus(), shards=2)
        service.save_dir(tmp_path)
        service.close()
        single = SnippetService(build_corpus())
        with RemoteClusterService.spawn(tmp_path, replicas=2) as remote:
            xml = "<library><book><title>New Arrival</title></book></library>"
            request = UpdateRequest(action="update", document="arrivals", xml=xml)
            assert wire(remote, request) == wire(single, request)
            replica_set = remote.owner_of("arrivals").replica_set
            # the commit advanced the set's sequence and every replica applied it
            assert replica_set.sequence == 1
            for endpoint in replica_set.endpoints():
                assert endpoint.sequence == 1
                assert not endpoint.stale
            # the new document serves identically from both replicas
            for _ in range(2):
                probe = SearchRequest(query="arrival", document="arrivals")
                assert wire(remote, probe) == wire(single, probe)


@pytest.fixture()
def connects(monkeypatch) -> list[int]:
    """The port of every TCP connection this process opens from here on."""
    ports: list[int] = []
    real_connect = ServiceClient._connect

    def counting_connect(self):
        ports.append(self.port)
        return real_connect(self)

    monkeypatch.setattr(ServiceClient, "_connect", counting_connect)
    return ports


class TestPooledHops:
    """A warm shard hop rides a kept-alive connection; a write never does."""

    def test_warm_reads_open_one_connection_per_endpoint(self, remote, connects):
        _dataset, name = CLUSTER_DATASETS[0]
        search = SearchRequest(query=QUERIES[0], document=name)
        batch = BatchRequest(queries=QUERIES[:2], documents=None)
        remote.execute(search)
        remote.execute_batch(batch)
        for replica_set in remote.replica_sets:
            replica_set.close()  # count from empty idle stacks
        connects.clear()
        for _ in range(10):
            assert isinstance(remote.execute(search), SearchResponse)
        assert isinstance(remote.execute_batch(batch), BatchResponse)
        assert len(connects) == len(set(connects))  # one per endpoint touched
        assert len(set(connects)) >= 2  # both replicas of the search's shard

    def test_update_between_reads_opens_a_fresh_connection(self, tmp_path, connects):
        service = ClusterService.from_corpus(build_corpus(), shards=2)
        service.save_dir(tmp_path)
        service.close()
        _dataset, name = CLUSTER_DATASETS[0]
        with RemoteClusterService.spawn(tmp_path, replicas=2) as remote:
            search = SearchRequest(query=QUERIES[0], document=name)
            for _ in range(2):  # one read per replica warms both
                remote.execute(search)
            connects.clear()
            for _ in range(2):
                remote.execute(search)
            assert connects == []  # every endpoint of the shard has an idle one
            xml = "<library><book><title>New Arrival</title></book></library>"
            update = UpdateRequest(action="update", document=name, xml=xml)
            assert isinstance(remote.execute_update(update), UpdateResponse)
            replica_set = remote.owner_of(name).replica_set
            assert sorted(connects) == sorted(
                endpoint.client.port for endpoint in replica_set.endpoints()
            )  # apply-update to the primary, apply-delta to the replica
            assert replica_set.primary.healthy
            connects.clear()
            probe = SearchRequest(query="arrival", document=name)
            for _ in range(2):
                assert isinstance(remote.execute(probe), SearchResponse)
            assert connects == []


class TestShardDeltaWire:
    def test_round_trip_every_kind(self):
        deltas = (
            ShardDelta(shard=0, document="a", kind="remove"),
            ShardDelta(shard=1, document="b", kind="add", xml="<a/>"),
            ShardDelta(shard=2, document="c", kind="replace", xml="<b/>"),
            ShardDelta(
                shard=3, document="d", kind="update",
                edits=(("1.2", "new text"), ("1.3", "")),
            ),
        )
        for delta in deltas:
            assert ShardDelta.from_wire(delta.to_wire()) == delta

    def test_wire_form_is_json_safe(self):
        delta = ShardDelta(shard=0, document="a", kind="update", edits=(("1", "x"),))
        assert ShardDelta.from_wire(json.loads(json.dumps(delta.to_wire()))) == delta

    @pytest.mark.parametrize(
        "wire_form",
        [
            "not a dict",
            {"shard": -1, "document": "a", "kind": "remove"},
            {"shard": True, "document": "a", "kind": "remove"},
            {"shard": 0, "document": "", "kind": "remove"},
            {"shard": 0, "document": "a", "kind": "explode"},
            {"shard": 0, "document": "a", "kind": "add", "xml": 7},
            {"shard": 0, "document": "a", "kind": "update", "edits": "nope"},
            {"shard": 0, "document": "a", "kind": "update", "edits": [["only-one"]]},
            {"shard": 0, "document": "a", "kind": "update", "edits": [[1, 2]]},
        ],
    )
    def test_malformed_wire_raises(self, wire_form):
        with pytest.raises(ClusterError):
            ShardDelta.from_wire(wire_form)


class TestShardBackend:
    def test_load_dir_rejects_out_of_range_shard(self, cluster_dir):
        with pytest.raises(ClusterError, match="outside this cluster's range"):
            ShardBackend.load_dir(cluster_dir, 7)
        with pytest.raises(ClusterError):
            ShardBackend.load_dir(cluster_dir, -1)

    def test_loaded_shard_serves_its_documents(self, cluster_dir):
        manifest = read_cluster_manifest(cluster_dir)
        backend = ShardBackend.load_dir(cluster_dir, 0)
        try:
            caps = backend.capabilities()
            assert caps["shard"] == 0
            assert caps["documents"] == len(backend.shard)
            assert caps["replication_sequence"] == 0
            assert manifest.shards == 2
        finally:
            backend.close()

    def test_replicate_unknown_op_raises(self, cluster_dir):
        backend = ShardBackend.load_dir(cluster_dir, 0)
        try:
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError, match="unknown replication op"):
                backend.handle_replicate({"op": "explode"})
            with pytest.raises(ProtocolError):
                backend.handle_replicate("not a dict")
        finally:
            backend.close()

    def test_apply_delta_for_wrong_shard_raises(self, cluster_dir):
        backend = ShardBackend.load_dir(cluster_dir, 0)
        try:
            delta = ShardDelta(shard=1, document="x", kind="remove")
            with pytest.raises(ClusterError, match="refusing to apply"):
                backend.handle_replicate(
                    {"op": "apply-delta", "delta": delta.to_wire(), "sequence": 1}
                )
        finally:
            backend.close()


class TestSpawnValidation:
    def test_spawn_rejects_bad_replica_count(self, cluster_dir):
        with pytest.raises(ClusterError, match="replicas"):
            RemoteClusterService.spawn(cluster_dir, replicas=0)

    def test_a_shard_that_dies_at_start_up_says_why(self, cluster_dir, tmp_path):
        # the child prints its ``error: …`` line on stdout, not stderr
        damaged = tmp_path / "cluster"
        shutil.copytree(cluster_dir, damaged)
        manifest = read_cluster_manifest(damaged)
        snapshot = next((damaged / manifest.shard_dirs[0]).glob("*/snapshot.bin"))
        snapshot.write_bytes(snapshot.read_bytes()[:100])
        with pytest.raises(ClusterError) as raised:
            RemoteClusterService.spawn(damaged, replicas=1)
        message = str(raised.value)
        assert message.startswith("shard 0 server exited with code 1 before publishing its port")
        assert "error: binary index" in message and "is truncated" in message

    def test_constructor_rejects_gapped_shard_ids(self):
        from repro.cluster import ReplicaSet, ShardEndpoint

        class FakeClient:
            host, port = "127.0.0.1", 1

            def close(self):
                pass

        sets = [ReplicaSet(2, [ShardEndpoint(FakeClient())])]
        with pytest.raises(ClusterError, match="exactly 0..N-1"):
            RemoteClusterService(sets)


def test_port_file_written_atomically(tmp_path):
    """serve --port-file publishes via temp + rename: the visible file is
    always complete and no staging file is left behind."""
    from repro.cli import _write_port_file

    target = tmp_path / "server.port"
    _write_port_file(str(target), 43210)
    assert target.read_text(encoding="utf-8") == "43210\n"
    assert not os.path.exists(str(target) + ".tmp")
