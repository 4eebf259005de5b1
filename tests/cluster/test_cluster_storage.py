"""Whole-cluster persistence: staged loads, atomic saves, no partial clusters."""

from __future__ import annotations

import json
import os

import pytest

from repro.api import SearchRequest, UpdateRequest
from repro.cluster import (
    CLUSTER_MANIFEST_FILE,
    ClusterService,
    ExplicitPartitioner,
    read_cluster_manifest,
)
from repro.errors import StorageError

from tests.cluster.conftest import QUERIES, build_corpus


def wire_all(service, names) -> list[str]:
    return [
        json.dumps(
            service.handle_dict(
                SearchRequest(query=query, document=name, size_bound=6).to_dict()
            ),
            sort_keys=True,
        )
        for name in names
        for query in QUERIES
    ]


class TestSaveLoadRoundTrip:
    @pytest.mark.parametrize("shards", (1, 3))
    def test_round_trip_byte_identical(self, tmp_path, shards):
        cluster = ClusterService.from_corpus(build_corpus(), shards=shards)
        names = cluster.names()
        before = wire_all(cluster, names)
        subdirs = cluster.save_dir(tmp_path / "cluster")
        assert subdirs == [f"shard-{i}" for i in range(shards)]
        loaded = ClusterService.load_dir(tmp_path / "cluster")
        assert loaded.names() == names
        assert loaded.manifest_version == 1
        assert wire_all(loaded, names) == before

    def test_save_writes_manifest_last(self, tmp_path):
        # The manifest is the commit point; every shard directory it names
        # must already be a loadable corpus when it appears.
        cluster = ClusterService.from_corpus(build_corpus(), shards=2)
        cluster.save_dir(tmp_path / "cluster")
        manifest = read_cluster_manifest(tmp_path / "cluster")
        for subdir in manifest.shard_dirs:
            assert (tmp_path / "cluster" / subdir / "corpus.manifest").exists()

    def test_resave_bumps_version(self, tmp_path):
        cluster = ClusterService.from_corpus(build_corpus(), shards=2)
        cluster.save_dir(tmp_path / "cluster")
        cluster.save_dir(tmp_path / "cluster")
        assert read_cluster_manifest(tmp_path / "cluster").version == 2
        # the parked previous manifest is cleaned up after the commit
        assert not (tmp_path / "cluster" / f"{CLUSTER_MANIFEST_FILE}.prev").exists()

    def test_resave_over_a_corrupt_manifest_refuses(self, tmp_path):
        # Guessing "version 1" over an unreadable manifest would silently
        # reset the monotonic update counter; the save must stop instead.
        cluster = ClusterService.from_corpus(build_corpus(), shards=2)
        path = tmp_path / "cluster"
        cluster.save_dir(path)
        manifest = path / CLUSTER_MANIFEST_FILE
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace("#end\n", ""), encoding="utf-8"
        )
        with pytest.raises(StorageError, match="truncated"):
            cluster.save_dir(path)
        # the damaged manifest is left in place for inspection
        assert manifest.exists()

    def test_failed_resave_parks_the_old_manifest(self, tmp_path, monkeypatch):
        cluster = ClusterService.from_corpus(build_corpus(), shards=2)
        path = tmp_path / "cluster"
        cluster.save_dir(path)

        def boom(_directory):
            raise StorageError("disk full")

        monkeypatch.setattr(cluster.shards[1].corpus, "save_dir", boom)
        with pytest.raises(StorageError, match="disk full"):
            cluster.save_dir(path)
        # the half-rewritten directory refuses to load (no stale manifest
        # describing mixed shard state) ...
        with pytest.raises(StorageError, match="does not contain a saved eXtract cluster"):
            ClusterService.load_dir(path)
        # ... but the previous manifest is parked, not destroyed
        parked = path / f"{CLUSTER_MANIFEST_FILE}.prev"
        assert parked.exists()
        parked.rename(path / CLUSTER_MANIFEST_FILE)
        assert ClusterService.load_dir(path).names() == cluster.names()

    def test_explicit_partitioner_survives_round_trip(self, tmp_path):
        partitioner = ExplicitPartitioner(
            {"stores": 1, "retail": 0, "movies": 1, "bibliography": 0}, 2, default=0
        )
        cluster = ClusterService.from_corpus(build_corpus(), partitioner=partitioner)
        cluster.save_dir(tmp_path / "cluster")
        loaded = ClusterService.load_dir(tmp_path / "cluster")
        assert isinstance(loaded.partitioner, ExplicitPartitioner)
        assert loaded.partitioner.assignments == partitioner.assignments
        assert loaded.partitioner.default == 0
        assert loaded.owner_of("stores").shard_id == 1

    def test_journalled_updates_replay_on_load(self, tmp_path):
        cluster = ClusterService.from_corpus(build_corpus(), shards=2)
        cluster.save_dir(tmp_path / "cluster")
        loaded = ClusterService.load_dir(tmp_path / "cluster")
        _response, delta = loaded.run_update_with_delta(
            UpdateRequest(document="fresh", xml="<root><name>alpha</name></root>")
        )
        # persist the delta the way cluster-update does: re-save the shard
        shard_dir = tmp_path / "cluster" / f"shard-{delta.shard}"
        loaded.shards[delta.shard].corpus.save_dir(shard_dir)
        reloaded = ClusterService.load_dir(tmp_path / "cluster")
        assert "fresh" in reloaded
        probe = SearchRequest(query="alpha", document="fresh")
        assert json.dumps(
            reloaded.handle_dict(probe.to_dict()), sort_keys=True
        ) == json.dumps(loaded.handle_dict(probe.to_dict()), sort_keys=True)


class TestCorruptClusters:
    def save_cluster(self, tmp_path) -> str:
        cluster = ClusterService.from_corpus(build_corpus(), shards=3)
        path = tmp_path / "cluster"
        cluster.save_dir(path)
        return os.fspath(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = self.save_cluster(tmp_path)
        os.remove(os.path.join(path, CLUSTER_MANIFEST_FILE))
        with pytest.raises(StorageError, match="does not contain a saved eXtract cluster"):
            ClusterService.load_dir(path)

    def test_missing_shard_directory_rejected(self, tmp_path):
        import shutil

        path = self.save_cluster(tmp_path)
        shutil.rmtree(os.path.join(path, "shard-1"))
        with pytest.raises(StorageError):
            ClusterService.load_dir(path)

    def test_truncated_shard_snapshot_rejected(self, tmp_path):
        path = self.save_cluster(tmp_path)
        # Truncate one document snapshot inside one shard: the staged load
        # must refuse the whole cluster, not serve the intact shards.
        for shard in sorted(os.listdir(path)):
            shard_path = os.path.join(path, shard)
            if not os.path.isdir(shard_path):
                continue
            for doc in sorted(os.listdir(shard_path)):
                snapshot = os.path.join(shard_path, doc, "snapshot.bin")
                if os.path.exists(snapshot):
                    with open(snapshot, "rb") as handle:
                        data = handle.read()
                    with open(snapshot, "wb") as handle:
                        handle.write(data[:-5])
                    with pytest.raises(StorageError):
                        ClusterService.load_dir(path)
                    return
        raise AssertionError("no shard snapshot found to corrupt")

    def test_corrupt_shard_journal_rejected(self, tmp_path):
        path = self.save_cluster(tmp_path)
        journal = os.path.join(path, "shard-0", "corpus.journal")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("#extract-corpus-journal v1\nupdate ghost-dir 1\n")
        with pytest.raises(StorageError):
            ClusterService.load_dir(path)
