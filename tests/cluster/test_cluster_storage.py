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
    rebalance_document,
    saved_cluster_documents,
)
from repro.corpus import Corpus, journal_update
from repro.errors import ClusterError, StorageError
from repro.index.storage import directory_documents
from repro.xmltree.builder import tree_from_dict

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
        response = loaded.run_update(
            UpdateRequest(document="fresh", xml="<root><name>alpha</name></root>")
        )
        # persist the update by re-saving the shard that took it
        shard_dir = tmp_path / "cluster" / f"shard-{response.shard}"
        loaded.shards[response.shard].corpus.save_dir(shard_dir)
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


class TestRebalanceCrash:
    def test_a_rerun_after_the_targets_add_converges(self, tmp_path):
        # A crash between the target's add and the source's remove leaves
        # the document on both shards.  With the source at the lower id the
        # name still resolves to the source, and a re-run finishes the move:
        # the target's add finds the document and journals nothing.
        corpus = Corpus()
        for name in "abcd":
            corpus.add_tree(name, tree_from_dict("r", {"x": name}, name=name))
        path = tmp_path / "cluster"
        ClusterService.from_corpus(corpus, shards=2).save_dir(path)
        manifest = read_cluster_manifest(path)
        document = min(
            name for name, (shard, _) in saved_cluster_documents(path, manifest).items()
            if shard == 0
        )
        source, target = (path / manifest.shard_dirs[shard] for shard in (0, 1))
        index = Corpus.load_dir(source).system(document).index
        journal_update(target, Corpus.load_dir(target), document, index.tree, index.analyzer.dtd)
        assert document in Corpus.load_dir(source) and document in Corpus.load_dir(target)

        assert rebalance_document(path, document, 1).manifest_version == 2
        assert document not in Corpus.load_dir(source)
        assert list(directory_documents(target).values()).count(document) == 1
        assert ClusterService.load_dir(path).owner_of(document).shard_id == 1

    def test_a_rerun_converges_when_the_target_has_the_lower_id(self, tmp_path):
        # The same crash on a move from shard 1 to shard 0: the name now
        # resolves to the target, and the re-run removes the copy on the
        # source instead of refusing a move to where the name resolves.
        corpus = Corpus()
        for name in "abcd":
            corpus.add_tree(name, tree_from_dict("r", {"x": name}, name=name))
        path = tmp_path / "cluster"
        ClusterService.from_corpus(corpus, shards=2).save_dir(path)
        manifest = read_cluster_manifest(path)
        document = min(
            name for name, (shard, _) in saved_cluster_documents(path, manifest).items()
            if shard == 1
        )
        target, source = (path / manifest.shard_dirs[shard] for shard in (0, 1))
        index = Corpus.load_dir(source).system(document).index
        journal_update(target, Corpus.load_dir(target), document, index.tree, index.analyzer.dtd)
        assert saved_cluster_documents(path, manifest)[document][0] == 0

        report = rebalance_document(path, document, 0)
        assert (report.source_shard, report.target_shard, report.manifest_version) == (1, 0, 2)
        assert document not in Corpus.load_dir(source)
        assert list(directory_documents(target).values()).count(document) == 1
        assert ClusterService.load_dir(path).owner_of(document).shard_id == 0
        with pytest.raises(ClusterError, match="nothing to rebalance"):
            rebalance_document(path, document, 0)
