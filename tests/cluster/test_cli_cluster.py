"""CLI tests for the cluster subcommands (init / serve-request --cluster-dir /
update / spawn)."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import main
from repro.cluster import ClusterService, read_cluster_manifest
from repro.xmltree.serialize import to_xml_string
from tests.cli_process import sigterm_one_search


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


@pytest.fixture()
def cluster_dir(tmp_path):
    path = tmp_path / "cluster"
    code, output = run_cli(
        "cluster-init",
        "--dataset", "figure5-stores",
        "--dataset", "retail",
        "--dataset", "movies",
        "--shards", "3",
        "--output", str(path),
    )
    assert code == 0, output
    return path


class TestClusterInit:
    def test_init_reports_shard_layout(self, cluster_dir):
        manifest = read_cluster_manifest(cluster_dir)
        assert manifest.shards == 3
        assert manifest.version == 1
        loaded = ClusterService.load_dir(cluster_dir)
        assert loaded.names() == ["figure5-stores", "movies", "retail"]

    def test_init_with_explicit_assignments(self, tmp_path):
        path = tmp_path / "pinned"
        code, output = run_cli(
            "cluster-init",
            "--dataset", "figure5-stores",
            "--dataset", "retail",
            "--shards", "2",
            "--assign", "figure5-stores=1",
            "--assign", "retail=0",
            "--output", str(path),
        )
        assert code == 0, output
        loaded = ClusterService.load_dir(path)
        assert loaded.owner_of("figure5-stores").shard_id == 1
        assert loaded.owner_of("retail").shard_id == 0

    def test_bad_assignment_syntax(self, tmp_path):
        code, output = run_cli(
            "cluster-init", "--dataset", "retail", "--shards", "2",
            "--assign", "retail", "--output", str(tmp_path / "x"),
        )
        assert code == 1
        assert "NAME=SHARD" in output

    def test_default_shard_requires_assign(self, tmp_path):
        code, output = run_cli(
            "cluster-init", "--dataset", "retail", "--shards", "2",
            "--default-shard", "1", "--output", str(tmp_path / "x"),
        )
        assert code == 1
        assert "--default-shard" in output


class TestClusterServeRequest:
    def test_search_round_trip(self, cluster_dir, tmp_path):
        request = tmp_path / "request.json"
        request.write_text(
            json.dumps(
                {
                    "kind": "search", "schema_version": 1,
                    "query": "movie drama", "document": "movies",
                }
            ),
            encoding="utf-8",
        )
        code, output = run_cli(
            "serve-request", "--cluster-dir", str(cluster_dir),
            "--request", str(request),
        )
        assert code == 0, output
        payload = json.loads(output)
        assert payload["kind"] == "search_response"
        assert payload["total_results"] >= 1
        assert "meta" not in payload  # default wire form stays deterministic

    def test_matches_serve_request_byte_for_byte(self, cluster_dir, tmp_path):
        corpus_dir = tmp_path / "corpus"
        code, _ = run_cli(
            "corpus-save", "--dataset", "figure5-stores", "--dataset", "retail",
            "--dataset", "movies", "--output", str(corpus_dir),
        )
        assert code == 0
        request = tmp_path / "request.json"
        request.write_text(
            json.dumps(
                {
                    "kind": "batch", "schema_version": 1,
                    "queries": ["store texas", "movie drama"],
                }
            ),
            encoding="utf-8",
        )
        code_single, single_output = run_cli(
            "serve-request", "--corpus-dir", str(corpus_dir), "--request", str(request)
        )
        code_cluster, cluster_output = run_cli(
            "serve-request", "--cluster-dir", str(cluster_dir),
            "--request", str(request),
        )
        assert code_single == code_cluster == 0
        assert single_output == cluster_output

    def test_update_requests_are_rejected(self, cluster_dir, tmp_path):
        request = tmp_path / "update.json"
        request.write_text(
            json.dumps(
                {
                    "kind": "update", "schema_version": 1,
                    "document": "movies", "xml": "<root><a>x</a></root>",
                }
            ),
            encoding="utf-8",
        )
        code, output = run_cli(
            "serve-request", "--cluster-dir", str(cluster_dir),
            "--request", str(request),
        )
        assert code == 1
        payload = json.loads(output)
        assert payload["kind"] == "error"
        assert "cluster-update" in payload["message"]

    def test_malformed_request_fails_fast(self, cluster_dir, tmp_path):
        request = tmp_path / "bad.json"
        request.write_text("{not json", encoding="utf-8")
        code, output = run_cli(
            "serve-request", "--cluster-dir", str(cluster_dir),
            "--request", str(request),
        )
        assert code == 1
        assert json.loads(output)["error"] == "ProtocolError"

    def test_cluster_dir_is_authoritative(self, cluster_dir, tmp_path):
        request = tmp_path / "request.json"
        request.write_text(
            json.dumps(
                {"kind": "search", "schema_version": 1, "query": "store", "document": "retail"}
            ),
            encoding="utf-8",
        )
        code, output = run_cli(
            "serve-request", "--cluster-dir", str(cluster_dir), "--dataset", "retail",
            "--request", str(request),
        )
        assert code == 1
        assert "--cluster-dir cannot be combined" in output


class TestClusterUpdate:
    def edited_xml(self, cluster_dir, document: str, old: str, new: str) -> str:
        loaded = ClusterService.load_dir(cluster_dir)
        tree = loaded.owner_of(document).corpus.system(document).index.tree
        from repro.xmltree.diff import clone_tree

        copy = clone_tree(tree)
        for node in copy.iter_nodes():
            if node.text == old:
                node.text = new
        return to_xml_string(copy)

    def test_incremental_update_journalled_onowner_of(self, cluster_dir, tmp_path):
        xml = self.edited_xml(cluster_dir, "figure5-stores", "Texas", "Nevada")
        edited = tmp_path / "figure5-stores.xml"
        edited.write_text(xml, encoding="utf-8")
        code, output = run_cli(
            "cluster-update", "--cluster-dir", str(cluster_dir), "--file", str(edited)
        )
        assert code == 0, output
        assert "routing 'figure5-stores' to shard" in output
        assert "journalled as deltas" in output
        assert "version 1 -> 2" in output
        manifest = read_cluster_manifest(cluster_dir)
        assert manifest.version == 2
        # exactly one shard gained a journal, and a reload replays it
        journals = [
            subdir
            for subdir in manifest.shard_dirs
            if (cluster_dir / subdir / "corpus.journal").exists()
        ]
        assert len(journals) == 1
        loaded = ClusterService.load_dir(cluster_dir)
        from repro.api import SearchRequest

        response = loaded.run(
            SearchRequest(query="store nevada", document="figure5-stores", size_bound=6)
        )
        assert response.total_results >= 1

    def test_add_routes_by_partitioner(self, cluster_dir, tmp_path):
        new_doc = tmp_path / "newdoc.xml"
        new_doc.write_text("<root><name>alpha beta</name></root>", encoding="utf-8")
        code, output = run_cli(
            "cluster-update", "--cluster-dir", str(cluster_dir), "--file", str(new_doc)
        )
        assert code == 0, output
        loaded = ClusterService.load_dir(cluster_dir)
        assert "newdoc" in loaded
        expected = loaded.partitioner.shard_of("newdoc")
        assert loaded.owner_of("newdoc").shard_id == expected

    def test_remove_and_unknown_remove(self, cluster_dir):
        code, output = run_cli(
            "cluster-update", "--cluster-dir", str(cluster_dir), "--remove", "retail"
        )
        assert code == 0, output
        assert "removed 'retail'" in output
        assert "retail" not in ClusterService.load_dir(cluster_dir)
        code, output = run_cli(
            "cluster-update", "--cluster-dir", str(cluster_dir), "--remove", "ghost"
        )
        assert code == 1
        assert "no document named 'ghost' in the cluster" in output

    def test_shard_compaction_folds_cluster_journal(self, cluster_dir, tmp_path):
        # cluster-update journals on the shard; corpus-compact on that
        # shard directory folds it back into base snapshots.
        xml = self.edited_xml(cluster_dir, "figure5-stores", "Texas", "Utah")
        edited = tmp_path / "figure5-stores.xml"
        edited.write_text(xml, encoding="utf-8")
        code, _ = run_cli(
            "cluster-update", "--cluster-dir", str(cluster_dir), "--file", str(edited)
        )
        assert code == 0
        manifest = read_cluster_manifest(cluster_dir)
        shard_dir = next(
            subdir
            for subdir in manifest.shard_dirs
            if (cluster_dir / subdir / "corpus.journal").exists()
        )
        before = ClusterService.load_dir(cluster_dir)
        from repro.api import SearchRequest

        probe = SearchRequest(query="store utah", document="figure5-stores", size_bound=6)
        expected = json.dumps(before.handle_dict(probe.to_dict()), sort_keys=True)
        code, output = run_cli("corpus-compact", "--corpus-dir", str(cluster_dir / shard_dir))
        assert code == 0, output
        assert not (cluster_dir / shard_dir / "corpus.journal").exists()
        after = ClusterService.load_dir(cluster_dir)
        assert json.dumps(after.handle_dict(probe.to_dict()), sort_keys=True) == expected


class TestClusterRebalance:
    def test_prints_the_one_moved_line(self, cluster_dir):
        source = ClusterService.load_dir(cluster_dir).owner_of("retail").shard_id
        target = (source + 1) % 3
        code, output = run_cli(
            "cluster-rebalance", "--cluster-dir", str(cluster_dir),
            "--document", "retail", "--to-shard", str(target),
        )
        assert code == 0, output
        assert output == (
            f"moved 'retail': shard {source} -> shard {target} (manifest version 2)\n"
        )
        assert ClusterService.load_dir(cluster_dir).owner_of("retail").shard_id == target


@pytest.fixture()
def spawned_pids(monkeypatch):
    """The pid of every shard process ``RemoteClusterService.spawn`` starts."""
    from repro.cluster import remote

    pids: list[int] = []
    spawn = remote.spawn_shard_server

    def recording(*args, **kwargs):
        process = spawn(*args, **kwargs)
        pids.append(process.process.pid)
        return process

    monkeypatch.setattr(remote, "spawn_shard_server", recording)
    return pids


def assert_gone(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestClusterSpawn:
    def test_a_failure_after_the_spawn_terminates_every_shard(
        self, cluster_dir, tmp_path, spawned_pids
    ):
        code, output = run_cli(
            "cluster-spawn", "--cluster-dir", str(cluster_dir), "--port", "0",
            "--request-log", str(tmp_path),  # a directory: the log cannot open
        )
        assert code == 1
        assert output.startswith("error: ")
        assert len(spawned_pids) == 3
        assert_gone(spawned_pids)

    def test_spawn_that_fails_part_way_leaves_no_child(self, cluster_dir, spawned_pids):
        from repro.cluster import RemoteClusterService

        with pytest.raises(ValueError, match="interval"):
            RemoteClusterService.spawn(cluster_dir, health_interval=0)
        assert len(spawned_pids) == 3
        assert_gone(spawned_pids)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process tables from /proc")
    def test_sigterm_unwinds_and_stops_the_shards(self, cluster_dir, tmp_path):
        code, stdout, log_lines, shards = sigterm_one_search(
            tmp_path, "cluster-spawn", "--cluster-dir", str(cluster_dir),
            document="figure5-stores",
        )
        assert code == 0
        assert stdout.rstrip().endswith("served 1 request(s)")
        assert len(log_lines) == 1
        assert len(shards) == 3
        assert_gone(shards)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process tables from /proc")
    def test_sigterm_with_a_connection_held_open_stops_the_shards(self, cluster_dir, tmp_path):
        # The client holds its connection to the coordinator, and the
        # coordinator holds pooled connections to its shards, while the
        # signal lands: every server must still stop within the deadline.
        code, stdout, log_lines, shards = sigterm_one_search(
            tmp_path, "cluster-spawn", "--cluster-dir", str(cluster_dir),
            document="figure5-stores", hold_connection=True,
        )
        assert code == 0
        assert stdout.rstrip().endswith("served 1 request(s)")
        assert len(log_lines) == 1
        assert len(shards) == 3
        assert_gone(shards)
