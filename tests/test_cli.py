"""Tests for the command-line interface."""

from __future__ import annotations

import io
import os

import pytest

from repro.cli import build_parser, main
from repro.xmltree.serialize import to_xml_string


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "analyze", "search", "ilist", "datasets", "generate", "experiment",
            "batch", "corpus-save", "corpus-update", "corpus-compact",
            "serve-request", "serve", "cluster-init", "cluster-serve-request",
            "cluster-update", "lint", "loadgen", "loadgen-ablate",
        ):
            assert command in text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_source_is_required_and_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze"])
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze", "--file", "a.xml", "--dataset", "retail"])


class TestDatasetsCommand:
    def test_lists_builtins(self):
        code, output = run_cli("datasets")
        assert code == 0
        assert "figure1" in output and "movies" in output


class TestAnalyzeCommand:
    def test_analyze_builtin(self):
        code, output = run_cli("analyze", "--dataset", "figure5-stores")
        assert code == 0
        assert "entity types:" in output
        assert "store" in output and "key=name" in output

    def test_analyze_file(self, small_retailer_tree, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(to_xml_string(small_retailer_tree), encoding="utf-8")
        code, output = run_cli("analyze", "--file", str(path))
        assert code == 0
        assert "schema nodes" in output

    def test_analyze_missing_file(self, tmp_path):
        code, output = run_cli("analyze", "--file", str(tmp_path / "missing.xml"))
        assert code == 1
        assert "error:" in output


class TestSearchCommand:
    def test_search_prints_snippets(self):
        code, output = run_cli(
            "search", "--dataset", "figure5-stores", "--query", "store texas", "--bound", "6"
        )
        assert code == 0
        assert "Levis" in output and "ESprit" in output
        assert "snippet: " in output

    def test_search_show_ilist_and_limit(self):
        code, output = run_cli(
            "search",
            "--dataset",
            "figure5-stores",
            "--query",
            "store texas",
            "--limit",
            "1",
            "--show-ilist",
        )
        assert code == 0
        assert output.count("Result #") == 1
        assert "IList:" in output

    def test_search_writes_html(self, tmp_path):
        target = tmp_path / "page.html"
        code, output = run_cli(
            "search", "--dataset", "figure5-stores", "--query", "store texas", "--html", str(target)
        )
        assert code == 0
        assert target.exists()
        assert "wrote HTML" in output

    def test_search_elca(self):
        code, output = run_cli(
            "search", "--dataset", "figure5-stores", "--query", "store texas", "--algorithm", "elca"
        )
        assert code == 0

    def test_search_invalid_query(self):
        code, output = run_cli("search", "--dataset", "figure5-stores", "--query", "the of")
        assert code == 1
        assert "error:" in output


class TestNegativeLimit:
    @pytest.mark.parametrize("command", ["search", "ilist", "batch"])
    def test_negative_limit_is_an_error_not_a_shorter_page(self, command, tmp_path):
        if command == "batch":
            queries = tmp_path / "queries.txt"
            queries.write_text("store\n", encoding="utf-8")
            query_arguments = ("--queries", str(queries))
        else:
            query_arguments = ("--query", "store")
        code, output = run_cli(
            command, "--dataset", "figure5-stores", *query_arguments, "--limit", "-1"
        )
        assert code == 1
        assert output.startswith("error: limit must be a non-negative integer")
        assert len(output.strip().splitlines()) == 1


class TestIlistCommand:
    def test_ilist_prints_kinds_and_scores(self):
        code, output = run_cli("ilist", "--dataset", "figure1", "--query", "Texas apparel retailer")
        assert code == 0
        assert "[keyword]" in output
        assert "[key" in output
        assert "DS " in output
        assert "Brook Brothers" in output

    def test_ilist_no_results(self):
        code, output = run_cli("ilist", "--dataset", "figure5-stores", "--query", "zebra")
        assert code == 0
        assert "(no results)" in output


class TestGenerateCommand:
    def test_generate_writes_parseable_xml(self, tmp_path):
        target = tmp_path / "stores.xml"
        code, output = run_cli("generate", "--dataset", "figure5-stores", "--output", str(target))
        assert code == 0
        from repro.xmltree.parser import parse_xml_file

        parsed = parse_xml_file(target)
        assert parsed.tree.root.tag == "stores"

    def test_generate_with_doctype(self, tmp_path):
        target = tmp_path / "stores.xml"
        code, _ = run_cli(
            "generate", "--dataset", "figure5-stores", "--output", str(target), "--with-doctype"
        )
        assert code == 0
        content = target.read_text(encoding="utf-8")
        assert "<!DOCTYPE stores [" in content
        from repro.xmltree.parser import parse_xml

        assert parse_xml(content).dtd_text is not None


class TestExperimentCommand:
    def test_listing_without_ids(self):
        code, output = run_cli("experiment")
        assert code == 0
        assert "F1" in output and "A2" in output

    def test_run_single_experiment(self):
        code, output = run_cli("experiment", "F3")
        assert code == 0
        assert "[F3]" in output
        assert "brook brothers" in output

    def test_unknown_experiment_id(self):
        code, output = run_cli("experiment", "Z9")
        assert code == 2
        assert "unknown experiment" in output


class TestBatchCommand:
    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "# demo batch\n"
            "store texas\n"
            "clothes casual  # inline comment\n"
            "\n"
            "the of\n",          # only stop words: skipped with a warning
            encoding="utf-8",
        )
        return str(path)

    def test_batch_over_builtin_dataset(self, query_file):
        code, output = run_cli("batch", "--queries", query_file, "--dataset", "figure5-stores")
        assert code == 0
        assert "store texas" in output
        assert "clothes casual" in output
        assert "skipping unparsable query" in output
        assert "TOTAL" in output

    def test_batch_requires_some_source(self, query_file):
        code, output = run_cli("batch", "--queries", query_file)
        assert code == 1
        assert "no documents" in output

    def test_batch_empty_query_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        code, output = run_cli("batch", "--queries", str(path), "--dataset", "figure5-stores")
        assert code == 2
        assert "no queries" in output

    def test_batch_repeat_rounds(self, query_file):
        code, output = run_cli(
            "batch", "--queries", query_file, "--dataset", "figure5-stores", "--repeat", "2"
        )
        assert code == 0
        assert "round 1/2" in output
        assert "round 2/2" in output

    def test_batch_show_snippets(self, query_file):
        code, output = run_cli(
            "batch", "--queries", query_file, "--dataset", "figure5-stores", "--show-snippets"
        )
        assert code == 0
        assert "figure5-stores :: store texas" in output


class TestCorpusSaveCommand:
    def test_save_then_batch_from_snapshot(self, tmp_path):
        snapshot = str(tmp_path / "corpus")
        code, output = run_cli(
            "corpus-save", "--dataset", "figure5-stores", "--output", snapshot
        )
        assert code == 0
        assert "saved 1 document index(es)" in output

        queries = tmp_path / "queries.txt"
        queries.write_text("store texas\n", encoding="utf-8")
        code, output = run_cli("batch", "--queries", str(queries), "--corpus-dir", snapshot)
        assert code == 0
        assert "store texas" in output
        assert "figure5-stores" in output

    def test_save_requires_source(self, tmp_path):
        code, output = run_cli("corpus-save", "--output", str(tmp_path / "corpus"))
        assert code == 1
        assert "no documents" in output

    def test_every_snapshot_is_binary_and_the_format_flag_has_one_value(self, tmp_path):
        for extra in ((), ("--format", "v4")):
            snapshot = tmp_path / f"corpus{len(extra)}"
            code, _ = run_cli(
                "corpus-save", "--dataset", "figure5-stores", "--output", str(snapshot), *extra
            )
            assert code == 0
            assert os.listdir(snapshot / "figure5-stores") == ["snapshot.bin"]
        with pytest.raises(SystemExit) as usage:
            run_cli(
                "corpus-save", "--dataset", "figure5-stores", "--format", "v3",
                "--output", str(tmp_path / "text"),
            )
        assert usage.value.code == 2
        assert not (tmp_path / "text").exists()

    def test_resave_over_a_text_corpus_serves_the_new_document(self, tmp_path):
        # The upgrade path: a directory an older build wrote as v3 text is
        # re-saved; nothing of the old document may be left to load.
        from repro.corpus import Corpus
        from tests.index.v3_writer import write_v3_corpus

        source = tmp_path / "doc.xml"
        source.write_text("<shop><name>Levis</name></shop>", encoding="utf-8")
        old = Corpus()
        old.add_file(source)
        snapshot = tmp_path / "corpus"
        write_v3_corpus(old, snapshot)
        assert Corpus.load_dir(snapshot).system("doc").run_query("levis").results

        source.write_text("<shop><name>Esprit</name></shop>", encoding="utf-8")
        code, _ = run_cli("corpus-save", "--file", str(source), "--output", str(snapshot))
        assert code == 0
        assert os.listdir(snapshot / "doc") == ["snapshot.bin"]
        reloaded = Corpus.load_dir(snapshot).system("doc")
        assert reloaded.run_query("esprit").results
        assert not reloaded.run_query("levis").results

    def test_corpus_update_journals_text_edit(self, tmp_path):
        import json

        snapshot = str(tmp_path / "corpus")
        old_xml = "<shop><store><name>Galleria</name><city>Houston</city></store><store><name>Downtown</name><city>Austin</city></store></shop>"
        new_xml = old_xml.replace("Houston", "Dallas")
        source = tmp_path / "doc.xml"
        source.write_text(old_xml, encoding="utf-8")
        code, _ = run_cli("corpus-save", "--file", str(source), "--output", snapshot)
        assert code == 0

        source.write_text(new_xml, encoding="utf-8")
        code, output = run_cli(
            "corpus-update", "--corpus-dir", snapshot, "--file", str(source)
        )
        assert code == 0
        assert "incrementally" in output
        journal = (tmp_path / "corpus" / "corpus.journal").read_text(encoding="utf-8")
        assert journal.splitlines()[1].startswith("update ")

        # the journalled edit is replayed on the next load
        request = tmp_path / "request.json"
        request.write_text(
            json.dumps(
                {
                    "kind": "search",
                    "schema_version": 1,
                    "query": "city dallas",
                    "document": "doc",
                }
            ),
            encoding="utf-8",
        )
        code, output = run_cli(
            "serve-request", "--corpus-dir", snapshot, "--request", str(request)
        )
        assert code == 0
        assert json.loads(output)["total_results"] == 1

    def test_corpus_update_remove_and_add(self, tmp_path):
        snapshot = str(tmp_path / "corpus")
        doc = tmp_path / "first.xml"
        doc.write_text("<shop><name>Levis</name></shop>", encoding="utf-8")
        run_cli("corpus-save", "--file", str(doc), "--output", snapshot)

        second = tmp_path / "second.xml"
        second.write_text("<shop><name>Esprit</name></shop>", encoding="utf-8")
        code, output = run_cli("corpus-update", "--corpus-dir", snapshot, "--file", str(second))
        assert code == 0 and "added" in output
        code, output = run_cli("corpus-update", "--corpus-dir", snapshot, "--remove", "first")
        assert code == 0 and "removed" in output

        from repro.corpus import Corpus

        assert Corpus.load_dir(snapshot).names() == ["second"]

    def test_corpus_update_add_honours_internal_dtd(self, tmp_path):
        # The DTD declares <store> as repeatable, so it classifies as an
        # entity even though the data shows a single instance; the add path
        # must ingest it exactly like corpus-save --file would.
        dtd_doc = (
            "<!DOCTYPE shop [\n"
            "<!ELEMENT shop (store*)>\n"
            "<!ELEMENT store (name)>\n"
            "<!ELEMENT name (#PCDATA)>\n"
            "]>\n"
            "<shop><store><name>Levis</name></store></shop>"
        )
        from repro.system import ExtractSystem

        source = tmp_path / "dtd-doc.xml"
        source.write_text(dtd_doc, encoding="utf-8")
        reference = ExtractSystem.from_file(source).analyzer.summary()

        snapshot = str(tmp_path / "corpus")
        seed = tmp_path / "seed.xml"
        seed.write_text("<shop><name>Seed</name></shop>", encoding="utf-8")
        run_cli("corpus-save", "--file", str(seed), "--output", snapshot)
        code, output = run_cli(
            "corpus-update", "--corpus-dir", snapshot, "--file", str(source)
        )
        assert code == 0 and "added" in output

        # The journalled snapshot carries the analyzer and the DTD, so the
        # reloaded corpus classifies exactly as the ingestion did.
        from repro.corpus import Corpus

        reloaded = Corpus.load_dir(snapshot).system("dtd-doc").analyzer
        assert reloaded.summary() == reference
        assert reloaded.dtd is not None
        assert reference["entity"] == 1  # the DTD, not the data, made store an entity

    def test_serve_request_rejects_stateless_updates(self, tmp_path):
        import json

        snapshot = str(tmp_path / "corpus")
        doc = tmp_path / "doc.xml"
        doc.write_text("<shop><name>Levis</name></shop>", encoding="utf-8")
        run_cli("corpus-save", "--file", str(doc), "--output", snapshot)
        request = tmp_path / "update.json"
        request.write_text(
            json.dumps(
                {"kind": "update", "schema_version": 1, "document": "doc", "xml": "<shop><name>Esprit</name></shop>"}
            ),
            encoding="utf-8",
        )
        code, output = run_cli(
            "serve-request", "--corpus-dir", snapshot, "--request", str(request)
        )
        assert code == 1
        payload = json.loads(output)
        assert payload["kind"] == "error"
        assert "corpus-update" in payload["message"]

    def test_corpus_update_unknown_remove_fails(self, tmp_path):
        snapshot = str(tmp_path / "corpus")
        doc = tmp_path / "doc.xml"
        doc.write_text("<shop><name>Levis</name></shop>", encoding="utf-8")
        run_cli("corpus-save", "--file", str(doc), "--output", snapshot)
        code, output = run_cli("corpus-update", "--corpus-dir", snapshot, "--remove", "ghost")
        assert code == 1
        assert "error" in output

    def test_corpus_dir_conflicts_with_sources(self, tmp_path):
        snapshot = str(tmp_path / "corpus")
        run_cli("corpus-save", "--dataset", "figure5-stores", "--output", snapshot)
        queries = tmp_path / "queries.txt"
        queries.write_text("store texas\n", encoding="utf-8")
        code, output = run_cli(
            "batch", "--queries", str(queries), "--corpus-dir", snapshot,
            "--dataset", "retail",
        )
        assert code == 1
        assert "cannot be combined" in output


class TestServeRequestCommand:
    def _write_request(self, tmp_path, payload: dict) -> str:
        import json

        path = tmp_path / "request.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_search_request_round_trip(self, tmp_path):
        import json

        request = self._write_request(
            tmp_path,
            {
                "kind": "search",
                "schema_version": 1,
                "query": "store texas",
                "document": "figure5-stores",
                "size_bound": 6,
            },
        )
        code, output = run_cli(
            "serve-request", "--dataset", "figure5-stores", "--request", request
        )
        assert code == 0
        response = json.loads(output)
        assert response["kind"] == "search_response"
        assert response["document"] == "figure5-stores"
        assert response["total_results"] >= 2
        assert all(result["snippet_edges"] <= 6 for result in response["results"])

    def test_batch_request_with_workers(self, tmp_path):
        import json

        request = self._write_request(
            tmp_path,
            {
                "kind": "batch",
                "schema_version": 1,
                "queries": ["store texas", "clothes casual"],
                "size_bound": 6,
            },
        )
        code, output = run_cli(
            "serve-request", "--dataset", "figure5-stores", "--dataset", "retail",
            "--request", request, "--workers", "4",
        )
        assert code == 0
        response = json.loads(output)
        assert response["kind"] == "batch_response"
        assert response["documents"] == ["figure5-stores", "retail"]
        assert len(response["entries"]) == 2

    def test_error_response_sets_exit_code(self, tmp_path):
        import json

        request = self._write_request(
            tmp_path,
            {
                "kind": "search",
                "schema_version": 1,
                "query": "store",
                "document": "no-such-document",
            },
        )
        code, output = run_cli(
            "serve-request", "--dataset", "figure5-stores", "--request", request
        )
        assert code == 1
        response = json.loads(output)
        assert response["kind"] == "error"
        assert "no-such-document" in response["message"]

    def test_malformed_json_is_protocol_error(self, tmp_path):
        import json

        path = tmp_path / "request.json"
        path.write_text("{broken", encoding="utf-8")
        code, output = run_cli(
            "serve-request", "--dataset", "figure5-stores", "--request", str(path)
        )
        assert code == 1
        response = json.loads(output)
        assert response["error"] == "ProtocolError"

    def test_pretty_flag_indents(self, tmp_path):
        request = self._write_request(
            tmp_path,
            {
                "kind": "search",
                "schema_version": 1,
                "query": "store texas",
                "document": "figure5-stores",
            },
        )
        code, output = run_cli(
            "serve-request", "--dataset", "figure5-stores", "--request", request, "--pretty"
        )
        assert code == 0
        assert output.startswith("{\n")

    def test_serve_request_from_corpus_snapshot(self, tmp_path):
        import json

        snapshot = str(tmp_path / "corpus")
        run_cli("corpus-save", "--dataset", "figure5-stores", "--output", snapshot)
        request = self._write_request(
            tmp_path,
            {
                "kind": "search",
                "schema_version": 1,
                "query": "store texas",
                "document": "figure5-stores",
                "size_bound": 6,
            },
        )
        code, output = run_cli("serve-request", "--corpus-dir", snapshot, "--request", request)
        assert code == 0
        assert json.loads(output)["total_results"] >= 2


class TestServeCommand:
    """The HTTP frontend, driven end to end through the CLI."""

    def _serve_in_thread(self, tmp_path, *extra):
        import os
        import threading
        import time

        port_file = str(tmp_path / "port")
        result: dict = {}

        def run():
            result["code"], result["output"] = run_cli(
                "serve", "--port", "0", "--port-file", port_file, *extra
            )

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.time() + 30
        while not os.path.exists(port_file):
            assert time.time() < deadline, "server never wrote its port file"
            assert thread.is_alive(), result
            time.sleep(0.05)
        with open(port_file, "r", encoding="utf-8") as handle:
            port = int(handle.read().strip())
        return thread, port, result

    def test_serve_corpus_over_http(self, tmp_path):
        from repro.api import SearchRequest, ServiceClient

        thread, port, result = self._serve_in_thread(
            tmp_path,
            "--dataset", "figure5-stores",
            "--max-requests", "3",
            "--max-in-flight", "4",
            "--deadline", "30",
        )
        client = ServiceClient(port=port)
        assert client.health()["status"] == "ok"
        response = client.execute(
            SearchRequest(query="store texas", document="figure5-stores", size_bound=6)
        )
        assert response.total_results >= 2
        assert client.stats()["requests"]["total"] >= 1  # 3rd request stops the server
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["code"] == 0
        assert "served 3 request(s)" in result["output"]

    def test_serve_cluster_backend(self, tmp_path):
        from repro.api import SearchRequest, ServiceClient

        cluster_dir = str(tmp_path / "cluster")
        code, _ = run_cli(
            "cluster-init", "--dataset", "figure5-stores", "--dataset", "retail",
            "--shards", "2", "--output", cluster_dir,
        )
        assert code == 0
        thread, port, result = self._serve_in_thread(
            tmp_path, "--cluster-dir", cluster_dir, "--max-requests", "2"
        )
        client = ServiceClient(port=port)
        assert client.capabilities()["shards"] == 2
        response = client.execute(
            SearchRequest(query="store texas", document="figure5-stores", size_bound=6)
        )
        assert response.total_results >= 2
        thread.join(timeout=30)
        assert result["code"] == 0

    def test_cluster_dir_conflicts_with_sources(self, tmp_path):
        code, output = run_cli(
            "serve", "--cluster-dir", str(tmp_path), "--dataset", "retail",
        )
        assert code == 1
        assert "--cluster-dir cannot be combined" in output


class TestLoadgenCommand:
    def test_plan_only_is_seed_deterministic(self):
        argv = (
            "loadgen", "--dataset", "retail", "--seed", "7",
            "--requests", "12", "--plan-only",
        )
        code_a, first = run_cli(*argv)
        code_b, second = run_cli(*argv)
        assert code_a == code_b == 0
        assert first == second  # byte-identical plans, acceptance criterion
        import json

        plan = json.loads(first)
        assert set(plan) == {"signature", "sequence"}
        assert len(plan["sequence"]) == 12

    def test_different_seed_changes_the_plan(self):
        import json

        _, first = run_cli(
            "loadgen", "--dataset", "retail", "--seed", "7", "--requests",
            "12", "--plan-only",
        )
        _, second = run_cli(
            "loadgen", "--dataset", "retail", "--seed", "8", "--requests",
            "12", "--plan-only",
        )
        assert json.loads(first)["signature"] != json.loads(second)["signature"]

    def test_bad_mix_is_an_error(self):
        code, output = run_cli(
            "loadgen", "--dataset", "retail", "--mix", "scan=1", "--plan-only",
        )
        assert code == 1
        assert "error:" in output

    def test_open_loop_arrival_requires_rate(self):
        code, output = run_cli(
            "loadgen", "--dataset", "retail", "--arrival", "poisson",
            "--plan-only",
        )
        assert code == 1
        assert "rate" in output

    def test_ablate_requires_corpus_sources(self):
        code, output = run_cli("loadgen-ablate")
        assert code == 1
        assert "corpus sources" in output

    def test_serve_rejects_negative_cache_size(self):
        code, output = run_cli(
            "serve", "--dataset", "retail", "--cache-size", "-1",
        )
        assert code == 1
        assert "cache-size" in output
