"""Admission control behind the HTTP frontend.

The server runs at most ``executor.max_workers`` backend calls at once, so
an admission limit sheds load only when it is below that: with
``max_in_flight`` < workers the excess answers ``503 overloaded`` at once,
and ``serve`` / ``cluster-spawn`` refuse a ``--max-in-flight`` that could
never shed a request.
"""

from __future__ import annotations

import io
import json
import subprocess
import threading
import time

import pytest

from repro.api import SearchRequest, SnippetService, build_gateway
from repro.api.executors import ConcurrentExecutor
from repro.api.http import HttpServer
from repro.cli import main
from repro.corpus import Corpus
from tests.api.hooked import Gate, Hooked
from tests.cli_process import spawn_cli


def _post(port: int, payload: str) -> tuple[int, dict]:
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/v1/search", body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestLimitBelowWorkers:
    def test_excess_is_shed_before_the_gate_opens(self):
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        gate = Gate()
        stack = build_gateway(Hooked(SnippetService(corpus), gate), max_in_flight=2)
        payload = json.dumps(SearchRequest(query="store texas", document="stores").to_dict())
        answers: list[tuple[int, dict]] = []
        lock = threading.Lock()

        with ConcurrentExecutor(max_workers=4) as executor:
            with HttpServer(stack, port=0, executor=executor) as server:

                def one() -> None:
                    answer = _post(server.port, payload)
                    with lock:
                        answers.append(answer)

                threads = [threading.Thread(target=one) for _ in range(6)]
                for thread in threads:
                    thread.start()
                try:
                    for _ in range(2):
                        assert gate.entered.acquire(timeout=10)
                    deadline = time.monotonic() + 10
                    while len(answers) < 4 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    with lock:
                        early = list(answers)
                    # nothing else reached the backend while the gate was shut
                    assert not gate.entered.acquire(timeout=0.2)
                finally:
                    gate.release.set()
                    for thread in threads:
                        thread.join(timeout=30)
        assert [(status, body["code"]) for status, body in early] == [(503, "overloaded")] * 4
        assert sorted(status for status, _ in answers) == [200, 200, 503, 503, 503, 503]
        assert stack.stats()["admission"] == {"max_in_flight": 2, "admitted": 2, "rejected": 4}


class TestWedgedBackendFlood:
    def test_threads_stay_bounded_and_come_back(self):
        # A backend that never answers, an admission limit, a deadline and
        # a flood over keep-alive connections: every answer is a shed or a
        # timeout, and the only threads that outlive a request are the two
        # admitted calls stuck in the backend.
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        gate = Gate()
        stack = build_gateway(
            Hooked(SnippetService(corpus), gate), max_in_flight=2, deadline=0.1
        )
        payload = json.dumps(SearchRequest(query="store texas", document="stores").to_dict())
        connections, posts, stuck, workers = 8, 200, 2, 4
        answers: list[tuple[int, str]] = []
        lock = threading.Lock()
        go, finished = threading.Event(), threading.Event()

        with ConcurrentExecutor(max_workers=workers) as executor:
            with HttpServer(stack, port=0, executor=executor) as server:

                def flood() -> None:
                    import http.client

                    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
                    go.wait(timeout=30)
                    try:
                        for _ in range(posts // connections):
                            connection.request("POST", "/v1/search", body=payload)
                            response = connection.getresponse()
                            answer = (response.status, json.loads(response.read())["code"])
                            with lock:
                                answers.append(answer)
                        finished.wait(timeout=30)
                    finally:
                        connection.close()

                clients = [threading.Thread(target=flood) for _ in range(connections)]
                for client in clients:
                    client.start()
                baseline = set(threading.enumerate())
                peak = 0
                go.set()
                try:
                    deadline = time.monotonic() + 30
                    while len(answers) < posts and time.monotonic() < deadline:
                        peak = max(peak, _started_since(baseline))
                        time.sleep(0.001)
                    assert len(answers) == posts
                    # one connection thread each, the stuck calls, and at
                    # most one deadline thread per worker slot in passing
                    assert peak <= connections + stuck + workers + 2
                    gate.release.set()
                    assert _settles(baseline, connections)
                finally:
                    gate.release.set()
                    finished.set()
                    for client in clients:
                        client.join(timeout=30)
        assert set(answers) <= {(503, "overloaded"), (504, "deadline_exceeded")}
        assert answers.count((504, "deadline_exceeded")) == stuck


def _started_since(baseline: set[threading.Thread]) -> int:
    """Live threads that were not running at ``baseline`` (threads other
    tests left behind may end meanwhile; they are not counted either way)."""
    return len(set(threading.enumerate()) - baseline)


def _settles(baseline: set[threading.Thread], count: int, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while _started_since(baseline) != count:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _cluster_dir(tmp_path) -> str:
    directory = str(tmp_path / "cluster")
    argv = ["cluster-init", "--dataset", "figure5-stores", "--shards", "1", "--output", directory]
    assert main(argv, out=io.StringIO()) == 0
    return directory


@pytest.mark.parametrize("command", ["serve", "cluster-spawn"])
def test_limit_at_or_above_workers_is_refused(tmp_path, command):
    source = (
        ("--dataset", "figure5-stores")
        if command == "serve"
        else ("--cluster-dir", _cluster_dir(tmp_path))
    )
    process = spawn_cli(
        command, *source, "--port", "0", "--workers", "4", "--max-in-flight", "8"
    )
    try:
        stdout, stderr = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        pytest.fail(f"{command} served with --max-in-flight 8 --workers 4")
    assert process.returncode == 1
    assert "Traceback" not in stderr
    [line] = [line for line in stdout.splitlines() if line.startswith("error:")]
    assert "--max-in-flight 8" in line and "--workers 4" in line
