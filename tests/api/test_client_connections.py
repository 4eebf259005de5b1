"""ServiceClient's connection pool: one shared client, few connections.

Every request of a :class:`~repro.api.ServiceClient` borrows an idle
keep-alive connection (or opens one) and returns it afterwards, so one
client is shared by any number of threads — the load harness
(``repro.eval.loadgen``) and a cluster coordinator's per-endpoint clients
both rely on that.  The properties are asserted against the same
:class:`MiniServer` the retry tests use, because *connections observed by
the server* is the ground truth a mocked transport cannot fake.
"""

from __future__ import annotations

import sys
import threading

from repro.api import ServiceClient
from repro.api.client import MAX_IDLE_CONNECTIONS

from test_client_resend import MiniServer


def run_threads(count: int, target) -> None:
    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


class TestSharedClient:
    def test_n_threads_m_requests_cost_at_most_n_connections(self):
        # More threads than cores and a short switch interval: a lost
        # update on the idle stack would hand one connection to two
        # threads (crossed answers) or leak connections (more than N).
        threads, requests = 6, 20
        answers: dict[int, list[str]] = {}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MiniServer(serve_per_connection=10 ** 6) as server:
                with ServiceClient(port=server.port) as client:
                    def work(worker: int) -> None:
                        answers[worker] = [
                            client.trace(f"w{worker}-{index}")["path"]
                            for index in range(requests)
                        ]

                    run_threads(threads, work)
                assert 1 <= server.connections <= threads
        finally:
            sys.setswitchinterval(previous)
        for worker in range(threads):
            assert answers[worker] == [
                f"/v1/trace/w{worker}-{index}" for index in range(requests)
            ]

    def test_client_is_usable_after_close(self):
        with MiniServer(serve_per_connection=100) as server:
            client = ServiceClient(port=server.port)
            assert client.health()["status"] == "ok"
            client.close()
            # the next request opens a new connection
            assert client.health()["status"] == "ok"
            client.close()
            assert server.connections == 2

    def test_idle_stack_is_capped(self):
        # Twice, MAX_IDLE_CONNECTIONS + 2 requests are in flight at once
        # (the server answers none until all have arrived).  The first
        # burst opens a connection each and keeps only MAX of them idle;
        # the second reuses those MAX and opens 2.
        width = MAX_IDLE_CONNECTIONS + 2
        gate = threading.Barrier(width, timeout=10)
        with MiniServer(serve_per_connection=100, gate=gate) as server:
            with ServiceClient(port=server.port) as client:
                for burst in (1, 2):
                    run_threads(width, lambda _worker: client.health())
                    assert server.connections == width + (burst - 1) * 2

    def test_keep_alive_false_keeps_no_idle_connection(self):
        with MiniServer(serve_per_connection=100) as server:
            client = ServiceClient(port=server.port, keep_alive=False)
            for _ in range(3):
                assert client.health()["status"] == "ok"
            assert server.connections == 3

    def test_metrics_text_rides_the_pool(self):
        with MiniServer(serve_per_connection=100) as server:
            with ServiceClient(port=server.port) as client:
                assert client.health()["status"] == "ok"
                text = client.metrics_text()
                assert client.health()["status"] == "ok"
            # the body comes back as text, undecoded
            assert text == (
                '{"status": "ok", "connection": 1, '
                '"path": "/v1/metrics?format=prometheus"}'
            )
            assert server.connections == 1
