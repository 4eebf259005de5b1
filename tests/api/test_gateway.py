"""Tests for the gateway (:mod:`repro.api.gateway`).

The contracts under test:

* the gateway (and both service facades) satisfies the checked
  :class:`~repro.api.backend.ServingBackend` protocol;
* admission control under concurrent load rejects the overflow with
  ``overloaded`` (never deadlocks, never loses a slot), while admitted
  requests complete correctly;
* deadline expiry surfaces a structured ``deadline_exceeded`` error;
* the step order is observable (capabilities list, admission inside the
  deadline, metrics counting shed load);
* metrics count what actually happened.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import (
    BatchRequest,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    ServingBackend,
    SnippetService,
    build_gateway,
)
from repro.corpus import Corpus
from tests.api.hooked import Gate, Hooked


@pytest.fixture()
def service():
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    return SnippetService(corpus)


REQUEST = SearchRequest(query="store texas", document="stores", size_bound=6)


class TestServingBackendProtocol:
    def test_service_is_a_backend(self, service):
        assert isinstance(service, ServingBackend)

    def test_cluster_is_a_backend(self):
        from repro.cluster import ClusterService

        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        assert isinstance(ClusterService.from_corpus(corpus, shards=2), ServingBackend)

    def test_gateway_is_a_backend(self, service):
        for stack in (
            build_gateway(service),
            build_gateway(service, max_in_flight=2, deadline=1.0),
            build_gateway(service, metrics=False, tracing=False),
        ):
            assert isinstance(stack, ServingBackend), stack

    def test_client_is_a_backend(self):
        from repro.api import ServiceClient

        assert isinstance(ServiceClient(port=1), ServingBackend)

    def test_capabilities_report_chain_innermost_first(self, service):
        stack = build_gateway(service, max_in_flight=2, deadline=5.0)
        caps = stack.capabilities()
        assert caps["backend"] == "snippet-service"
        assert caps["middleware"] == ["admission", "deadline", "metrics", "tracing"]
        assert caps["documents"] == 1
        assert build_gateway(service, metrics=False, tracing=False).capabilities()[
            "middleware"
        ] == []


class TestValidation:
    def test_invalid_request_short_circuits(self, service):
        # A wire payload is validated where it is parsed: the garbage is a
        # bad_request counted under "invalid" that never takes a slot.
        stack = build_gateway(service, max_in_flight=1)
        garbage = {"kind": "search", "schema_version": 1, "query": "", "document": "stores"}
        body = stack.handle_dict(garbage)
        assert body["code"] == "bad_request"
        stats = stack.stats()
        assert stats["requests"]["by_kind"] == {"invalid": 1}
        assert stats["requests"]["by_code"] == {"bad_request": 1}
        assert stats["admission"] == {"max_in_flight": 1, "admitted": 0, "rejected": 0}


class TestDeadline:
    def test_fast_request_unaffected(self, service):
        stack = build_gateway(service, deadline=30.0)
        try:
            response = stack.execute(REQUEST)
            assert isinstance(response, SearchResponse)
        finally:
            stack.close()

    def test_expiry_surfaces_timeout_error(self, service):
        stack = build_gateway(Hooked(service, lambda _request: time.sleep(0.5)), deadline=0.05)
        try:
            started = time.perf_counter()
            response = stack.execute(REQUEST)
            elapsed = time.perf_counter() - started
            assert isinstance(response, ErrorResponse)
            assert response.code == "deadline_exceeded"
            assert response.error == "DeadlineError"
            assert response.request["query"] == REQUEST.query
            assert elapsed < 0.4  # answered at the deadline, not after the work
        finally:
            stack.close()

    def test_rejects_non_positive_timeout(self, service):
        with pytest.raises(ValueError):
            build_gateway(service, deadline=0)

    def test_worker_exception_propagates(self, service):
        def broken(_request):
            raise RuntimeError("programming error")

        stack = build_gateway(Hooked(service, broken), deadline=5.0)
        with pytest.raises(RuntimeError, match="programming error"):
            stack.execute(REQUEST)

    def test_abandoned_worker_keeps_its_admission_slot(self, service):
        # Admission runs INSIDE the deadline: a timed-out request's worker
        # must hold its slot until the backend call really finishes, so
        # max_in_flight bounds actual backend concurrency and a wedged
        # backend sheds later arrivals instead of stacking abandoned
        # workers.
        gate = Gate()
        stack = build_gateway(Hooked(service, gate), max_in_flight=1, deadline=0.2)

        stuck = stack.execute(REQUEST)
        assert stuck.code == "deadline_exceeded"
        shed = stack.execute(REQUEST)  # slot still held by the stuck worker
        assert shed.code == "overloaded"
        gate.release.set()
        deadline = time.time() + 10
        while time.time() < deadline:  # slot frees once the worker finishes
            response = stack.execute(REQUEST)
            if isinstance(response, SearchResponse):
                break
            time.sleep(0.05)
        assert isinstance(response, SearchResponse)
        assert stack.stats()["admission"]["rejected"] >= 1

    def test_abandoned_workers_never_block_new_requests(self, service):
        # A timed-out request's worker keeps running in the background;
        # requests admitted afterwards must get a *fresh* worker, not
        # queue behind the dead one and burn their deadline waiting.
        release = threading.Event()
        calls = []
        lock = threading.Lock()

        def stuck_once(_request):
            with lock:
                calls.append(None)
                first = len(calls) == 1
            if first:
                assert release.wait(timeout=30)

        stack = build_gateway(Hooked(service, stuck_once), deadline=0.2)
        try:
            stuck = stack.execute(REQUEST)
            assert stuck.code == "deadline_exceeded"
            fresh = stack.execute(REQUEST)  # must not wait for the stuck worker
            assert isinstance(fresh, SearchResponse)
        finally:
            release.set()


class TestAdmissionControl:
    def test_burst_beyond_limit_gets_overloaded(self, service):
        limit = 2
        extra = 4
        gate = Gate()
        stack = build_gateway(Hooked(service, gate), max_in_flight=limit)
        responses: list = [None] * (limit + extra)

        def call(index):
            responses[index] = stack.execute(REQUEST)

        threads = [
            threading.Thread(target=call, args=(index,))
            for index in range(limit + extra)
        ]
        for thread in threads[:limit]:
            thread.start()
        # Wait until both admitted requests are inside the gate, so the
        # burst below deterministically finds every slot taken.
        for _ in range(limit):
            assert gate.entered.acquire(timeout=10)
        for thread in threads[limit:]:
            thread.start()
        for thread in threads[limit:]:
            thread.join(timeout=10)  # rejections return without the gate
            assert not thread.is_alive(), "overload path blocked (deadlock?)"
        gate.release.set()
        for thread in threads[:limit]:
            thread.join(timeout=30)
            assert not thread.is_alive()

        overloaded = [r for r in responses if isinstance(r, ErrorResponse)]
        served = [r for r in responses if isinstance(r, SearchResponse)]
        assert len(overloaded) == extra
        assert len(served) == limit
        for response in overloaded:
            assert response.code == "overloaded"
            assert response.error == "OverloadedError"
        for response in served:  # admitted work completed correctly
            assert response.total_results >= 2
        stats = stack.stats()["admission"]
        assert stats == {"max_in_flight": limit, "admitted": limit, "rejected": extra}

    def test_slots_are_released_after_completion(self, service):
        stack = build_gateway(service, max_in_flight=1)
        for _ in range(5):  # sequential requests never trip the limit
            assert isinstance(stack.execute(REQUEST), SearchResponse)
        assert stack.stats()["admission"]["rejected"] == 0

    def test_slot_released_when_backend_errors(self, service):
        stack = build_gateway(service, max_in_flight=1)
        for _ in range(3):
            response = stack.execute(SearchRequest(query="x", document="ghost"))
            assert response.code == "unknown_document"
        assert stack.stats()["admission"]["admitted"] == 3

    def test_rejects_non_positive_limit(self, service):
        with pytest.raises(ValueError):
            build_gateway(service, max_in_flight=0)


class TestMetrics:
    def test_counts_requests_and_errors(self, service):
        logged = []
        stack = build_gateway(
            service, log=lambda req, resp, secs: logged.append((req.kind, resp.kind))
        )
        stack.execute(REQUEST)
        stack.execute(SearchRequest(query="x", document="ghost"))
        stack.execute_batch(BatchRequest(queries=("store",)))
        stats = stack.stats()["requests"]
        assert stats["total"] == 3
        assert stats["by_kind"] == {"search": 2, "batch": 1}
        assert stats["errors"] == 1
        assert stats["by_code"] == {"unknown_document": 1}
        assert stats["seconds"] > 0
        assert logged == [
            ("search", "search_response"),
            ("search", "error"),
            ("batch", "batch_response"),
        ]

    def test_failing_logger_never_fails_the_request(self, service):
        def bad_log(*_args):
            raise RuntimeError("observability crashed")

        stack = build_gateway(service, log=bad_log)
        assert isinstance(stack.execute(REQUEST), SearchResponse)

    def test_malformed_payloads_are_counted(self, service):
        # Garbage never produces a typed request, but a flood of it must
        # still be visible in the stats (the "invalid" kind bucket).
        stack = build_gateway(service)
        stack.handle_json("{not json")
        stack.handle_dict({"kind": "nope"})
        stack.handle_dict([1, 2])
        stack.execute(REQUEST)
        stats = stack.stats()["requests"]
        assert stats["total"] == 4
        assert stats["by_kind"] == {"invalid": 3, "search": 1}
        assert stats["errors"] == 3
        assert stats["by_code"] == {"bad_request": 3}

    def test_parseable_requests_counted_exactly_once(self, service):
        stack = build_gateway(service)
        stack.handle_dict(REQUEST.to_dict())
        assert stack.stats()["requests"]["total"] == 1


class TestOrdering:
    def test_metrics_outermost_counts_shed_load(self, service):
        gate = Gate()
        stack = build_gateway(Hooked(service, gate), max_in_flight=1)

        blocker = threading.Thread(target=stack.execute, args=(REQUEST,))
        blocker.start()
        assert gate.entered.acquire(timeout=10)
        rejected = stack.execute(REQUEST)
        gate.release.set()
        blocker.join(timeout=30)
        assert rejected.code == "overloaded"
        stats = stack.stats()["requests"]
        assert stats["total"] == 2  # the shed request was counted too
        assert stats["by_code"] == {"overloaded": 1}

    def test_close_closes_the_whole_stack(self, service):
        from repro.cluster import ClusterService

        cluster = ClusterService.from_corpus(service.corpus, shards=2)
        closed: list[int] = []
        for shard in cluster.shards:

            def recording(_shard=shard, _close=shard.close):
                closed.append(_shard.shard_id)
                _close()

            shard.close = recording
        stack = build_gateway(cluster, max_in_flight=2, deadline=5.0)
        stack.close()
        # closing the gateway reaches every shard behind the router
        assert closed == [0, 1]

    def test_gateway_wire_bytes_match_bare_backend(self, service):
        corpus = Corpus()
        corpus.add_builtin("figure5-stores", name="stores")
        bare = SnippetService(corpus)
        stack = build_gateway(service, max_in_flight=8, deadline=30.0)
        try:
            for payload in (
                REQUEST.to_dict(),
                BatchRequest(queries=("store texas",)).to_dict(),
                SearchRequest(query="x", document="ghost").to_dict(),
            ):
                text = json.dumps(payload)
                assert stack.handle_json(text) == bare.handle_json(text)
        finally:
            stack.close()


class TestTracingMeta:
    """The tracing stage hands a finished trace to ``handle_dict`` only for
    a request that opted into ``meta``, and never one from another request."""

    def test_meta_carries_this_requests_trace_and_default_bytes_do_not(self, service):
        stack = build_gateway(service)
        plain = json.loads(stack.handle_json(json.dumps(REQUEST.to_dict())))
        assert "meta" not in plain
        assert getattr(stack._finished, "trace", None) is None  # nothing handed over
        payload = dict(REQUEST.to_dict(), include_meta=True)
        first = stack.handle_dict(payload)["meta"]["trace"]
        second = stack.handle_dict(payload)["meta"]["trace"]
        assert first["request_id"] != second["request_id"]
        assert [span["name"] for span in first["spans"]][-1] == "request:search"

    def test_a_joined_trace_never_serves_a_leftover_handoff(self, service):
        from repro.obs.trace import Trace, activate

        stack = build_gateway(service)
        opted_in = SearchRequest(
            query="store texas", document="stores", size_bound=6, include_meta=True
        )
        stack.execute(opted_in)  # no handle_dict frame to collect the trace
        joined = Trace(request_id="from-a-coordinator", process="server:1")
        with activate(joined):
            body = stack.handle_dict(opted_in.to_dict())
        assert "trace" not in body["meta"]
        assert [span.name for span in joined.spans][-1] == "request:search"
