"""Unit tests for the trace model: spans, propagation, buffer, stitching."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.trace import (
    MAX_SPANS,
    Span,
    Trace,
    TraceBuffer,
    activate,
    call_in_trace,
    current_span_id,
    current_trace,
    format_trace,
    parse_trace_header,
    trace_header_value,
)


class TestSpanRecording:
    def test_nested_spans_parent_automatically(self):
        trace = Trace()
        with trace.span("outer") as outer_id:
            with trace.span("inner") as inner_id:
                pass
        spans = {span.name: span for span in trace.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == outer_id
        assert spans["inner"].span_id == inner_id

    def test_span_ids_are_deterministic_per_process(self):
        trace = Trace(process="local")
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        assert [span.span_id for span in trace.spans] == ["local:1", "local:2"]

    def test_sibling_spans_share_a_parent(self):
        trace = Trace()
        with trace.span("root") as root_id:
            with trace.span("first"):
                pass
            with trace.span("second"):
                pass
        spans = {span.name: span for span in trace.spans}
        assert spans["first"].parent_id == root_id
        assert spans["second"].parent_id == root_id

    def test_add_span_parents_under_open_span(self):
        trace = Trace()
        with trace.span("root") as root_id:
            leaf_id = trace.add_span("queue", 0.005)
        leaf = next(span for span in trace.spans if span.span_id == leaf_id)
        assert leaf.parent_id == root_id
        assert leaf.seconds == 0.005

    def test_add_span_explicit_parent_wins(self):
        trace = Trace()
        anchor = trace.add_span("anchor", 0.0)
        child = trace.add_span("child", 0.001, parent_id=anchor)
        recorded = next(span for span in trace.spans if span.span_id == child)
        assert recorded.parent_id == anchor

    def test_attributes_round_trip(self):
        trace = Trace()
        with trace.span("work", shard=3, role="primary"):
            pass
        wire = trace.to_wire()["spans"][0]
        assert wire["attributes"] == {"shard": 3, "role": "primary"}
        assert Span.from_wire(wire).attributes == {"shard": 3, "role": "primary"}

    def test_max_spans_cap_counts_drops(self):
        trace = Trace()
        for index in range(MAX_SPANS + 7):
            trace.add_span(f"s{index}", 0.0)
        wire = trace.to_wire()
        assert len(wire["spans"]) == MAX_SPANS
        assert wire["dropped_spans"] == 7


class TestContextPropagation:
    def test_no_trace_by_default(self):
        assert current_trace() is None
        assert current_span_id() is None

    def test_activate_scopes_the_trace(self):
        trace = Trace()
        with activate(trace):
            assert current_trace() is trace
        assert current_trace() is None

    def test_activate_seeds_parenting(self):
        trace = Trace()
        with activate(trace, parent_span_id="local:9"):
            span_id = trace.add_span("leaf", 0.0)
        leaf = next(span for span in trace.spans if span.span_id == span_id)
        assert leaf.parent_id == "local:9"

    def test_activate_none_masks_outer_trace(self):
        trace = Trace()
        with activate(trace):
            with activate(None):
                assert current_trace() is None
            assert current_trace() is trace

    def test_plain_thread_does_not_inherit(self):
        trace = Trace()
        seen: list[Trace | None] = []
        with activate(trace):
            worker = threading.Thread(target=lambda: seen.append(current_trace()))
            worker.start()
            worker.join()
        assert seen == [None]


class TestWireFormat:
    def test_to_wire_round_trips_through_span_from_wire(self):
        trace = Trace(request_id="req-1", process="local")
        with trace.span("root"):
            pass
        wire = trace.to_wire()
        assert wire["request_id"] == "req-1"
        restored = [Span.from_wire(span) for span in wire["spans"]]
        assert restored[0].name == "root"
        assert restored[0].process == "local"

    def test_absorb_header_reparents_remote_roots(self):
        trace = Trace(process="local")
        remote = [
            {"name": "http:/v1/search", "id": "server:9:1", "parent": None,
             "seconds": 0.01, "start": 0.0, "process": "server:9"},
            {"name": "request:search", "id": "server:9:2", "parent": "server:9:1",
             "seconds": 0.009, "start": 0.001, "process": "server:9"},
        ]
        with trace.span("http:POST /v1/search") as anchor:
            trace.absorb_header(json.dumps(remote))
        spans = {span.span_id: span for span in trace.spans}
        assert spans["server:9:1"].parent_id == anchor
        # interior links survive the stitch
        assert spans["server:9:2"].parent_id == "server:9:1"

    def test_absorb_header_reparents_unknown_parents(self):
        trace = Trace()
        with trace.span("anchor") as anchor:
            trace.absorb_header(json.dumps(
                [{"name": "orphan", "id": "x:1", "parent": "never-shipped",
                  "seconds": 0.0, "start": 0.0, "process": "x"}]
            ))
        orphan = next(span for span in trace.spans if span.span_id == "x:1")
        assert orphan.parent_id == anchor

    def test_absorb_header_ignores_garbage_rows(self):
        trace = Trace()
        trace.absorb_header(json.dumps(["not-a-dict", 42]))
        assert trace.spans == []


class TestTraceHeader:
    def test_round_trip(self):
        trace = Trace()
        assert parse_trace_header(trace_header_value(trace)) == trace.request_id

    @pytest.mark.parametrize(
        "value", [None, "", "   ", "x" * 65, "bad header", "semi;colon", "a\nb", "café", "x²"]
    )
    def test_malformed_values_are_absent(self, value):
        assert parse_trace_header(value) is None

    def test_token_characters_allowed(self):
        assert parse_trace_header("abc-DEF_1.2:3") == "abc-DEF_1.2:3"


class TestTraceBuffer:
    def test_put_get(self):
        buffer = TraceBuffer(capacity=4)
        trace = Trace(request_id="one")
        buffer.put(trace)
        assert buffer.get("one")["request_id"] == "one"
        assert buffer.get("missing") is None

    def test_capacity_evicts_oldest(self):
        buffer = TraceBuffer(capacity=2)
        for request_id in ("a", "b", "c"):
            buffer.put(Trace(request_id=request_id))
        assert len(buffer) == 2
        assert buffer.get("a") is None
        assert buffer.get("c") is not None

    def test_reinsert_moves_to_newest(self):
        buffer = TraceBuffer(capacity=2)
        buffer.put(Trace(request_id="a"))
        buffer.put(Trace(request_id="b"))
        buffer.put(Trace(request_id="a"))  # refresh
        buffer.put(Trace(request_id="c"))  # evicts b, not a
        assert buffer.get("a") is not None
        assert buffer.get("b") is None

    def test_newest_is_newest_first(self):
        buffer = TraceBuffer(capacity=8)
        for request_id in ("a", "b", "c"):
            buffer.put(Trace(request_id=request_id))
        assert [wire["request_id"] for wire in buffer.newest(2)] == ["c", "b"]

    def test_a_request_id_put_twice_answers_with_its_newest_trace(self):
        buffer = TraceBuffer(capacity=8)
        first, second = Trace(request_id="a"), Trace(request_id="a")
        second.add_span("retried", 0.0)
        buffer.put(first)
        buffer.put(Trace(request_id="b"))
        buffer.put(second)
        assert len(buffer) == 2
        assert [wire["request_id"] for wire in buffer.newest()] == ["a", "b"]
        assert [span["name"] for span in buffer.get("a")["spans"]] == ["retried"]


class TestRequestIds:
    def test_a_fresh_trace_is_named_once_on_first_read(self):
        trace = Trace()
        assert trace._request_id is None  # nobody has asked yet
        request_id = trace.request_id
        assert trace.request_id == request_id
        assert parse_trace_header(request_id) == request_id
        assert Trace().request_id != request_id

    def test_concurrent_first_reads_agree(self, monkeypatch):
        import itertools
        import time

        from repro.obs import trace as trace_module

        class SlowCounter:
            """Yields the thread between taking a number and using it."""

            numbers = itertools.count(1)

            def __next__(self):
                number = next(self.numbers)
                time.sleep(0.0005)
                return number

        monkeypatch.setattr(trace_module, "_REQUEST_ID_COUNTER", SlowCounter())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                trace = Trace()
                seen: list[str] = []
                workers = [
                    threading.Thread(target=lambda: seen.append(trace.request_id))
                    for _ in range(8)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=10)
                assert not any(worker.is_alive() for worker in workers)
                assert len(seen) == 8 and len(set(seen)) == 1
        finally:
            sys.setswitchinterval(interval)

    def test_a_given_id_is_kept(self):
        assert Trace(request_id="req-9").request_id == "req-9"


class TestCallInTrace:
    def test_the_call_runs_as_the_root_span_of_the_active_trace(self):
        trace = Trace(process="local")

        def work(argument):
            assert current_trace() is trace
            with trace.span("child"):
                pass
            return argument * 2

        assert call_in_trace(trace, "request:search", work, 21) == 42
        assert current_trace() is None and current_span_id() is None
        spans = {span.name: span for span in trace.spans}
        root = spans["request:search"]
        assert (root.span_id, root.parent_id, root.start) == ("local:1", None, 0.0)
        assert spans["child"].parent_id == "local:1"
        assert root.seconds >= spans["child"].seconds

    def test_a_failing_call_still_records_the_root_and_restores_the_context(self):
        trace = Trace()

        def fail(_argument):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            call_in_trace(trace, "request:search", fail, None)
        assert current_trace() is None
        assert [span.name for span in trace.spans] == ["request:search"]

    @pytest.mark.parametrize("capacity", [0, -1, True, 1.5])
    def test_invalid_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=capacity)


class TestFormatTrace:
    def test_renders_an_indented_tree(self):
        trace = Trace(request_id="req-7")
        with trace.span("request:search"):
            with trace.span("stage:metrics"):
                pass
        text = format_trace(trace.to_wire())
        lines = text.splitlines()
        assert lines[0] == "trace req-7"
        assert lines[1].startswith("  - request:search")
        assert lines[2].startswith("    - stage:metrics")

    def test_notes_dropped_spans(self):
        trace = Trace()
        for index in range(MAX_SPANS + 1):
            trace.add_span(f"s{index}", 0.0)
        assert "dropped" in format_trace(trace.to_wire())
