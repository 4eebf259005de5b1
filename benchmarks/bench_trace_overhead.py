"""Observability overhead — the traced stack vs a bare gateway.

The acceptance bound: the full observability stack — tracing spans,
histogram observations and the trace buffer — may add at most **30 µs**
to a warm in-process search against the same gateway with tracing and
metrics disabled.  Observability that taxes the hot path gets turned off
in production, so the budget is part of the contract.

The budget is an absolute cost per request, not a ratio.  What tracing
does per request is fixed — a few span records, one histogram
observation, one buffer append — while the request it wraps gets cheaper
as the serving path does.  When a warm hit stopped re-rendering its
snippets, the bare request here fell from ≈ 900 to ≈ 250 µs (2-core VM)
and a tracing cost that had itself fallen from ≈ 40 to ≈ 33 µs went from
4–6 % to 13 % of it.  A ratio would fail a change for making serving
faster.  ``docs/observability.md`` records the measured costs.

Measurement design, each piece earned by an A/A test (two identical
stacks must read ~1.00):

* both gateways wrap ONE shared service, so both read one warm result
  cache — separate services, each with caches of its own, read as ~10%
  phantom overhead;
* every timed batch starts with a short untimed warm-up on the same
  stack — switching stacks has its own cost (inline caches, branch
  predictors) that must not land inside the measurement;
* rounds alternate ABBA / BAAB order — a fixed ABBA order leaves a ~3%
  positional bias that alternation cancels;
* each attempt reports the **median** of per-round costs (traced minus
  bare, per request), which a single noisy round cannot drag;
* the gate takes the **best of up to three attempts**.  Timing noise on
  a shared host is strictly additive — load spikes and GC pauses only
  ever slow a batch down — so the lowest attempt is the closest to the
  true cost.  A real regression reads high on *every* attempt and still
  fails; a noisy neighbour does not produce false alarms.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.api import SearchRequest, SnippetService
from repro.api.gateway import build_gateway
from repro.corpus import Corpus

#: Tracing a warm search costs a handful of span records plus one
#: histogram observation — bounded work, so a bounded cost per request.
MAX_TRACE_OVERHEAD_US = 30.0
ROUNDS = 30
ATTEMPTS = 3
#: requests per timed batch: INNER passes over the 8 request texts
INNER = 4

QUERIES = ("store texas", "store austin", "clothes casual", "retailer apparel")


def _fresh_service() -> SnippetService:
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    corpus.add_builtin("retail")
    return SnippetService(corpus)


def _request_texts() -> list[str]:
    return [
        json.dumps(
            SearchRequest(query=query, document=document, size_bound=6).to_dict(),
            sort_keys=True,
        )
        for query in QUERIES
        for document in ("stores", "retail")
    ]


def test_traced_stack_within_overhead_budget():
    service = _fresh_service()
    plain = build_gateway(service, tracing=False, metrics=False)
    traced = build_gateway(service)
    texts = _request_texts()

    def batch(stack) -> float:
        # Untimed lead-in absorbs the cost of switching stacks.
        for text in texts[:4]:
            stack.handle_json(text)
        started = time.perf_counter()
        for _ in range(INNER):
            for text in texts:
                stack.handle_json(text)
        return time.perf_counter() - started

    requests = 2 * INNER * len(texts)  # per stack per round

    def attempt() -> float:
        costs = []
        for round_index in range(ROUNDS):
            if round_index % 2 == 0:
                p1 = batch(plain)
                t1 = batch(traced)
                t2 = batch(traced)
                p2 = batch(plain)
            else:
                t1 = batch(traced)
                p1 = batch(plain)
                p2 = batch(plain)
                t2 = batch(traced)
            costs.append((t1 + t2 - p1 - p2) / requests * 1e6)
        return statistics.median(costs)

    try:
        # Warm every cache through both stacks before timing either, and
        # insist on identical answers first — a fast wrong stack is not a
        # measurement.
        plain_bodies = [plain.handle_json(text) for text in texts]
        traced_bodies = [traced.handle_json(text) for text in texts]
        assert plain_bodies == traced_bodies

        attempts = []
        for _ in range(ATTEMPTS):
            attempts.append(attempt())
            if attempts[-1] <= MAX_TRACE_OVERHEAD_US:
                break
    finally:
        # One shared service: close it once, through the outer stack.
        traced.close()

    # full observability ≤ 30 µs per warm search (µs per attempt below)
    assert min(attempts) <= MAX_TRACE_OVERHEAD_US, attempts
