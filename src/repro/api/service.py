"""The :class:`SnippetService` facade: typed requests in, typed responses out.

This is the serving surface the ROADMAP's concurrent-serving work builds
on.  A service owns a :class:`repro.corpus.Corpus` and executes
:class:`~repro.api.protocol.SearchRequest` /
:class:`~repro.api.protocol.BatchRequest` payloads:

* ``run*`` methods raise :class:`~repro.errors.ExtractError` subclasses —
  the in-process API;
* ``execute*`` methods never raise library errors — failures become
  :class:`~repro.api.protocol.ErrorResponse`, the behaviour a wire
  endpoint wants;
* :meth:`handle_dict` / :meth:`handle_json` speak plain JSON objects for
  frontends like the CLI ``serve-request`` subcommand.

Thread safety: the underlying pipeline never mutates shared engine state
(:meth:`repro.system.ExtractSystem.run_query`), the LRU caches lock
internally, and a keyword lookup only reads the index's term map — so one
service instance may execute requests from many threads and return
responses identical to serial execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.api.backend import ServingBackend, ServingBackendBase, stats_envelope
from repro.api.protocol import (
    BatchEntry,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    SnippetPayload,
    UpdateRequest,
    UpdateResponse,
    encode_page_token,
)
from repro.errors import ExtractError, ProtocolError
from repro.search.query import KeywordQuery
from repro.search.xseek import ResultConstruction
from repro.snippet.render import render_snippet_text
from repro.obs.clock import perf_counter
from repro.obs.trace import current_trace
from repro.utils.timing import TimingBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus import Corpus, CorpusEntry, DocumentUpdate
    from repro.search.results import QueryResult
    from repro.snippet.generator import GeneratedSnippet


class SnippetService(ServingBackendBase):
    """Execute typed search/batch requests over a corpus.

    >>> from repro.corpus import Corpus
    >>> from repro.api import SearchRequest, SnippetService
    >>> corpus = Corpus()
    >>> _ = corpus.add_builtin("figure5-stores", name="stores")
    >>> service = SnippetService(corpus)
    >>> response = service.run(SearchRequest(query="store texas", document="stores", size_bound=6))
    >>> response.total_results >= 2
    True
    """

    backend_name = "snippet-service"

    def __init__(self, corpus: "Corpus"):
        self.corpus = corpus

    # ------------------------------------------------------------------ #
    # single requests
    # ------------------------------------------------------------------ #
    def run(
        self, request: SearchRequest, entry: "CorpusEntry | None" = None
    ) -> SearchResponse:
        """Execute one request; raises :class:`ExtractError` on failure.

        ``entry`` executes against an already-captured corpus entry
        (snapshot semantics for fan-outs racing re-registration) instead
        of resolving ``request.document`` now.
        """
        request.validate()
        if entry is None:
            entry = self.corpus.entry(request.document)
        return self._run_on_entry(request, entry, KeywordQuery.parse(request.query))

    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        """Like :meth:`run`, but failures become an :class:`ErrorResponse`."""
        try:
            return self.run(request)
        except ExtractError as error:
            return ErrorResponse.from_exception(error, request=request.to_dict())

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def run_batch(
        self, batch: BatchRequest, entries: "list[CorpusEntry] | None" = None
    ) -> BatchResponse:
        """Execute a batch: every query over every selected document.

        Each query string is parsed once (strings normalising to the same
        keyword tuple share a :class:`KeywordQuery`).  Queries run in order
        and, per query, documents in order, so response order is
        deterministic.

        ``entries``, when given, aligns with ``batch.documents`` and pins
        each one to an already-captured corpus entry (snapshot semantics
        for the cluster router's per-shard sub-batches — a concurrent
        remove cannot fail the fan-out part-way).
        """
        batch.validate()
        if entries is not None:
            if batch.documents is None or len(entries) != len(batch.documents):
                raise ProtocolError(
                    f"entries length {len(entries)} does not match the batch's "
                    "documents"
                )
            names = list(batch.documents)
        elif batch.documents is not None:
            names = list(batch.documents)
            entries = [self.corpus.entry(name) for name in names]
        else:
            # Snapshot semantics for "every registered document": a
            # concurrent remove/add cannot fail the batch part-way.
            entries = self.corpus.entries_snapshot()
            names = [entry.name for entry in entries]
            batch.check_fanout(len(names))

        shared = KeywordQuery.share([KeywordQuery.parse(raw) for raw in batch.queries])
        answered = []
        for raw, parsed in zip(batch.queries, shared):
            started = perf_counter()
            responses = tuple(
                self._run_on_entry(batch.search_request(raw, entry.name), entry, parsed)
                for entry in entries
            )
            answered.append(
                BatchEntry(query=raw, responses=responses, seconds=perf_counter() - started)
            )
        return BatchResponse(entries=tuple(answered), documents=tuple(names))

    def execute_batch(
        self, batch: BatchRequest
    ) -> BatchResponse | ErrorResponse:
        try:
            return self.run_batch(batch)
        except ExtractError as error:
            return ErrorResponse.from_exception(error, request=batch.to_dict())

    # ------------------------------------------------------------------ #
    # document lifecycle
    # ------------------------------------------------------------------ #
    def run_update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply a document-lifecycle request to the serving corpus.

        ``update`` upserts: a registered document is diffed and updated
        incrementally where possible (:meth:`repro.corpus.Corpus.
        update_document` — posting-level deltas, targeted cache
        invalidation, atomic swap under the corpus serving lock); an
        unknown name is registered from the carried XML (its DOCTYPE
        internal subset, if any, informs classification).  ``remove``
        unregisters the document.  Requests already being served keep the
        previous version until the swap; they are never torn mid-flight.
        """
        return self.run_update_with_report(request)[0]

    def run_update_with_report(
        self, request: UpdateRequest
    ) -> "tuple[UpdateResponse, DocumentUpdate]":
        """Like :meth:`run_update`, but also returns the raw corpus report.

        The report carries what the wire response deliberately omits — the
        applied text edits above all — which is exactly what a primary
        shard's ``apply-update`` op
        (:meth:`repro.cluster.ShardBackend.handle_replicate`) needs to
        describe the operation as a delta (:meth:`repro.cluster.ShardDelta.of`)
        instead of a document.
        """
        from repro.xmltree.parser import parse_xml

        request.validate()
        started = perf_counter()
        if request.action == "remove":
            report = self.corpus.remove_document(request.document)
        else:
            parsed = parse_xml(request.xml or "", name=request.document)
            report = self.corpus.apply_update(request.document, parsed.tree, dtd=parsed.dtd())
        response = UpdateResponse(
            document=report.document,
            action=report.action,
            incremental=report.incremental,
            nodes=report.nodes,
            changed_nodes=report.changed_nodes,
            changed_terms=report.changed_terms,
            structural_reason=report.structural_reason,
            seconds=perf_counter() - started,
            cache_entries_kept=report.cache_entries_kept,
            cache_entries_invalidated=report.cache_entries_invalidated,
        )
        return response, report

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        """Like :meth:`run_update`, but failures become an :class:`ErrorResponse`."""
        try:
            return self.run_update(request)
        except ExtractError as error:
            return ErrorResponse.from_exception(error, request=request.to_dict())

    # JSON endpoints (handle_dict / handle_text / handle_json /
    # handle_encoded) come from ServingBackendBase, shared byte-for-byte
    # with the cluster router.

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def cache_stats(self) -> dict[str, dict[str, dict[str, float]]]:
        """Atomic per-document serving-cache counters, JSON-ready: the
        result cache (``query``) and the root memo (``roots``) of
        :meth:`ExtractSystem.cache_stats`.

        Iterates a snapshot of the registry, so a document removed while
        the stats are being collected is simply absent from the report
        instead of crashing the monitoring call.
        """
        return {
            entry.name: {
                cache: counters.as_dict() for cache, counters in entry.system.cache_stats().items()
            }
            for entry in self.corpus.entries_snapshot()
        }

    def capabilities(self) -> dict[str, Any]:
        caps = super().capabilities()
        caps["documents"] = len(self.corpus)
        return caps

    def stats(self) -> dict[str, Any]:
        return stats_envelope(
            self.backend_name,
            documents=len(self.corpus),
            caches=self.cache_stats(),
            live_versions=self.corpus.live_versions(),
        )

    def __repr__(self) -> str:
        return f"<SnippetService documents={len(self.corpus)}>"

    # ------------------------------------------------------------------ #
    # pipeline plumbing
    # ------------------------------------------------------------------ #
    def _run_on_entry(
        self,
        request: SearchRequest,
        entry: "CorpusEntry",
        parsed: KeywordQuery,
    ) -> SearchResponse:
        """Execute a validated request against one captured corpus entry."""
        system = entry.system
        started = perf_counter()
        outcome = system.run_query(
            parsed,
            size_bound=request.size_bound,
            limit=request.limit,
            construction=ResultConstruction(request.construction),
            use_cache=request.use_cache,
        )
        # The phases go to this request's breakdown — the cold call's own
        # (search phases included), or a fresh one on a hit.
        from_cache = outcome.from_cache
        breakdown = TimingBreakdown() if from_cache else outcome.timings
        if request.include_snippets:
            # The page is the unit of snippet work: reading it generates
            # the snippets of this page nobody has read yet, so cold cost
            # scales with page_size and a generated page is a slice of
            # slots that carry their rendered payloads.
            page_items = outcome.snippets.page(
                request.page, request.page_size, timings=breakdown
            )
            seconds = perf_counter() - started
            payloads = tuple(self._snippet_payload(generated) for generated in page_items)
        else:
            # Results only: the batch's slots stay empty, so the same
            # query with snippets later reuses this search.
            seconds = perf_counter() - started
            page_items = outcome.results.page(request.page, request.page_size)
            payloads = tuple(self._result_payload(result) for result in page_items)
        count = len(outcome.results)
        total = outcome.results.total_results
        # The phases this request executed: a hit on a generated page
        # skipped engine and generator alike and reports none.
        timings = breakdown.as_dict() if request.include_meta else {}
        trace = current_trace()
        if trace is not None:
            # The engine's own per-phase breakdown becomes leaf spans of
            # this service call, so a stitched trace reaches from the
            # gateway all the way into search/IList/selection phases.
            span_id = trace.add_span(
                "service:search", seconds, document=entry.name, from_cache=from_cache
            )
            for phase, phase_seconds in breakdown.as_dict().items():
                trace.add_span(f"phase:{phase}", phase_seconds, parent_id=span_id)
        has_more = (
            request.page_size is not None and request.page * request.page_size < count
        )
        return SearchResponse(
            query=request.query,
            document=request.document,
            keywords=parsed.keywords,
            algorithm=system.engine.algorithm,
            total_results=total if total is not None else count,
            page=request.page,
            page_size=request.page_size,
            next_page=encode_page_token(request.page + 1) if has_more else None,
            results=payloads,
            from_cache=from_cache,
            seconds=seconds,
            timings=timings,
        )

    @staticmethod
    def _snippet_payload(generated: "GeneratedSnippet") -> SnippetPayload:
        """The slot's payload: rendered by the first request that serves
        the slot, stored on it, and returned as is to every later one (a
        snippet is a pure function of its result; see
        :class:`~repro.snippet.generator.GeneratedSnippet`).  Two racing
        first reads render equal payloads, and either one may stay."""
        payload = generated.payload
        if payload is None:
            result = generated.result
            payload = generated.payload = SnippetPayload(
                result_id=result.result_id,
                score=result.score,
                root=str(result.root),
                root_tag=result.root_node.tag,
                matched_keywords=tuple(result.matched_keywords),
                result_edges=result.size_edges,
                snippet_edges=generated.snippet.size_edges,
                covered_items=generated.covered_items,
                coverable_items=generated.coverable_items,
                text=render_snippet_text(generated),
            )
        return payload

    @staticmethod
    def _result_payload(result: "QueryResult") -> SnippetPayload:
        return SnippetPayload(
            result_id=result.result_id,
            score=result.score,
            root=str(result.root),
            root_tag=result.root_node.tag,
            matched_keywords=tuple(result.matched_keywords),
            result_edges=result.size_edges,
        )
