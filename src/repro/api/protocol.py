"""The typed request/response protocol of the snippet service.

The original eXtract demo was a web service: a PHP page posted keyword
queries and rendered the returned snippets (§4).  This module is the wire
contract of the reproduction's serving layer — plain dataclasses with a
lossless JSON round trip (``to_dict`` / ``from_dict``), so any frontend
(the CLI ``serve-request`` subcommand, tests, a future HTTP server) can
talk to :class:`repro.api.SnippetService` without importing internals.

Design rules:

* **Versioned** — every payload carries ``schema_version``; ``from_dict``
  rejects payloads from a different protocol version instead of guessing.
* **Discriminated** — every payload carries ``kind`` (``search``,
  ``batch``, ``search_response``, ``batch_response``, ``error``);
  :func:`parse_request` dispatches on it.
* **Strict** — unknown fields raise :class:`~repro.errors.ProtocolError`
  rather than being silently dropped, so typos in hand-written requests
  fail loudly.
* **Deterministic by default** — volatile serving metadata (wall-clock
  timings, cache hits) lives in an optional ``meta`` block that is only
  emitted when a request sets ``include_meta``; the default serialisation
  of a response is byte-for-byte reproducible, which the concurrency tests
  rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, ClassVar

from repro.errors import (
    DeadlineError,
    OverloadedError,
    PagingError,
    ProtocolError,
    QueryError,
    UnknownDocumentError,
    XMLParseError,
)
from repro.snippet.generator import DEFAULT_SIZE_BOUND


#: current version of the service protocol; bump on incompatible change.
SCHEMA_VERSION = 1

#: result-construction modes accepted on the wire (mirrors
#: :class:`repro.search.xseek.ResultConstruction` values).
CONSTRUCTION_MODES = ("xseek", "subtree", "match_paths")

_PAGE_TOKEN_PREFIX = "p"


# ---------------------------------------------------------------------- #
# error codes
# ---------------------------------------------------------------------- #
#: machine-readable failure codes carried by :class:`ErrorResponse`.
#: ``error`` names the Python exception class (for humans and logs); the
#: ``code`` is the stable contract clients and HTTP frontends branch on.
ERROR_CODES = (
    "bad_request",        # malformed payload, protocol violation, bad query/XML
    "invalid_page",       # pagination arithmetic rejected (PagingError)
    "unknown_document",   # request names a document the corpus doesn't hold
    "overloaded",         # admission control shed the request (retry later)
    "deadline_exceeded",  # the request missed its per-request deadline
    "not_found",          # HTTP frontend: no such endpoint
    "method_not_allowed", # HTTP frontend: endpoint exists, verb doesn't
    "internal",           # anything else — a server-side failure
)

#: the documented code → HTTP status mapping every wire frontend applies
#: (:mod:`repro.api.http` uses it verbatim).  Codes outside this table —
#: there are none today — fall back to 500.
HTTP_STATUS_BY_CODE = {
    "bad_request": 400,
    "invalid_page": 400,
    "unknown_document": 404,
    "not_found": 404,
    "method_not_allowed": 405,
    "overloaded": 503,
    "deadline_exceeded": 504,
    "internal": 500,
}

#: most (query, document) pairs one batch may expand to — a bound like the
#: HTTP frontend's ``MAX_BODY_BYTES``, not a tuning knob: a batch is
#: evaluated to the end once admitted, so its size is checked at the door
MAX_BATCH_FANOUT = 10_000

#: exception class → error code, most specific class first (the lookup
#: walks the exception's MRO, so subclasses inherit their parent's code
#: unless listed themselves).
_CODE_BY_EXCEPTION = (
    (UnknownDocumentError, "unknown_document"),
    (OverloadedError, "overloaded"),
    (DeadlineError, "deadline_exceeded"),
    (PagingError, "invalid_page"),
    (ProtocolError, "bad_request"),
    (QueryError, "bad_request"),
    (XMLParseError, "bad_request"),
)


def code_for_exception(exc: BaseException) -> str:
    """The machine-readable error code for a library exception."""
    for exc_type, code in _CODE_BY_EXCEPTION:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def http_status_for_code(code: str | None) -> int:
    """The HTTP status an :class:`ErrorResponse` code maps onto (500 for
    unknown or missing codes — an uncoded error is a server-side failure)."""
    return HTTP_STATUS_BY_CODE.get(code, 500)


# ---------------------------------------------------------------------- #
# page tokens
# ---------------------------------------------------------------------- #
def encode_page_token(page: int) -> str:
    """The opaque continuation token naming a result page (1-based)."""
    if not isinstance(page, int) or isinstance(page, bool) or page < 1:
        raise ProtocolError(f"page number must be a positive integer, got {page!r}")
    return f"{_PAGE_TOKEN_PREFIX}{page}"


def decode_page_token(token: str) -> int:
    """The page number named by a token produced by :func:`encode_page_token`."""
    digits = token[len(_PAGE_TOKEN_PREFIX):] if isinstance(token, str) else ""
    if (
        not isinstance(token, str)
        or not token.startswith(_PAGE_TOKEN_PREFIX)
        # str.isdigit() alone admits unicode digits int() rejects (e.g.
        # superscripts) or re-interprets (Arabic-Indic); tokens are ASCII.
        or not digits.isascii()
        or not digits.isdigit()
    ):
        raise ProtocolError(f"malformed page token {token!r}")
    page = int(digits)
    if page < 1:
        raise ProtocolError(f"malformed page token {token!r}")
    return page


# ---------------------------------------------------------------------- #
# shared (de)serialisation helpers
# ---------------------------------------------------------------------- #
def _check_envelope(payload: dict[str, Any], expected_kind: str) -> None:
    if not isinstance(payload, dict):
        raise ProtocolError(f"payload must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind != expected_kind:
        raise ProtocolError(f"expected payload kind {expected_kind!r}, got {kind!r}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ProtocolError(
            f"unsupported schema_version {version!r} (this build speaks version {SCHEMA_VERSION})"
        )


def _reject_unknown_fields(
    payload: dict[str, Any], known: set[str], kind: str, envelope: bool = True
) -> None:
    """``envelope=False`` is for nested sub-objects (snippet payloads,
    batch entries) that carry no ``kind``/``schema_version`` of their own —
    those fields are then unknown like any other, not silently accepted."""
    allowed = known | ({"kind", "schema_version"} if envelope else set())
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ProtocolError(f"unknown field(s) in {kind!r} payload: {', '.join(unknown)}")


def _require(payload: dict[str, Any], name: str, kind: str) -> Any:
    if name not in payload:
        raise ProtocolError(f"{kind!r} payload is missing required field {name!r}")
    return payload[name]


def _meta_dict(payload: dict[str, Any], kind: str) -> dict[str, Any]:
    meta = payload.get("meta")
    if meta is None:
        return {}
    if not isinstance(meta, dict):
        raise ProtocolError(
            f"meta in {kind!r} payload must be a JSON object, got {type(meta).__name__}"
        )
    return meta


def _as_list(value: Any, name: str, kind: str) -> list[Any]:
    """Reject scalars where a JSON array is expected — without this, a
    string would silently explode into a tuple of characters downstream."""
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(
            f"{name} in {kind!r} payload must be a list, got {type(value).__name__}"
        )
    return list(value)


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SearchRequest:
    """One keyword query over one registered document.

    ``page``/``page_size`` paginate the (ranked, optionally ``limit``-ed)
    result list; responses carry a ``next_page`` token that can be fed to
    :meth:`with_page` for the follow-up request.  ``include_snippets=False``
    skips snippet generation entirely (cheaper, results only);
    ``include_meta=True`` asks the service to attach volatile serving
    metadata (timings, cache provenance) to the response.
    """

    kind: ClassVar[str] = "search"

    query: str
    document: str
    size_bound: int = DEFAULT_SIZE_BOUND
    limit: int | None = None
    construction: str = "xseek"
    use_cache: bool = True
    page: int = 1
    page_size: int | None = None
    include_snippets: bool = True
    include_meta: bool = False
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "SearchRequest":
        """Raise :class:`ProtocolError` on an ill-formed request; return self."""
        if not isinstance(self.query, str) or not self.query.strip():
            raise ProtocolError(f"query must be a non-empty string, got {self.query!r}")
        if not isinstance(self.document, str) or not self.document:
            raise ProtocolError(f"document must be a non-empty string, got {self.document!r}")
        if not isinstance(self.size_bound, int) or isinstance(self.size_bound, bool) or self.size_bound < 1:
            raise ProtocolError(f"size_bound must be a positive integer, got {self.size_bound!r}")
        if self.limit is not None and (
            not isinstance(self.limit, int) or isinstance(self.limit, bool) or self.limit < 0
        ):
            raise ProtocolError(f"limit must be a non-negative integer or null, got {self.limit!r}")
        if self.construction not in CONSTRUCTION_MODES:
            raise ProtocolError(
                f"unknown construction {self.construction!r}; expected one of {CONSTRUCTION_MODES}"
            )
        if not isinstance(self.page, int) or isinstance(self.page, bool) or self.page < 1:
            raise ProtocolError(f"page must be a positive integer, got {self.page!r}")
        if self.page_size is not None and (
            not isinstance(self.page_size, int) or isinstance(self.page_size, bool) or self.page_size < 1
        ):
            raise ProtocolError(f"page_size must be a positive integer or null, got {self.page_size!r}")
        # Flags must be real booleans: a JSON string like "false" is truthy
        # and would silently invert the client's intent if coerced.
        for flag in ("use_cache", "include_snippets", "include_meta"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ProtocolError(f"{flag} must be a boolean, got {value!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise ProtocolError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this build speaks version {SCHEMA_VERSION})"
            )
        return self

    def with_page(self, token_or_page: str | int) -> "SearchRequest":
        """The follow-up request for another page (token or page number)."""
        page = token_or_page if isinstance(token_or_page, int) else decode_page_token(token_or_page)
        return replace(self, page=page)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "query": self.query,
            "document": self.document,
            "size_bound": self.size_bound,
            "limit": self.limit,
            "construction": self.construction,
            "use_cache": self.use_cache,
            "page": self.page,
            "page_size": self.page_size,
            "include_snippets": self.include_snippets,
            "include_meta": self.include_meta,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SearchRequest":
        _check_envelope(payload, cls.kind)
        known = {f.name for f in fields(cls)}
        _reject_unknown_fields(payload, known, cls.kind)
        request = cls(
            query=_require(payload, "query", cls.kind),
            document=_require(payload, "document", cls.kind),
            size_bound=payload.get("size_bound", DEFAULT_SIZE_BOUND),
            limit=payload.get("limit"),
            construction=payload.get("construction", "xseek"),
            use_cache=payload.get("use_cache", True),
            page=payload.get("page", 1),
            page_size=payload.get("page_size"),
            include_snippets=payload.get("include_snippets", True),
            include_meta=payload.get("include_meta", False),
        )
        return request.validate()


@dataclass(frozen=True)
class BatchRequest:
    """Many keyword queries over many documents in one round trip.

    ``documents=None`` means every document registered in the serving
    corpus, in name order (resolved at execution time).  All queries share
    ``size_bound``/``limit``/``construction``; per-query overrides belong
    in individual :class:`SearchRequest`\\ s.
    """

    kind: ClassVar[str] = "batch"

    queries: tuple[str, ...]
    documents: tuple[str, ...] | None = None
    size_bound: int = DEFAULT_SIZE_BOUND
    limit: int | None = None
    construction: str = "xseek"
    use_cache: bool = True
    include_snippets: bool = True
    include_meta: bool = False
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "BatchRequest":
        # A bare string is iterable and would silently char-split into
        # one-letter queries; require a real sequence.
        if isinstance(self.queries, str) or not isinstance(self.queries, (list, tuple)):
            raise ProtocolError(
                f"queries must be a list of strings, got {type(self.queries).__name__}"
            )
        if not self.queries:
            raise ProtocolError("batch payload needs at least one query")
        probe = self.search_request(self.queries[0], "document")
        probe.validate()
        for query in self.queries:
            if not isinstance(query, str) or not query.strip():
                raise ProtocolError(f"every batch query must be a non-empty string, got {query!r}")
        if self.documents is not None:
            if isinstance(self.documents, str) or not isinstance(self.documents, (list, tuple)):
                raise ProtocolError(
                    f"documents must be a list of strings or null, got {type(self.documents).__name__}"
                )
            for document in self.documents:
                if not isinstance(document, str) or not document:
                    raise ProtocolError(
                        f"every batch document must be a non-empty string, got {document!r}"
                    )
            self.check_fanout(len(self.documents))
        return self

    def check_fanout(self, document_count: int) -> None:
        """Reject a batch that expands to more than :data:`MAX_BATCH_FANOUT`
        (query, document) pairs.  :meth:`validate` applies it to an explicit
        document list; whoever resolves ``documents=None`` to every
        registered document applies it to what that turned out to be."""
        if len(self.queries) * document_count > MAX_BATCH_FANOUT:
            raise ProtocolError(
                f"batch of {len(self.queries)} queries over {document_count} documents "
                f"exceeds the limit of {MAX_BATCH_FANOUT} query-document pairs"
            )

    def search_request(self, query: str, document: str) -> SearchRequest:
        """The equivalent single-query request for one (query, document)."""
        return SearchRequest(
            query=query,
            document=document,
            size_bound=self.size_bound,
            limit=self.limit,
            construction=self.construction,
            use_cache=self.use_cache,
            include_snippets=self.include_snippets,
            include_meta=self.include_meta,
            schema_version=self.schema_version,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "queries": list(self.queries),
            "documents": list(self.documents) if self.documents is not None else None,
            "size_bound": self.size_bound,
            "limit": self.limit,
            "construction": self.construction,
            "use_cache": self.use_cache,
            "include_snippets": self.include_snippets,
            "include_meta": self.include_meta,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BatchRequest":
        _check_envelope(payload, cls.kind)
        known = {f.name for f in fields(cls)}
        _reject_unknown_fields(payload, known, cls.kind)
        queries = _as_list(_require(payload, "queries", cls.kind), "queries", cls.kind)
        documents = payload.get("documents")
        if documents is not None:
            documents = _as_list(documents, "documents", cls.kind)
        request = cls(
            queries=tuple(queries),
            documents=tuple(documents) if documents is not None else None,
            size_bound=payload.get("size_bound", DEFAULT_SIZE_BOUND),
            limit=payload.get("limit"),
            construction=payload.get("construction", "xseek"),
            use_cache=payload.get("use_cache", True),
            include_snippets=payload.get("include_snippets", True),
            include_meta=payload.get("include_meta", False),
        )
        return request.validate()


#: document-lifecycle actions accepted on the wire
UPDATE_ACTIONS = ("update", "remove")


@dataclass(frozen=True)
class UpdateRequest:
    """A document-lifecycle operation: upsert a document or remove it.

    ``action="update"`` replaces (or, when the name is unknown, registers)
    the document with the XML carried in ``xml``; the service applies
    text-only edits incrementally (posting-level deltas, targeted cache
    invalidation) and falls back to a full re-index for structural
    changes.  ``action="remove"`` unregisters the document (``xml`` must
    be omitted).  ``include_meta`` attaches volatile serving metadata
    (seconds, cache invalidation counts) to the response.
    """

    kind: ClassVar[str] = "update"

    document: str
    xml: str | None = None
    action: str = "update"
    include_meta: bool = False
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "UpdateRequest":
        """Raise :class:`ProtocolError` on an ill-formed request; return self."""
        if not isinstance(self.document, str) or not self.document:
            raise ProtocolError(f"document must be a non-empty string, got {self.document!r}")
        if self.action not in UPDATE_ACTIONS:
            raise ProtocolError(
                f"unknown update action {self.action!r}; expected one of {UPDATE_ACTIONS}"
            )
        if self.action == "update":
            if not isinstance(self.xml, str) or not self.xml.strip():
                raise ProtocolError(
                    f"an {self.action!r} request needs a non-empty xml document, got {self.xml!r}"
                )
        elif self.xml is not None:
            raise ProtocolError("a 'remove' request must not carry an xml document")
        if not isinstance(self.include_meta, bool):
            raise ProtocolError(f"include_meta must be a boolean, got {self.include_meta!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise ProtocolError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this build speaks version {SCHEMA_VERSION})"
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "document": self.document,
            "xml": self.xml,
            "action": self.action,
            "include_meta": self.include_meta,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "UpdateRequest":
        _check_envelope(payload, cls.kind)
        known = {f.name for f in fields(cls)}
        _reject_unknown_fields(payload, known, cls.kind)
        request = cls(
            document=_require(payload, "document", cls.kind),
            xml=payload.get("xml"),
            action=payload.get("action", "update"),
            include_meta=payload.get("include_meta", False),
        )
        return request.validate()


# ---------------------------------------------------------------------- #
# responses
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SnippetPayload:
    """One result on a response page: ranking metadata plus its snippet.

    ``snippet_edges`` / ``covered_items`` / ``coverable_items`` / ``text``
    are ``None`` when the request asked for results only
    (``include_snippets=False``).
    """

    kind: ClassVar[str] = "snippet"

    result_id: int
    score: float
    root: str
    root_tag: str
    matched_keywords: tuple[str, ...]
    result_edges: int
    snippet_edges: int | None = None
    covered_items: int | None = None
    coverable_items: int | None = None
    text: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "result_id": self.result_id,
            "score": self.score,
            "root": self.root,
            "root_tag": self.root_tag,
            "matched_keywords": list(self.matched_keywords),
            "result_edges": self.result_edges,
            "snippet_edges": self.snippet_edges,
            "covered_items": self.covered_items,
            "coverable_items": self.coverable_items,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SnippetPayload":
        if not isinstance(payload, dict):
            raise ProtocolError(f"snippet payload must be a JSON object, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        _reject_unknown_fields(payload, known, cls.kind, envelope=False)
        return cls(
            result_id=_require(payload, "result_id", cls.kind),
            score=_require(payload, "score", cls.kind),
            root=_require(payload, "root", cls.kind),
            root_tag=_require(payload, "root_tag", cls.kind),
            matched_keywords=tuple(
                _as_list(payload.get("matched_keywords", ()), "matched_keywords", cls.kind)
            ),
            result_edges=_require(payload, "result_edges", cls.kind),
            snippet_edges=payload.get("snippet_edges"),
            covered_items=payload.get("covered_items"),
            coverable_items=payload.get("coverable_items"),
            text=payload.get("text"),
        )


@dataclass(frozen=True)
class SearchResponse:
    """One page of results for one :class:`SearchRequest`.

    ``total_results`` counts matches before ``limit``/pagination;
    ``next_page`` is a continuation token (see
    :meth:`SearchRequest.with_page`) or ``None`` on the last page.

    ``from_cache``/``timings``/``seconds`` are volatile serving metadata:
    excluded from equality, serialised only when the originating request
    set ``include_meta``, so the default wire form is deterministic.
    ``shard`` is serving provenance stamped by the cluster router
    (:class:`repro.cluster.ClusterService`): the id of the shard that
    served the response.  It is ``None`` for single-corpus services and is
    emitted in the ``meta`` block only when set, so the meta wire form of
    a non-sharded service is unchanged.
    """

    kind: ClassVar[str] = "search_response"

    query: str
    document: str
    keywords: tuple[str, ...]
    algorithm: str
    total_results: int
    page: int
    page_size: int | None
    next_page: str | None
    results: tuple[SnippetPayload, ...]
    schema_version: int = SCHEMA_VERSION
    from_cache: bool = field(default=False, compare=False)
    seconds: float = field(default=0.0, compare=False)
    timings: dict[str, float] = field(default_factory=dict, compare=False, repr=False)
    shard: int | None = field(default=None, compare=False)

    def to_dict(self, include_meta: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "query": self.query,
            "document": self.document,
            "keywords": list(self.keywords),
            "algorithm": self.algorithm,
            "total_results": self.total_results,
            "page": self.page,
            "page_size": self.page_size,
            "next_page": self.next_page,
            "results": [result.to_dict() for result in self.results],
        }
        if include_meta:
            meta: dict[str, Any] = {
                "from_cache": self.from_cache,
                "seconds": self.seconds,
                "timings": dict(self.timings),
            }
            if self.shard is not None:
                meta["shard"] = self.shard
            payload["meta"] = meta
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SearchResponse":
        _check_envelope(payload, cls.kind)
        known = {
            "query", "document", "keywords", "algorithm", "total_results",
            "page", "page_size", "next_page", "results", "meta",
        }
        _reject_unknown_fields(payload, known, cls.kind)
        meta = _meta_dict(payload, cls.kind)
        results = _as_list(_require(payload, "results", cls.kind), "results", cls.kind)
        return cls(
            query=_require(payload, "query", cls.kind),
            document=_require(payload, "document", cls.kind),
            keywords=tuple(_as_list(payload.get("keywords", ()), "keywords", cls.kind)),
            algorithm=_require(payload, "algorithm", cls.kind),
            total_results=_require(payload, "total_results", cls.kind),
            page=payload.get("page", 1),
            page_size=payload.get("page_size"),
            next_page=payload.get("next_page"),
            results=tuple(SnippetPayload.from_dict(result) for result in results),
            from_cache=meta.get("from_cache", False),
            seconds=meta.get("seconds", 0.0),
            timings=dict(meta.get("timings", {})),
            shard=meta.get("shard"),
        )


@dataclass(frozen=True)
class BatchEntry:
    """One batch query's responses, in batch document order."""

    kind: ClassVar[str] = "batch_entry"

    query: str
    responses: tuple[SearchResponse, ...]
    seconds: float = field(default=0.0, compare=False)

    @property
    def total_results(self) -> int:
        return sum(response.total_results for response in self.responses)

    def to_dict(self, include_meta: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "query": self.query,
            "responses": [response.to_dict(include_meta=include_meta) for response in self.responses],
        }
        if include_meta:
            payload["meta"] = {"seconds": self.seconds}
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BatchEntry":
        if not isinstance(payload, dict):
            raise ProtocolError(f"batch entry must be a JSON object, got {type(payload).__name__}")
        _reject_unknown_fields(payload, {"query", "responses", "meta"}, cls.kind, envelope=False)
        responses = _as_list(_require(payload, "responses", cls.kind), "responses", cls.kind)
        meta = _meta_dict(payload, cls.kind)
        return cls(
            query=_require(payload, "query", cls.kind),
            responses=tuple(SearchResponse.from_dict(response) for response in responses),
            seconds=meta.get("seconds", 0.0),
        )


@dataclass(frozen=True)
class BatchResponse:
    """The response to a :class:`BatchRequest`: one entry per query."""

    kind: ClassVar[str] = "batch_response"

    entries: tuple[BatchEntry, ...]
    documents: tuple[str, ...]
    schema_version: int = SCHEMA_VERSION

    @property
    def total_results(self) -> int:
        return sum(entry.total_results for entry in self.entries)

    def to_dict(self, include_meta: bool = False) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "documents": list(self.documents),
            "entries": [entry.to_dict(include_meta=include_meta) for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BatchResponse":
        _check_envelope(payload, cls.kind)
        _reject_unknown_fields(payload, {"entries", "documents"}, cls.kind)
        entries = _as_list(_require(payload, "entries", cls.kind), "entries", cls.kind)
        return cls(
            entries=tuple(BatchEntry.from_dict(entry) for entry in entries),
            documents=tuple(
                _as_list(_require(payload, "documents", cls.kind), "documents", cls.kind)
            ),
        )


@dataclass(frozen=True)
class UpdateResponse:
    """The outcome of an :class:`UpdateRequest`.

    ``action`` reports what actually happened (``updated``, ``added`` or
    ``removed`` — an upsert of an unknown document comes back ``added``);
    ``incremental`` whether the edit was applied as posting-level deltas;
    ``changed_nodes``/``changed_terms`` the size of that delta.  Volatile
    serving metadata (wall-clock seconds, cache invalidation counters —
    functions of serving history, not of the update) lives in the opt-in
    ``meta`` block so the default wire form stays deterministic.
    """

    kind: ClassVar[str] = "update_response"

    document: str
    action: str
    incremental: bool
    nodes: int
    changed_nodes: int = 0
    changed_terms: int = 0
    structural_reason: str | None = None
    schema_version: int = SCHEMA_VERSION
    seconds: float = field(default=0.0, compare=False)
    cache_entries_kept: int = field(default=0, compare=False)
    cache_entries_invalidated: int = field(default=0, compare=False)
    shard: int | None = field(default=None, compare=False)

    def to_dict(self, include_meta: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "document": self.document,
            "action": self.action,
            "incremental": self.incremental,
            "nodes": self.nodes,
            "changed_nodes": self.changed_nodes,
            "changed_terms": self.changed_terms,
            "structural_reason": self.structural_reason,
        }
        if include_meta:
            meta: dict[str, Any] = {
                "seconds": self.seconds,
                "cache_entries_kept": self.cache_entries_kept,
                "cache_entries_invalidated": self.cache_entries_invalidated,
            }
            if self.shard is not None:
                meta["shard"] = self.shard
            payload["meta"] = meta
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "UpdateResponse":
        _check_envelope(payload, cls.kind)
        known = {
            "document", "action", "incremental", "nodes",
            "changed_nodes", "changed_terms", "structural_reason", "meta",
        }
        _reject_unknown_fields(payload, known, cls.kind)
        meta = _meta_dict(payload, cls.kind)
        return cls(
            document=_require(payload, "document", cls.kind),
            action=_require(payload, "action", cls.kind),
            incremental=_require(payload, "incremental", cls.kind),
            nodes=_require(payload, "nodes", cls.kind),
            changed_nodes=payload.get("changed_nodes", 0),
            changed_terms=payload.get("changed_terms", 0),
            structural_reason=payload.get("structural_reason"),
            seconds=meta.get("seconds", 0.0),
            cache_entries_kept=meta.get("cache_entries_kept", 0),
            cache_entries_invalidated=meta.get("cache_entries_invalidated", 0),
            shard=meta.get("shard"),
        )


@dataclass(frozen=True)
class ErrorResponse:
    """A structured failure: error class, machine-readable code, message.

    ``error`` is the :mod:`repro.errors` class name (``QueryError``,
    ``ProtocolError``, ...) — useful in logs; ``code`` is the stable
    machine-readable contract (one of :data:`ERROR_CODES`) that clients
    branch on and :data:`HTTP_STATUS_BY_CODE` maps to an HTTP status.
    ``request`` echoes the offending request payload when available.

    ``code`` is optional on :meth:`from_dict` so payloads produced by
    pre-code builds still parse (they come back with ``code=None``).
    """

    kind: ClassVar[str] = "error"

    error: str
    message: str
    request: dict[str, Any] | None = None
    code: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "error": self.error,
            "code": self.code,
            "message": self.message,
            "request": self.request,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ErrorResponse":
        _check_envelope(payload, cls.kind)
        _reject_unknown_fields(payload, {"error", "code", "message", "request"}, cls.kind)
        return cls(
            error=_require(payload, "error", cls.kind),
            message=_require(payload, "message", cls.kind),
            request=payload.get("request"),
            code=payload.get("code"),
        )

    @classmethod
    def from_exception(cls, exc: BaseException, request: dict[str, Any] | None = None) -> "ErrorResponse":
        return cls(
            error=type(exc).__name__,
            message=str(exc),
            request=request,
            code=code_for_exception(exc),
        )


# ---------------------------------------------------------------------- #
# dispatch
# ---------------------------------------------------------------------- #
_REQUEST_KINDS = {
    SearchRequest.kind: SearchRequest,
    BatchRequest.kind: BatchRequest,
    UpdateRequest.kind: UpdateRequest,
}
_RESPONSE_KINDS = {
    SearchResponse.kind: SearchResponse,
    BatchResponse.kind: BatchResponse,
    UpdateResponse.kind: UpdateResponse,
    ErrorResponse.kind: ErrorResponse,
}


def parse_request(payload: dict[str, Any]) -> "SearchRequest | BatchRequest | UpdateRequest":
    """Parse a request payload, dispatching on its ``kind`` field."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    # The isinstance guard keeps an unhashable kind (a JSON array/object)
    # from blowing up the dict lookup with a TypeError a wire frontend
    # could never turn into a structured error response.
    parser = _REQUEST_KINDS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise ProtocolError(
            f"unknown request kind {kind!r}; expected one of {sorted(_REQUEST_KINDS)}"
        )
    return parser.from_dict(payload)


def parse_response(
    payload: dict[str, Any],
) -> "SearchResponse | BatchResponse | UpdateResponse | ErrorResponse":
    """Parse a response payload, dispatching on its ``kind`` field."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"response must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    parser = _RESPONSE_KINDS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise ProtocolError(
            f"unknown response kind {kind!r}; expected one of {sorted(_RESPONSE_KINDS)}"
        )
    return parser.from_dict(payload)
