"""``repro.api`` — the typed, versioned serving surface of the reproduction.

The package splits serving into layers:

* :mod:`repro.api.protocol` — the wire contract: request/response
  dataclasses with a lossless, schema-versioned JSON round trip, plus the
  machine-readable error codes and their HTTP status mapping;
* :mod:`repro.api.backend` — :class:`ServingBackend`, the checked
  transport-agnostic contract every serving facade implements;
* :mod:`repro.api.executors` — the thread-pool executor behind the
  cluster's shard fan-out and the HTTP front end's concurrency bound;
* :mod:`repro.api.service` — :class:`SnippetService`, the facade that owns
  a corpus and runs requests against it;
* :mod:`repro.api.gateway` — :func:`build_gateway`, one stage (tracing,
  metrics, deadlines, admission control) that is itself a backend;
* :mod:`repro.api.http` — the HTTP/1.1 JSON frontend over any backend
  (``POST /v1/search`` …, one thread per connection, stdlib only);
* :mod:`repro.api.client` — :class:`ServiceClient`, the typed in-repo HTTP
  client (itself a backend: a remote service plugs in behind the seam).

Quick start::

    from repro import Corpus
    from repro.api import SearchRequest, SnippetService

    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    service = SnippetService(corpus)
    response = service.run(
        SearchRequest(query="store texas", document="stores", size_bound=6, page_size=1)
    )
    print(response.results[0].text)
    if response.next_page:
        print(service.run(SearchRequest(
            query="store texas", document="stores", size_bound=6, page_size=1,
        ).with_page(response.next_page)))
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.api.backend": ("ServingBackend", "ServingBackendBase"),
    "repro.api.client": ("ServiceClient",),
    "repro.api.executors": ("ConcurrentExecutor", "Executor"),
    "repro.api.gateway": ("build_gateway",),
    "repro.api.http": ("HttpServer",),
    "repro.api.protocol": (
        "CONSTRUCTION_MODES", "ERROR_CODES", "HTTP_STATUS_BY_CODE", "SCHEMA_VERSION",
        "UPDATE_ACTIONS", "BatchEntry", "BatchRequest", "BatchResponse", "ErrorResponse",
        "SearchRequest", "SearchResponse", "SnippetPayload", "UpdateRequest", "UpdateResponse",
        "code_for_exception", "decode_page_token", "encode_page_token", "http_status_for_code",
        "parse_request", "parse_response",
    ),
    "repro.api.service": ("SnippetService",),
})

__all__ = [
    "SCHEMA_VERSION",
    "CONSTRUCTION_MODES",
    "UPDATE_ACTIONS",
    "ERROR_CODES",
    "HTTP_STATUS_BY_CODE",
    "SearchRequest",
    "BatchRequest",
    "UpdateRequest",
    "SearchResponse",
    "BatchResponse",
    "UpdateResponse",
    "BatchEntry",
    "SnippetPayload",
    "ErrorResponse",
    "parse_request",
    "parse_response",
    "encode_page_token",
    "decode_page_token",
    "code_for_exception",
    "http_status_for_code",
    "Executor",
    "ConcurrentExecutor",
    "ServingBackend",
    "ServingBackendBase",
    "SnippetService",
    "build_gateway",
    "HttpServer",
    "ServiceClient",
]
