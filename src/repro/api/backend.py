"""The transport-agnostic serving contract: :class:`ServingBackend`.

Every serving facade of the reproduction — the single-corpus
:class:`repro.api.SnippetService`, the sharded
:class:`repro.cluster.ClusterService`, every gateway middleware
(:mod:`repro.api.gateway`) and the HTTP client
(:class:`repro.api.client.ServiceClient`) — implements one checked
interface:

* ``execute`` / ``execute_batch`` / ``execute_update`` — typed protocol
  requests in, typed responses out; failures become
  :class:`~repro.api.protocol.ErrorResponse`, never an exception, which is
  exactly what a wire endpoint wants;
* ``handle_dict`` / ``handle_text`` / ``handle_json`` — the plain-JSON
  endpoint surface a transport (CLI, HTTP server) drives;
* ``capabilities`` / ``stats`` — introspection: what the backend serves
  and how it has been doing, both JSON-ready;
* ``close`` — release resources (idempotent).

The interface is a :func:`typing.runtime_checkable`
:class:`typing.Protocol`, so ``isinstance(backend, ServingBackend)`` holds
for anything with the right surface — no inheritance required.
:class:`ServingBackendBase` is the convenience base that derives the whole
JSON surface (and default introspection) from the three ``execute*``
methods.

This seam is what lets frontends and backends scale independently: the
HTTP frontend (:mod:`repro.api.http`) sees only a :class:`ServingBackend`,
so a single corpus, an N-shard cluster, a middleware-wrapped gateway stack
or a remote client all plug in behind the same contract.
"""

from __future__ import annotations

import json
from typing import Any, Protocol, runtime_checkable

from repro.api.protocol import (
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
    parse_request,
)
from repro.errors import ExtractError, ProtocolError

#: every request kind a full backend serves (capabilities advertise these)
REQUEST_KINDS = (SearchRequest.kind, BatchRequest.kind, UpdateRequest.kind)

#: version of the unified stats() payload shape (see :func:`stats_envelope`)
STATS_SCHEMA_VERSION = 1


def stats_envelope(backend_name: str, **sections: Any) -> dict[str, Any]:
    """The unified ``stats()`` shape every serving facade returns.

    Every snapshot starts from the same envelope::

        {"schema_version": 1, "backend": "<backend_name>", ...sections}

    so clients can consume :class:`~repro.api.SnippetService`,
    :class:`~repro.cluster.ClusterService`,
    :class:`~repro.cluster.remote.RemoteClusterService` and a
    :class:`~repro.api.client.ServiceClient` (which passes the served
    backend's envelope through) uniformly: dispatch on ``backend``, check
    ``schema_version``, then read the optional sections (``documents``,
    ``caches``, ``shards``, and the gateway-merged ``requests`` /
    ``admission``).  Middleware stages merge their sections *into* the
    inner envelope rather than wrapping it, so one flat object describes
    the whole stack.
    """
    return {
        "schema_version": STATS_SCHEMA_VERSION,
        "backend": backend_name,
        **sections,
    }


@runtime_checkable
class ServingBackend(Protocol):
    """The transport-agnostic serving contract (structural, checked).

    ``isinstance(obj, ServingBackend)`` verifies the surface is present;
    the semantic contract — ``execute*`` never raise library errors, the
    JSON endpoints are total functions of their input — is pinned by the
    shared test suites, not the type checker.
    """

    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        """Serve one search request; failures become an ErrorResponse."""
        ...  # pragma: no cover - protocol stub

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        """Serve one batch request; failures become an ErrorResponse."""
        ...  # pragma: no cover - protocol stub

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        """Serve one lifecycle request; failures become an ErrorResponse."""
        ...  # pragma: no cover - protocol stub

    def handle_dict(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Serve one JSON-style request object; never raises library errors."""
        ...  # pragma: no cover - protocol stub

    def handle_text(self, text: str) -> dict[str, Any]:
        """Serve one JSON document, returning the response as a dict."""
        ...  # pragma: no cover - protocol stub

    def handle_json(self, text: str) -> str:
        """Serve one JSON document (string in, string out)."""
        ...  # pragma: no cover - protocol stub

    def capabilities(self) -> dict[str, Any]:
        """What this backend serves (JSON-ready; stable keys, cheap call)."""
        ...  # pragma: no cover - protocol stub

    def stats(self) -> dict[str, Any]:
        """Serving counters accumulated so far (JSON-ready)."""
        ...  # pragma: no cover - protocol stub

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        ...  # pragma: no cover - protocol stub


class ServingBackendBase:
    """Everything a :class:`ServingBackend` needs beyond ``execute*``.

    Subclasses implement ``execute`` / ``execute_batch`` /
    ``execute_update`` (returning protocol responses, never raising library
    errors) and inherit the plain-JSON endpoints plus default
    introspection — :class:`repro.api.SnippetService`, the sharded
    :class:`repro.cluster.ClusterService` and every gateway middleware
    speak byte-identical JSON through this one implementation, which is
    what makes them interchangeable at the wire level.
    """

    #: short backend name surfaced by :meth:`capabilities` (subclasses set it)
    backend_name: str = "backend"

    def handle_dict(
        self,
        payload: dict[str, Any],
        request: SearchRequest | BatchRequest | UpdateRequest | None = None,
    ) -> dict[str, Any]:
        """Serve one JSON-style request object; never raises library errors.

        Parses the payload (dispatching on ``kind``), executes it, and
        returns the response as a plain dict — with volatile serving
        metadata attached only when the request set ``include_meta``.
        ``request`` lets a frontend that already parsed the payload (for
        fail-fast validation) skip the re-parse.  Malformed payloads — not
        a JSON object, unknown kind, ill-typed fields — come back as a
        structured ``bad_request`` error response.
        """
        try:
            if request is None:
                request = parse_request(payload)
        except ExtractError as error:
            echoed = payload if isinstance(payload, dict) else None
            return self._reject(error, echoed)
        if isinstance(request, BatchRequest):
            response = self.execute_batch(request)
        elif isinstance(request, UpdateRequest):
            response = self.execute_update(request)
        else:
            response = self.execute(request)
        if isinstance(response, ErrorResponse):
            return response.to_dict()
        return response.to_dict(include_meta=request.include_meta)

    def handle_text(self, text: str) -> dict[str, Any]:
        """Serve one JSON document, returning the response as a dict.

        Frontends that format the response themselves (the CLI's
        ``--pretty`` flag, the HTTP server) use this to avoid a parse →
        serialise → re-parse round trip; :meth:`handle_json` is the
        string-in/string-out convenience over it.
        """
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError, ValueError) as error:
            return self._reject(ProtocolError(f"request is not valid JSON: {error}"), None)
        return self.handle_dict(payload)

    def handle_json(self, text: str) -> str:
        """Serve one JSON document (the wire entry point)."""
        return json.dumps(self.handle_text(text), sort_keys=True)

    def _reject(self, error: ExtractError, request: dict[str, Any] | None) -> dict[str, Any]:
        """Shape a payload-level rejection (malformed JSON, unknown kind,
        ill-typed fields) — the one funnel both JSON endpoints use, so an
        observing middleware can override it to count rejections that
        never became a typed request."""
        return ErrorResponse.from_exception(error, request=request).to_dict()

    # ------------------------------------------------------------------ #
    # introspection & lifecycle defaults
    # ------------------------------------------------------------------ #
    def capabilities(self) -> dict[str, Any]:
        return {"backend": self.backend_name, "kinds": list(REQUEST_KINDS)}

    def stats(self) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        """Release backend resources (idempotent); base holds none."""

    def __enter__(self) -> "ServingBackendBase":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
