"""Output checks: every response is decoded strictly and held to invariants.

A breach is a *failed* operation (it counts in ``error_rate``), never an
exception: the run goes on and reports how many answers were wrong.
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.api.protocol import (
    BatchResponse,
    SearchResponse,
    UpdateResponse,
    encode_page_token,
    parse_response,
)
from repro.errors import ExtractError


def check_response(payload: dict[str, Any], body: bytes) -> str | None:
    """Why ``body`` is a wrong answer to ``payload``, or ``None`` if it is
    a right one.

    Strict decode through ``repro.api.protocol`` first (unknown fields,
    wrong kinds and error envelopes all fail), then per kind: snippets
    within the size bound, coverage within what is coverable, page sizes
    and the ``next_page`` token consistent with ``total_results``.
    """
    try:
        response = parse_response(json.loads(body))
    except (ValueError, ExtractError) as error:
        return f"undecodable response: {error}"
    kind = payload["kind"]
    if kind == "search":
        if not isinstance(response, SearchResponse):
            return f"expected a search_response, got {response.kind}"
        return _check_search(
            response,
            payload["query"],
            payload["document"],
            payload["size_bound"],
            payload.get("page", 1),
            payload.get("page_size"),
        )
    if kind == "batch":
        if not isinstance(response, BatchResponse):
            return f"expected a batch_response, got {response.kind}"
        if list(response.documents) != payload["documents"]:
            return "batch documents differ from the request's"
        if [entry.query for entry in response.entries] != payload["queries"]:
            return "batch entries differ from the request's queries"
        for entry in response.entries:
            if len(entry.responses) != len(payload["documents"]):
                return "batch entry is missing a document's response"
            for document, nested in zip(payload["documents"], entry.responses):
                problem = _check_search(
                    nested, entry.query, document, payload["size_bound"], 1, None
                )
                if problem is not None:
                    return problem
        return None
    if not isinstance(response, UpdateResponse):
        return f"expected an update_response, got {response.kind}"
    # Every planned update edits exactly one <city> value.
    if response.action != "updated" or not response.incremental or response.changed_nodes != 1:
        return (
            "one-value update was not applied as a one-node delta "
            f"(action={response.action}, incremental={response.incremental}, "
            f"changed_nodes={response.changed_nodes})"
        )
    return None


def _check_search(
    response: SearchResponse,
    query: str,
    document: str,
    size_bound: int,
    page: int,
    page_size: int | None,
) -> str | None:
    if response.query != query or response.document != document:
        return "response answers a different query or document"
    if response.page != page or response.page_size != page_size:
        return "response is for a different page"
    total = response.total_results
    if page_size is None:
        expected, more = total, False
    else:
        expected = max(0, min(page_size, total - (page - 1) * page_size))
        more = page * page_size < total
    if len(response.results) != expected:
        return f"page {page} holds {len(response.results)} results, expected {expected} of {total}"
    if response.next_page != (encode_page_token(page + 1) if more else None):
        return f"next_page {response.next_page!r} inconsistent with total_results {total}"
    for result in response.results:
        if result.snippet_edges is None or result.snippet_edges > size_bound:
            return f"snippet of {result.snippet_edges} edges exceeds size_bound {size_bound}"
        if result.covered_items > result.coverable_items:
            return "snippet covers more items than are coverable"
    return None


_NEXT_PAGE = re.compile(rb'"next_page": "p(\d+)"')


def next_page_of(body: bytes) -> int | None:
    """The follow-up page number a search response names, if any.

    A byte scan, not a decode: this steers the session loop inside the
    timed phase (:func:`check_response` judges the body afterwards).  A
    quote inside a JSON string is escaped, so snippet text cannot forge
    the pattern.
    """
    match = _NEXT_PAGE.search(body)
    return int(match.group(1)) if match else None
