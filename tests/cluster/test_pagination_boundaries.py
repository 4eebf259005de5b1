"""Pagination boundary suite across shard counts and both kinds of shard.

``next_page`` tokens must behave identically for any shard count — a
token handed out by the cluster router re-routes deterministically to the
shard that produced it (ownership is deterministic, so the token is a
per-shard cursor by construction) and **never points at an empty trailing
page**: exact-multiple result counts, one-over counts and empty result
sets are the boundary cases.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchRequest, SnippetService
from tests.cluster.conftest import build_corpus

SHARD_COUNTS = (1, 2, 3, 4)

#: (query, page_size) pairs picked against the fixture corpus so the suite
#: crosses every boundary shape; result counts are asserted in the test so
#: a dataset change cannot silently hollow the suite out.
BOUNDARY_CASES = (
    ("store", 1),     # exact multiple: 3 results / page size 1 -> 3 full pages
    ("store", 2),     # one over: 3 results / page size 2 -> 2 + 1
    ("store", 3),     # single exact page: token must be absent immediately
    ("store", 5),     # oversized page
    ("zzz-no-such-keyword", 2),  # empty result set: no token at all
)


def walk_pages(service, request: SearchRequest) -> list[dict]:
    """Follow next_page tokens to exhaustion; return the page payloads."""
    pages = []
    current = request
    while True:
        page = service.handle_dict(current.to_dict())
        assert page["kind"] == "search_response", page
        pages.append(page)
        if page["next_page"] is None:
            break
        current = current.with_page(page["next_page"])
        assert len(pages) < 50, "runaway pagination"
    return pages


class TestPaginationBoundaries:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("query,page_size", BOUNDARY_CASES)
    def test_tokens_never_point_at_an_empty_trailing_page(
        self, cluster_with, shards, query, page_size
    ):
        cluster = cluster_with(shards)
        request = SearchRequest(
            query=query, document="stores", size_bound=6, page_size=page_size
        )
        pages = walk_pages(cluster, request)
        # every page reached through a token carries at least one result
        for page in pages[1:]:
            assert page["results"], (shards, query, page_size, page["page"])
        # the last page never re-offers a token
        assert pages[-1]["next_page"] is None
        # an empty result set is a single token-less page
        if pages[0]["total_results"] == 0:
            assert len(pages) == 1 and pages[0]["results"] == []

    def test_boundary_shapes_still_hold(self):
        # The suite's boundary arithmetic relies on "store" having exactly
        # 3 results in the stores document; pin it so dataset drift makes
        # this suite fail loudly instead of degenerating.
        service = SnippetService(build_corpus())
        response = service.run(SearchRequest(query="store", document="stores", size_bound=6))
        assert response.total_results == 3

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("query,page_size", BOUNDARY_CASES)
    def test_page_walk_byte_identical_to_single_corpus(
        self, cluster_with, shards, query, page_size
    ):
        cluster = cluster_with(shards)
        single = SnippetService(build_corpus())
        request = SearchRequest(
            query=query, document="stores", size_bound=6, page_size=page_size
        )
        ours = [json.dumps(page, sort_keys=True) for page in walk_pages(cluster, request)]
        theirs = [json.dumps(page, sort_keys=True) for page in walk_pages(single, request)]
        assert ours == theirs

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_token_reroutes_to_the_same_shard(self, cluster_with, shards):
        cluster = cluster_with(shards)
        request = SearchRequest(query="store", document="stores", size_bound=6, page_size=2)
        first = cluster.run(request)
        assert first.next_page is not None
        follow_up = cluster.run(request.with_page(first.next_page))
        assert follow_up.shard == first.shard

    def test_page_past_the_end_is_empty_not_an_error(self, cluster_with):
        cluster = cluster_with(3)
        single = SnippetService(build_corpus())
        request = SearchRequest(
            query="store", document="stores", size_bound=6, page_size=2, page=9
        )
        assert json.dumps(cluster.handle_dict(request.to_dict()), sort_keys=True) == (
            json.dumps(single.handle_dict(request.to_dict()), sort_keys=True)
        )

    def test_invalid_page_error_identical(self, cluster_with):
        cluster = cluster_with(2)
        single = SnippetService(build_corpus())
        payload = {
            "kind": "search", "schema_version": 1, "query": "store",
            "document": "stores", "page": 0, "page_size": 2,
        }
        assert cluster.handle_dict(payload) == single.handle_dict(payload)
