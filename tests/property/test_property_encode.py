"""The assembled search response is the encoded one, byte for byte.

``encode_response`` builds a meta-free :class:`SearchResponse` from its
header values and each result's pinned :attr:`SnippetPayload.wire`
instead of running ``json.dumps`` over the page.  Hypothesis generates
responses with hostile strings (non-ASCII, control characters, quotes,
backslashes, lone surrogates), awkward floats (``-0.0``, ``1e-7``, huge
magnitudes, ``nan``, ``inf``), results-only payloads, empty pages and
continuation tokens, and checks the assembly against
``json.dumps(response.to_dict(), sort_keys=True)`` — also when some
payloads were already pinned by an earlier page.  A :class:`BatchResponse`
is assembled from its responses' texts the same way; its responses are
drawn unpinned, with pinned payloads, or carrying the text they arrived as
(:attr:`SearchResponse.wire`), under hostile queries and documents, with
entries that hold no response and an empty document list.  The example count is
the active profile's: the default in the tier-1 run,
``--hypothesis-profile=fuzz`` in CI.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.protocol import (
    BatchEntry,
    BatchResponse,
    SearchResponse,
    SnippetPayload,
    encode_page_token,
    encode_response,
    parse_response,
)

AWKWARD_CHARS = '"\\/\x00\x01\x1f\x7f\n\r\t\u2028\u2029é漢😀\ud800'

texts = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=st.sampled_from(AWKWARD_CHARS), max_size=8),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
)
optional_ints = st.none() | st.integers(min_value=0, max_value=10**12)


@st.composite
def payloads(draw) -> SnippetPayload:
    """A snippet payload, or a results-only one (snippet fields ``None``)."""
    snippet = {}
    if draw(st.booleans()):
        snippet = dict(
            snippet_edges=draw(optional_ints),
            covered_items=draw(optional_ints),
            coverable_items=draw(optional_ints),
            text=draw(st.none() | texts),
        )
    return SnippetPayload(
        result_id=draw(st.integers(min_value=-(2**63), max_value=2**63)),
        score=draw(floats),
        root=draw(texts),
        root_tag=draw(texts),
        matched_keywords=tuple(draw(st.lists(texts, max_size=3))),
        result_edges=draw(st.integers(min_value=0, max_value=10**9)),
        **snippet,
    )


page_tokens = st.none() | st.integers(min_value=2, max_value=10**6).map(encode_page_token) | texts


@st.composite
def responses(draw) -> SearchResponse:
    """A meta-free search response; meta fields set to show they stay out."""
    return SearchResponse(
        query=draw(texts),
        document=draw(texts),
        keywords=tuple(draw(st.lists(texts, max_size=4))),
        algorithm=draw(st.sampled_from(["slca", "elca"]) | texts),
        total_results=draw(st.integers(min_value=0, max_value=10**9)),
        page=draw(st.integers(min_value=1, max_value=10**6)),
        page_size=draw(st.none() | st.integers(min_value=1, max_value=1000)),
        next_page=draw(page_tokens),
        results=tuple(draw(st.lists(payloads(), max_size=6))),
        from_cache=draw(st.booleans()),
        seconds=draw(floats),
        shard=draw(st.none() | st.integers(min_value=0, max_value=8)),
    )


def dumped(response: SearchResponse | BatchResponse) -> str:
    return json.dumps(response.to_dict(), sort_keys=True)


@st.composite
def batch_responses(draw) -> BatchResponse:
    """A batch whose responses are unpinned, have their payload texts
    pinned by an earlier page, or carry the text a hop received them as."""
    entries = []
    for query in draw(st.lists(texts, max_size=4)):
        served = []
        for response in draw(st.lists(responses(), max_size=3)):
            how = draw(st.sampled_from(("unpinned", "pinned", "arrived")))
            if how == "pinned":
                encode_response(response)
            elif how == "arrived":
                text = dumped(response)
                response = parse_response(json.loads(text), text).with_shard(0)
                assert response.wire == text
            served.append(response)
        entries.append(BatchEntry(query=query, responses=tuple(served), seconds=draw(floats)))
    return BatchResponse(entries=tuple(entries), documents=tuple(draw(st.lists(texts, max_size=4))))


@settings(deadline=None)
@given(responses(), st.integers(min_value=0, max_value=6))
def test_the_assembled_page_is_the_dumped_page(response, served_before):
    # an earlier page pins the texts of some payloads first
    earlier = replace(response, results=response.results[:served_before])
    assert encode_response(earlier) == dumped(earlier)
    text = encode_response(response)
    assert text == dumped(response)
    for payload in response.results:
        assert payload.wire == json.dumps(payload.to_dict(), sort_keys=True)
    # a repeat reads the pinned texts and moves no byte
    assert encode_response(response) == text
    assert response.wire is None


def test_the_assembler_writes_every_field_in_sorted_order():
    payload = SnippetPayload(
        result_id=1, score=0.5, root="0.1", root_tag="store", matched_keywords=("texas",),
        result_edges=3, snippet_edges=2, covered_items=1, coverable_items=2, text="store",
    )
    response = SearchResponse(
        query="store texas", document="retail", keywords=("store", "texas"),
        algorithm="slca", total_results=1, page=1, page_size=10, next_page=None,
        results=(payload,),
    )
    text = encode_response(response)
    page = json.loads(text, object_pairs_hook=list)
    assert [key for key, _ in page] == sorted(response.to_dict())
    results = dict(page)["results"]
    assert [key for key, _ in results[0]] == sorted(payload.to_dict())
    # every constructor field of a payload is on the wire; the pinned text is not
    assert sorted(f.name for f in fields(SnippetPayload) if f.init) == sorted(payload.to_dict())
    assert text == dumped(response)


@settings(deadline=None)
@given(batch_responses())
def test_the_assembled_batch_is_the_dumped_batch(batch):
    text = encode_response(batch)
    assert text == dumped(batch)
    # the assembly pinned every payload it encoded, and a repeat moves no byte
    assert all(
        payload.wire is not None
        for entry in batch.entries
        for response in entry.responses
        if response.wire is None
        for payload in response.results
    )
    assert encode_response(batch) == text


def test_the_batch_assembler_writes_every_field_in_sorted_order():
    response = SearchResponse(
        query="store", document="retail", keywords=("store",), algorithm="slca",
        total_results=0, page=1, page_size=None, next_page=None, results=(),
    )
    batch = BatchResponse(
        entries=(
            BatchEntry(query="store", responses=(response, response)),
            BatchEntry(query="none", responses=()),
        ),
        documents=("retail", "retail"),
    )
    text = encode_response(batch)
    envelope = json.loads(text, object_pairs_hook=list)
    assert [key for key, _ in envelope] == sorted(batch.to_dict())
    entries = dict(envelope)["entries"]
    assert [[key for key, _ in entry] for entry in entries] == [["query", "responses"]] * 2
    assert text == dumped(batch)
    assert encode_response(BatchResponse(entries=(), documents=())) == (
        '{"documents": [], "entries": [], "kind": "batch_response", "schema_version": 1}'
    )
