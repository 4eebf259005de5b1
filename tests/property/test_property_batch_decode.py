"""The batch-answer decoder against ``json.loads``.

A coordinator decodes a shard's batch answer once, with
:func:`repro.api.protocol.decode_batch_response`: it matches the envelope
that :func:`~repro.api.protocol.encode_response` writes literally and reads
each value in it with ``json``'s scanner, returning the decoded value plus
the text of every search response.  Hypothesis draws canonical batch texts
(the batches of :mod:`tests.property.test_property_encode`) and mutations
of them — a dropped or doubled separator, extra whitespace, reordered or
duplicated keys, trailing bytes, truncation, a response that is not an
object, a changed character — and holds the decoder to one rule: it
returns ``None``, or exactly the value ``json.loads`` gives together with
spans that each decode to their response.  A canonical text always
decodes.  The example count is the active profile's: the default in the
tier-1 run, ``--hypothesis-profile=fuzz`` in CI.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.protocol import decode_batch_response, encode_response
from tests.property.test_property_encode import batch_responses

canonical_texts = batch_responses().map(encode_response)


def _positions(text: str, needle: str) -> list[int]:
    found, at = [], text.find(needle)
    while at >= 0:
        found.append(at)
        at = text.find(needle, at + 1)
    return found


def _reordered(text: str) -> str:
    payload = json.loads(text)
    return json.dumps(dict(reversed(payload.items())))


def _duplicated_key(text: str) -> str:
    # a second "kind" after the first key; json.loads keeps the last value
    return text.replace(", ", ', "kind": "batch_response", ', 1)


@st.composite
def mutated_texts(draw) -> str:
    text = draw(canonical_texts)
    how = draw(st.sampled_from((
        "drop", "drop-between", "double", "whitespace", "reorder", "duplicate",
        "trailing", "truncate", "non-object", "character",
    )))
    if how in ("drop", "double"):
        separator = draw(st.sampled_from((", ", ": ", ",", ":")))
        places = _positions(text, separator)
        if places:
            at = draw(st.sampled_from(places))
            cut = at + len(separator)
            text = text[:at] + text[cut:] if how == "drop" else text[:cut] + separator + text[cut:]
    elif how == "drop-between":
        # the comma between two array items: [{…}{…}] is not JSON
        places = _positions(text, "}, {")
        if places:
            at = draw(st.sampled_from(places)) + 1
            text = text[:at] + text[at + 2:]
    elif how == "whitespace":
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from((" ", "\n", "\t", "\r\n"))) + text[at:]
    elif how == "reorder":
        text = _reordered(text)
    elif how == "duplicate":
        text = _duplicated_key(text)
    elif how == "trailing":
        text += draw(st.sampled_from((" ", "\n", "}", "]", ",", "x", "{}")))
    elif how == "truncate":
        text = text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    elif how == "non-object":
        places = _positions(text, '"responses": [{')
        if places:
            at = draw(st.sampled_from(places)) + len('"responses": [')
            end = json.JSONDecoder().raw_decode(text, at)[1]
            text = text[:at] + draw(st.sampled_from(("1", '"x"', "[]", "null", "true"))) + text[end:]
    else:
        at = draw(st.integers(min_value=0, max_value=len(text) - 1))
        text = text[:at] + draw(st.sampled_from('{}[],:" 0an\\')) + text[at + 1:]
    return text


def assert_agrees_with_json_loads(text: str) -> None:
    decoded = decode_batch_response(text)
    if decoded is None:
        return
    payload, wires = decoded
    # repr, not ==: it tells 1 from 1.0 and True, -0.0 from 0.0, and a
    # nan is equal to itself
    assert repr(payload) == repr(json.loads(text))
    assert len(wires) == len(payload["entries"])
    for entry, entry_wires in zip(payload["entries"], wires):
        assert len(entry_wires) == len(entry["responses"])
        for response, wire in zip(entry["responses"], entry_wires):
            assert repr(json.loads(wire)) == repr(response)


@settings(deadline=None)
@given(canonical_texts)
def test_a_canonical_batch_decodes_once_into_its_value_and_spans(text):
    assert decode_batch_response(text) is not None
    assert_agrees_with_json_loads(text)


@settings(deadline=None)
@given(mutated_texts())
def test_a_mutated_batch_decodes_as_json_loads_or_not_at_all(text):
    assert_agrees_with_json_loads(text)


CANONICAL = (
    '{"documents": ["a"], "entries": [{"query": "q", "responses": [{"n": 1}, {"n": 2}]}], '
    '"kind": "batch_response", "schema_version": 1}'
)


@pytest.mark.parametrize(
    "text",
    [
        CANONICAL.replace("}, {", "}{"),  # a missing comma json.loads rejects
        CANONICAL.replace("}, {", "},  {"),
        CANONICAL.replace("}, {", "},{"),
        CANONICAL + " ",
        CANONICAL + "}",
        CANONICAL[:-1],
        CANONICAL.replace('"q", ', '"q", "query": "r", '),
        _reordered(CANONICAL),
        _duplicated_key(CANONICAL),
        '{"code": "internal", "error": "X", "kind": "error", "message": "m", '
        '"request": null, "schema_version": 1}',
        "",
        "not json",
    ],
)
def test_text_in_any_other_form_is_left_to_json_loads(text):
    assert decode_batch_response(text) is None


def test_the_canonical_example_decodes():
    payload, wires = decode_batch_response(CANONICAL)
    assert payload == json.loads(CANONICAL)
    assert wires == (('{"n": 1}', '{"n": 2}'),)
