"""The query surface is an explicit list.

There is one way into the pipeline: ``ExtractSystem.run_query`` /
``run_search`` in process, ``SnippetService`` / ``ClusterService``
(``run*`` raise, ``execute*`` are total, ``handle_*`` speak JSON) for typed
requests.  A new entry point or a new knob on ``run*`` must show up here
as a deliberate diff (see docs/serving.md).
"""

from __future__ import annotations

import inspect

import pytest

from repro import ClusterService, Corpus, ExtractSystem, SnippetService
from repro.api import SearchResponse

PUBLIC_METHODS = {
    ExtractSystem: {
        "analyzer", "cache_stats", "document_stats", "from_file", "from_saved",
        "from_tree", "from_xml", "invalidate_cache", "run_query", "run_search",
    },
    Corpus: {
        "add_builtin", "add_file", "add_system", "add_tree", "add_xml",
        "apply_update", "entries_snapshot", "entry", "load_dir", "names", "remove",
        "remove_document", "save_dir", "shared_postings", "summary", "system",
        "update_document",
    },
    SnippetService: {
        "cache_stats", "capabilities", "close", "execute", "execute_batch",
        "execute_update", "handle_dict", "handle_json", "handle_text", "run",
        "run_batch", "run_update", "run_update_with_report", "stats",
    },
    ClusterService: {
        "cache_stats", "capabilities", "close", "execute", "execute_batch",
        "execute_update", "from_corpus", "handle_dict", "handle_json", "handle_text",
        "load_dir", "names", "owner_of", "run", "run_batch",
        "run_update", "run_update_with_delta", "save_dir", "shard_summary", "stats",
    },
}

RUN_PARAMETERS = {
    (SnippetService, "run"): ["self", "request", "entry"],
    (SnippetService, "run_batch"): ["self", "batch", "entries"],
    (SnippetService, "run_update"): ["self", "request"],
    (SnippetService, "run_update_with_report"): ["self", "request"],
    (ClusterService, "run"): ["self", "request"],
    (ClusterService, "run_batch"): ["self", "batch"],
    (ClusterService, "run_update"): ["self", "request"],
    (ClusterService, "run_update_with_delta"): ["self", "request"],
}


@pytest.mark.parametrize("cls", PUBLIC_METHODS, ids=lambda cls: cls.__name__)
def test_public_methods_are_the_explicit_list(cls):
    found = {
        name
        for name, member in inspect.getmembers(cls)
        if not name.startswith("_") and (callable(member) or isinstance(member, property))
    }
    assert found == PUBLIC_METHODS[cls]


@pytest.mark.parametrize(
    "cls,name", RUN_PARAMETERS, ids=lambda value: getattr(value, "__name__", value)
)
def test_run_methods_take_the_request_and_the_pin_only(cls, name):
    assert list(inspect.signature(getattr(cls, name)).parameters) == RUN_PARAMETERS[cls, name]


@pytest.mark.parametrize("cls", (Corpus, ClusterService), ids=lambda cls: cls.__name__)
def test_save_dir_takes_the_directory_only(cls):
    # one snapshot format: no caller selects what gets written
    assert list(inspect.signature(cls.save_dir).parameters) == ["self", "directory"]


def test_search_response_carries_no_server_side_handle():
    assert "outcome" not in SearchResponse.__dataclass_fields__
