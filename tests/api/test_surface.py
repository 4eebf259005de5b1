"""The query surface is an explicit list.

There is one way into the pipeline: ``ExtractSystem.run_query`` in
process, ``SnippetService`` / ``ClusterService``
(``run*`` raise, ``execute*`` are total, ``handle_*`` speak JSON) for typed
requests.  A new entry point or a new knob on ``run*`` must show up here
as a deliberate diff (see docs/serving.md).
"""

from __future__ import annotations

import inspect

import pytest

from repro import ClusterService, Corpus, ExtractSystem, SnippetService
from repro.api import SearchResponse, ServiceClient
from repro.cluster import RemoteClusterService, spawn_server, spawn_shard_server

PUBLIC_METHODS = {
    ExtractSystem: {
        "analyzer", "cache_stats", "document_stats", "from_file", "from_saved",
        "from_tree", "from_xml", "invalidate_cache", "run_query",
    },
    Corpus: {
        "add_builtin", "add_file", "add_system", "add_tree", "add_xml",
        "apply_update", "entries_snapshot", "entry", "live_versions", "load_dir", "names",
        "remove_document", "replay_label_edits", "save_dir", "summary", "system",
        "update_document",
    },
    SnippetService: {
        "cache_stats", "capabilities", "close", "execute", "execute_batch",
        "execute_update", "handle_dict", "handle_encoded", "handle_json", "handle_text",
        "run", "run_batch", "run_update", "run_update_with_report", "stats",
    },
    ClusterService: {
        "cache_stats", "capabilities", "close", "execute", "execute_batch",
        "execute_update", "from_corpus", "handle_dict", "handle_encoded", "handle_json",
        "handle_text", "load_dir", "names", "owner_of", "run", "run_batch",
        "run_update", "save_dir", "shard_summary", "stats",
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


CONSTRUCTOR_PARAMETERS = {
    (SnippetService, "__init__"): ["self", "corpus"],
    (ClusterService, "__init__"): ["self", "shards", "partitioner"],
    (ClusterService, "from_corpus"): ["corpus", "shards", "partitioner"],
    (ClusterService, "load_dir"): ["directory", "algorithm", "cache_size"],
    (RemoteClusterService, "__init__"): [
        "self", "replica_sets", "partitioner", "documents", "processes",
    ],
}

#: the client sends a read once more only when its pooled socket was
#: already closed; there is no retry policy to pass, here or to a spawn
CLIENT_PARAMETERS = {
    (ServiceClient, "__init__"): ["self", "host", "port", "timeout", "keep_alive"],
    (RemoteClusterService, "spawn"): [
        "cluster_dir", "replicas", "host", "workers", "health_interval",
    ],
}


@pytest.mark.parametrize(
    "cls,name", CONSTRUCTOR_PARAMETERS, ids=lambda value: getattr(value, "__name__", value)
)
def test_services_take_no_executor(cls, name):
    # a batch runs in the calling thread, a cluster's shard calls included
    assert list(inspect.signature(getattr(cls, name)).parameters) == (
        CONSTRUCTOR_PARAMETERS[cls, name]
    )


@pytest.mark.parametrize(
    "cls,name", CLIENT_PARAMETERS, ids=lambda value: getattr(value, "__name__", value)
)
def test_clients_take_no_retry_policy(cls, name):
    assert list(inspect.signature(getattr(cls, name)).parameters) == (
        CLIENT_PARAMETERS[cls, name]
    )


def test_spawners_take_no_interpreter():
    # the child runs this interpreter; a shard waits START_TIMEOUT for its
    # port, the load harness passes its own timeout
    assert list(inspect.signature(spawn_server).parameters) == [
        "serve_args", "label", "host", "workers", "timeout", "shard_id",
    ]
    assert list(inspect.signature(spawn_shard_server).parameters) == [
        "cluster_dir", "shard_id", "host", "workers",
    ]


@pytest.mark.parametrize("cls", (Corpus, ClusterService), ids=lambda cls: cls.__name__)
def test_save_dir_takes_the_directory_only(cls):
    # one snapshot format: no caller selects what gets written
    assert list(inspect.signature(cls.save_dir).parameters) == ["self", "directory"]


def test_search_response_carries_no_server_side_handle():
    assert "outcome" not in SearchResponse.__dataclass_fields__
