"""The HTTP frontend closes a connection that stays silent for
:data:`repro.api.http.IDLE_TIMEOUT` seconds, so idle peers cannot hold
every :data:`~repro.api.http.MAX_CONNECTIONS` slot.  The constant is
patched down to 0.2 s here."""

from __future__ import annotations

import socket
import time

import pytest

import repro.api.http as http_module
from repro.api import SearchRequest, ServiceClient, SnippetService
from repro.api.http import HttpServer
from repro.corpus import Corpus


@pytest.fixture()
def server(monkeypatch):
    monkeypatch.setattr(http_module, "IDLE_TIMEOUT", 0.2)
    corpus = Corpus()
    corpus.add_builtin("figure5-stores", name="stores")
    with HttpServer(SnippetService(corpus), port=0) as server:
        yield server


def _wait_for(condition, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_a_silent_connection_is_closed_and_frees_its_slot(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        assert _wait_for(lambda: len(server._connections) == 1)
        started = time.monotonic()
        assert sock.recv(1) == b""  # closed without an answer
        assert time.monotonic() - started < 2
    assert _wait_for(lambda: not server._connections)


def test_a_client_whose_pooled_socket_was_reaped_is_still_answered(server, monkeypatch):
    connects = []
    connect = ServiceClient._connect

    def counting_connect(client):
        connects.append(None)
        return connect(client)

    monkeypatch.setattr(ServiceClient, "_connect", counting_connect)
    request = SearchRequest(query="store texas", document="stores")
    with ServiceClient(port=server.port) as client:
        assert client.execute(request).kind == "search_response"
        assert _wait_for(lambda: not server._connections)  # the pooled socket was reaped
        assert client.execute(request).kind == "search_response"
    assert len(connects) == 2  # the read was re-sent once, on a fresh connection
