"""ServiceClient re-sends: the keep-alive reconnect, and writes sent once.

A hand-rolled socket server plays the failure modes HTTP libraries are bad
at faking: a server killed mid-request (accept, then slam the connection),
and a keep-alive peer that closes the socket between requests without
saying so.  The assertions count *connections observed by the server* —
the ground truth for "was this request re-sent", which is exactly the
property that separates idempotent reads (re-sent once, on a fresh
socket, when a pooled one turns out closed) from updates and replication
ops (never re-sent).
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.api import ServiceClient, UpdateRequest
from repro.errors import ProtocolError


class MiniServer:
    """A tiny HTTP server with scriptable connection behaviour.

    The first ``abort_first`` accepted connections are closed without a
    byte of response — what a client sees when the server dies
    mid-request.  Later connections serve up to ``serve_per_connection``
    well-formed JSON responses, then close the socket *without* a
    ``Connection: close`` header — the stale-keep-alive trap.  A request
    to one of ``drop_paths`` is read in full and recorded, then its
    connection is closed unanswered: the server applied it and died
    before the response left.  With a ``gate`` barrier, every request
    waits at it once read, so ``gate.parties`` requests are in flight at
    once.  Each connection is served on its own thread, so concurrent
    clients do not queue behind one another; ``paths`` lists every request
    read in full, in arrival order, and each answer echoes its path.
    """

    def __init__(
        self,
        abort_first: int = 0,
        serve_per_connection: int = 1,
        drop_paths: tuple[str, ...] = (),
        gate: threading.Barrier | None = None,
    ):
        self.abort_first = abort_first
        self.serve_per_connection = serve_per_connection
        self.drop_paths = drop_paths
        self.gate = gate
        self.connections = 0
        self.paths: list[str] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.1)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self.connections += 1
            if self.connections <= self.abort_first:
                conn.close()  # the mid-request kill
                continue
            threading.Thread(
                target=self._serve, args=(conn, self.connections), daemon=True
            ).start()

    def _serve(self, conn: socket.socket, number: int) -> None:
        conn.settimeout(5.0)
        try:
            for _ in range(self.serve_per_connection):
                path = self._read_request(conn)
                if path is None:
                    break
                self.paths.append(path)
                if path in self.drop_paths:
                    break
                if self.gate is not None:
                    self.gate.wait()
                body = json.dumps(
                    {"status": "ok", "connection": number, "path": path}
                ).encode("utf-8")
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                    b"\r\n" + body
                )
        except OSError:
            pass
        finally:
            conn.close()

    @staticmethod
    def _read_request(conn: socket.socket) -> str | None:
        """Consume one full HTTP request and return its path; None when
        the peer closed."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return None
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1].strip())
        while len(rest) < length:
            chunk = conn.recv(4096)
            if not chunk:
                return None
            rest += chunk
        return head.split(b" ", 2)[1].decode("ascii")

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()

    def __enter__(self) -> "MiniServer":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()


class TestSentOnce:
    def test_read_failing_on_a_fresh_connection_is_sent_once(self):
        # Only a pooled socket the server already closed makes a read
        # re-send; a fresh connection that dies raises after one attempt.
        with MiniServer(abort_first=10 ** 6) as server:
            client = ServiceClient("127.0.0.1", server.port)
            with pytest.raises((OSError, ProtocolError)):
                client.health()
            assert server.connections == 1

    def test_update_is_sent_exactly_once(self):
        # The server may have applied an update whose response was lost;
        # re-sending would apply it twice: the wire must see exactly one
        # connection.
        with MiniServer(abort_first=10 ** 6) as server:
            client = ServiceClient("127.0.0.1", server.port)
            response = client.execute_update(
                UpdateRequest(action="remove", document="doomed")
            )
            assert response.kind == "error"
            assert response.code == "internal"
            assert "transport failure" in response.message
            assert server.connections == 1

    def test_replicate_is_sent_exactly_once(self):
        with MiniServer(abort_first=10 ** 6) as server:
            client = ServiceClient("127.0.0.1", server.port)
            with pytest.raises((OSError, ProtocolError)):
                client.replicate({"op": "apply-delta", "delta": None, "sequence": 1})
            assert server.connections == 1

    def test_replicate_rejects_unserialisable_payload(self):
        client = ServiceClient("127.0.0.1", 1)
        with pytest.raises(ProtocolError, match="not JSON-serialisable"):
            client.replicate({"op": object()})


class TestKeepAliveReconnect:
    def test_stale_keep_alive_socket_is_reconnected_for_reads(self):
        # The server closes the connection after each response without
        # announcing it; the client's second request hits a dead socket
        # and must transparently reconnect.  Three requests = three
        # server-side connections, all successful.
        with MiniServer(serve_per_connection=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            try:
                for _ in range(3):
                    assert client.health()["status"] == "ok"
            finally:
                client.close()
            assert server.connections == 3

    def test_keep_alive_reuses_a_live_connection(self):
        # Control: when the server honours keep-alive, every request rides
        # one connection — proving the test above really exercised the
        # reconnect path rather than per-request connections.
        with MiniServer(serve_per_connection=100) as server:
            client = ServiceClient("127.0.0.1", server.port)
            try:
                for _ in range(3):
                    assert client.health()["status"] == "ok"
            finally:
                client.close()
            assert server.connections == 1

    def test_update_after_a_dropped_keep_alive_opens_a_fresh_connection(self):
        # A read warms a connection, which the server then drops without
        # saying so.  The update never rides that pooled socket: it opens
        # its own connection and reaches the server exactly once.
        with MiniServer(serve_per_connection=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            try:
                assert client.health()["status"] == "ok"
                reply = client.post(
                    UpdateRequest(action="remove", document="doomed").to_dict()
                )
            finally:
                client.close()
            assert reply == {"status": "ok", "connection": 2, "path": "/v1/update"}
            assert server.connections == 2
            assert server.paths == ["/v1/health", "/v1/update"]

    def test_writes_never_reuse_a_live_connection(self):
        # Even a connection the server keeps open is not used for a write:
        # each update and replication op opens its own.
        with MiniServer(serve_per_connection=100) as server:
            client = ServiceClient("127.0.0.1", server.port)
            try:
                assert client.health()["status"] == "ok"
                client.post(UpdateRequest(action="remove", document="doomed").to_dict())
                client.replicate({"op": "apply-delta", "delta": None, "sequence": 1})
            finally:
                client.close()
            assert server.connections == 3

    @pytest.mark.parametrize(
        "send",
        [
            lambda client: client.post(
                UpdateRequest(action="remove", document="doomed").to_dict()
            ),
            lambda client: client.replicate(
                {"op": "apply-delta", "delta": None, "sequence": 1}
            ),
        ],
        ids=["update", "replicate"],
    )
    def test_write_dropped_mid_request_is_not_resent(self, send):
        # The server reads the whole write, then its connection dies before
        # the answer leaves.  The write may have been applied: the caller
        # gets the transport error and the server saw it exactly once.
        with MiniServer(
            serve_per_connection=100, drop_paths=("/v1/update", "/v1/replicate")
        ) as server:
            client = ServiceClient("127.0.0.1", server.port)
            try:
                with pytest.raises((OSError, ProtocolError)):
                    send(client)
            finally:
                client.close()
            assert server.connections == 1
            assert len(server.paths) == 1
