"""The distributed deployment layer: the router over remote shards.

Three pieces turn the in-process cluster into a process-per-shard
deployment without a second coordinator — the router of
:mod:`repro.cluster.router` is reused as is, over a different kind of
shard:

* :class:`ShardBackend` — what one ``serve --shard-of N`` process runs: a
  :class:`~repro.cluster.shard.ShardServer` behind the standard backend
  surface, plus the **replication ops** served on ``POST /v1/replicate``
  (``apply-update`` on a primary returns the response *and* the
  :class:`~repro.cluster.shard.ShardDelta`; ``apply-delta`` applies a
  primary's delta on a replica).  Replication deliberately bypasses the
  gateway: update propagation is a separate path from read
  serving, so admission control shedding reads never stalls replication.
* :class:`RemoteShard` — the router's shard seam over one
  :class:`~repro.cluster.replication.ReplicaSet` of
  :class:`~repro.api.client.ServiceClient`\\ s.  Everything that differs
  from an in-process shard lives here: reads load-balance across the
  shard's healthy, in-sync replicas and fail over on transport death;
  writes pin to the primary and fan the returned delta to the replicas; a
  dead primary is routed around by promoting an in-sync replica.
* :func:`spawn_shard_server` / :meth:`RemoteClusterService.spawn` — the
  process harness: spawn ``serve`` subprocesses with ``--port 0`` and an
  atomically-written ``--port-file``, poll the file, wire up clients.
  :class:`RemoteClusterService` is the router plus that lifecycle
  (processes, health monitor, metrics registry) and nothing else.

The byte-identity contract survives the network hop: the default wire
responses of an N-shard × M-replica remote cluster are byte-identical to
a single-corpus :class:`~repro.api.SnippetService` holding the same
documents — including error bytes — because requests are forwarded
verbatim, every shard answer is decoded and parsed by the typed protocol
with its full strictness before it is used, and the router fabricates
registry errors over the union of every shard's documents whatever the
shards are made of.  A meta-free search answer that passed those checks
is then forwarded as the text the shard sent
(:attr:`~repro.api.protocol.SearchResponse.wire`) — the shard encoded it
with the same :func:`~repro.api.protocol.encode_response` — instead of
being rebuilt and encoded again.  A meta-free batch answer is decoded
once into its value and the text of each search response
(:func:`~repro.api.protocol.decode_batch_response`), each parsed response
keeps its text, and the merged batch is spliced from them.  Meta and
errors are re-encoded from the parsed form.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Iterable, Mapping, Sequence

from repro.api.backend import ServingBackendBase
from repro.api.client import ServiceClient
from repro.api.protocol import (
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    SearchRequest,
    SearchResponse,
    UpdateRequest,
    UpdateResponse,
    parse_request,
    parse_response,
)
from repro.cluster.health import HealthMonitor
from repro.cluster.partition import (
    Partitioner,
    partitioner_from_manifest,
    read_cluster_manifest,
    saved_cluster_documents,
)
from repro.cluster.replication import ReplicaSet, ShardEndpoint
from repro.cluster.router import ClusterService, ShardFailure
from repro.cluster.shard import ShardDelta, ShardServer
from repro.errors import ClusterError, ExtractError, ProtocolError
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_trace
from repro.utils.cache import DEFAULT_CACHE_SIZE

#: ops served on ``POST /v1/replicate``
REPLICATION_OPS = ("apply-update", "apply-delta")

#: transport-level failures that trigger read failover
_TRANSPORT_ERRORS = (OSError, ProtocolError)

#: seconds a coordinator waits for one shard answer
REQUEST_TIMEOUT = 30.0

#: seconds a spawned ``serve`` process gets to publish its port
START_TIMEOUT = 60.0


class ShardBackend(ServingBackendBase):
    """One shard of a cluster served by its own process.

    The standard ``execute*`` surface delegates to the shard's
    :class:`~repro.api.SnippetService` (responses byte-identical to the
    single-corpus service for the documents this shard owns);
    :meth:`handle_replicate` adds the primary/replica replication ops.
    ``_sequence`` counts applied writes — the coordinator compares it
    across a replica set to detect endpoints that missed a delta.
    """

    backend_name = "shard-backend"

    def __init__(self, shard: ShardServer):
        self.shard = shard
        self._sequence = 0
        self._seq_lock = threading.Lock()

    @classmethod
    def load_dir(
        cls,
        cluster_dir: str | os.PathLike[str],
        shard_id: int,
        algorithm: str | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "ShardBackend":
        """Load one shard of a saved cluster directory (``serve --shard-of``)."""
        from repro.corpus import Corpus

        path = os.fspath(cluster_dir)
        manifest = read_cluster_manifest(path)
        if not isinstance(shard_id, int) or isinstance(shard_id, bool) or not (
            0 <= shard_id < manifest.shards
        ):
            raise ClusterError(
                f"--shard-of {shard_id!r} is outside this cluster's "
                f"range [0, {manifest.shards})"
            )
        corpus = Corpus.load_dir(
            os.path.join(path, manifest.shard_dirs[shard_id]),
            algorithm=algorithm,
            cache_size=cache_size,
        )
        return cls(ShardServer(shard_id, corpus=corpus))

    # ------------------------------------------------------------------ #
    # the backend surface
    # ------------------------------------------------------------------ #
    def execute(self, request: SearchRequest) -> SearchResponse | ErrorResponse:
        return self.shard.service.execute(request)

    def execute_batch(self, batch: BatchRequest) -> BatchResponse | ErrorResponse:
        return self.shard.service.execute_batch(batch)

    def execute_update(self, request: UpdateRequest) -> UpdateResponse | ErrorResponse:
        """Apply a lifecycle request directly (bypassing replication).

        Works exactly like the single-corpus service — and bumps the
        replication sequence, because the write happened.  In a replica
        set, direct updates belong on the primary via ``apply-update``;
        this path exists so a lone ``serve --shard-of`` process is still a
        fully functional backend.
        """
        try:
            response = self.shard.update(request)
        except ExtractError as error:
            return ErrorResponse.from_exception(error, request=request.to_dict())
        self._bump_sequence()
        return response

    # ------------------------------------------------------------------ #
    # replication ops
    # ------------------------------------------------------------------ #
    def handle_replicate(self, payload: Any) -> dict[str, Any]:
        """Serve one ``POST /v1/replicate`` op.

        ``apply-update`` (primary): apply the update request, return the
        protocol response, the replication delta and the new sequence.
        An update the *library* rejects (unknown document, bad XML) is a
        structured response with a None delta — the coordinator forwards
        those bytes verbatim, so error bytes stay identical to the
        single-corpus service.  ``apply-delta`` (replica): apply a
        primary's delta through the incremental machinery; failures raise
        (the HTTP layer shapes them), which the coordinator reads as "this
        replica is now stale".
        """
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"replication payload must be a JSON object, got {type(payload).__name__}"
            )
        op = payload.get("op")
        if op == "apply-update":
            return self._apply_update_op(payload)
        if op == "apply-delta":
            return self._apply_delta_op(payload)
        raise ProtocolError(
            f"unknown replication op {op!r}; expected one of {REPLICATION_OPS}"
        )

    def _apply_update_op(self, payload: dict[str, Any]) -> dict[str, Any]:
        request = parse_request(payload.get("request"))
        if not isinstance(request, UpdateRequest):
            raise ProtocolError(
                f"replication op 'apply-update' needs an update request, "
                f"got kind {getattr(request, 'kind', None)!r}"
            )
        try:
            response, report = self.shard.service.run_update_with_report(request)
        except ExtractError as error:
            # The rejection is the primary's *answer*, not a transport
            # fault: ship it structured, with the byte-exact request echo.
            return {
                "op": "apply-update",
                "response": ErrorResponse.from_exception(
                    error, request=request.to_dict()
                ).to_dict(),
                "delta": None,
                "sequence": self.sequence,
            }
        sequence = self._bump_sequence()
        return {
            "op": "apply-update",
            # Full (meta-included) form: the coordinator re-serialises to
            # the caller's meta preference, so nothing may be dropped here.
            "response": response.to_dict(include_meta=True),
            "delta": ShardDelta.of(self.shard.shard_id, request, report).to_wire(),
            "sequence": sequence,
        }

    def _apply_delta_op(self, payload: dict[str, Any]) -> dict[str, Any]:
        delta = ShardDelta.from_wire(payload.get("delta"))
        if delta.shard != self.shard.shard_id:
            raise ClusterError(
                f"replication delta for shard {delta.shard} sent to shard "
                f"{self.shard.shard_id}; refusing to apply it"
            )
        self.shard.apply_delta(delta)
        sequence = payload.get("sequence")
        with self._seq_lock:
            if isinstance(sequence, int) and not isinstance(sequence, bool):
                self._sequence = sequence
            else:
                self._sequence += 1
            applied = self._sequence
        return {
            "op": "apply-delta",
            "applied": True,
            "document": delta.document,
            "sequence": applied,
        }

    def _bump_sequence(self) -> int:
        with self._seq_lock:
            self._sequence += 1
            return self._sequence

    @property
    def sequence(self) -> int:
        with self._seq_lock:
            return self._sequence

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    def capabilities(self) -> dict[str, Any]:
        caps = super().capabilities()
        caps["shard"] = self.shard.shard_id
        caps["documents"] = len(self.shard)
        caps["replication_sequence"] = self.sequence
        return caps

    def stats(self) -> dict[str, Any]:
        stats = self.shard.service.stats()
        stats["shard"] = self.shard.shard_id
        stats["replication_sequence"] = self.sequence
        return stats

    def __repr__(self) -> str:
        return (
            f"<ShardBackend shard={self.shard.shard_id} "
            f"documents={len(self.shard)} seq={self.sequence}>"
        )


# ---------------------------------------------------------------------- #
# the process harness
# ---------------------------------------------------------------------- #
class ShardProcess:
    """One spawned ``serve --shard-of`` subprocess and where it listens."""

    def __init__(
        self, process: subprocess.Popen, shard_id: int, host: str, port: int
    ):
        self.process = process
        self.shard_id = shard_id
        self.host = host
        self.port = port

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """Hard-kill the process (the fault-injection hammer)."""
        if self.alive():
            self.process.kill()
        self.process.wait(timeout=10)

    def terminate(self, timeout: float = 5.0) -> None:
        """Graceful stop, escalating to kill if the process lingers."""
        if self.alive():
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)

    def __repr__(self) -> str:
        state = "alive" if self.alive() else f"exit={self.process.returncode}"
        return f"<ShardProcess shard={self.shard_id} {self.host}:{self.port} ({state})>"


def _python_path_env() -> dict[str, str]:
    """The child environment, with this repro package importable."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


def spawn_server(
    serve_args: Sequence[str],
    label: str = "serve",
    host: str = "127.0.0.1",
    workers: int = 2,
    timeout: float = START_TIMEOUT,
    shard_id: int = -1,
) -> ShardProcess:
    """Spawn one ``repro.cli serve`` process; wait until it is listening.

    ``serve_args`` is the command-specific tail (``--cluster-dir``/
    ``--shard-of`` for a shard, ``--dataset``/``--max-in-flight``/… for a
    load-harness topology); the transport plumbing — ephemeral ``--port
    0``, the atomically-written ``--port-file`` this function polls,
    output capture for error tails — is identical for every spawned
    topology, which is why the shard spawner and the ablation runner
    share this one implementation.  ``label`` names the process in error
    messages.
    """
    handle, port_file = tempfile.mkstemp(prefix="repro-serve-", suffix=".port")
    os.close(handle)
    os.remove(port_file)
    # stdout and stderr both: the CLI prints its ``error: …`` line on stdout
    output_path = port_file + ".output"
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        *[str(argument) for argument in serve_args],
        "--host",
        host,
        "--port",
        "0",
        "--port-file",
        port_file,
        "--workers",
        str(workers),
    ]
    with open(output_path, "w", encoding="utf-8") as output_handle:
        process = subprocess.Popen(
            command,
            stdout=output_handle,
            stderr=subprocess.STDOUT,
            env=_python_path_env(),
        )
    try:
        deadline = monotonic() + timeout
        while True:
            if os.path.exists(port_file):
                with open(port_file, "r", encoding="utf-8") as handle:
                    port = int(handle.read().strip())
                break
            if process.poll() is not None:
                raise ClusterError(
                    f"{label} server exited with code "
                    f"{process.returncode} before publishing its port: "
                    f"{_tail(output_path)}"
                )
            if monotonic() > deadline:
                process.kill()
                raise ClusterError(
                    f"{label} server did not publish its port within "
                    f"{timeout:.0f}s: {_tail(output_path)}"
                )
            time.sleep(0.02)
    finally:
        for leftover in (port_file, output_path):
            if os.path.exists(leftover):
                os.remove(leftover)
    return ShardProcess(process, shard_id=shard_id, host=host, port=port)


def spawn_shard_server(
    cluster_dir: str | os.PathLike[str],
    shard_id: int,
    host: str = "127.0.0.1",
    workers: int = 2,
) -> ShardProcess:
    """Spawn one ``serve --shard-of`` process; wait until it is listening.

    The child binds an ephemeral port (``--port 0``) and publishes it via
    ``--port-file``, whose write is atomic (temp + rename) — so polling
    the file can never read a partial line; a file that exists holds the
    complete port.
    """
    return spawn_server(
        ["--cluster-dir", os.fspath(cluster_dir), "--shard-of", str(shard_id)],
        label=f"shard {shard_id}",
        host=host,
        workers=workers,
        shard_id=shard_id,
    )


def _tail(path: str, limit: int = 800) -> str:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return "(no output captured)"
    text = text.strip()
    return text[-limit:] if text else "(no output)"


# ---------------------------------------------------------------------- #
# the remote shard (the router's seam, over a replica set)
# ---------------------------------------------------------------------- #
class RemoteShard:
    """One shard of a remote cluster, as the router sees it.

    Implements the shard seam of :mod:`repro.cluster.router` over a
    :class:`~repro.cluster.replication.ReplicaSet`: reads rotate across
    the healthy, in-sync endpoints and fail over on transport death;
    writes pin to the primary and fan the returned delta to the replicas;
    a dead primary is marked down and promoted past.  The shard's name
    set (which documents live here) is mutated only under its lock.  A
    pin is just the document name — the shard process resolves it when
    the request arrives, atomically on its side.
    """

    def __init__(
        self,
        replica_set: ReplicaSet,
        names: Iterable[str],
        registry: MetricsRegistry,
    ):
        self.replica_set = replica_set
        self.shard_id = replica_set.shard_id
        self._names = set(names)
        self._lock = threading.Lock()
        self._failovers = registry.counter(
            "repro_shard_failovers_total",
            "Reads that failed over past a dead endpoint, by shard.",
            label_names=("shard",),
        ).labels(shard=self.shard_id)
        self._sheds = registry.counter(
            "repro_shard_shed_total",
            "Overloaded answers that pushed a read to another endpoint, by shard.",
            label_names=("shard",),
        ).labels(shard=self.shard_id)

    # ------------------------------------------------------------------ #
    # registry views & pins
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._names)

    def __contains__(self, document: str) -> bool:
        with self._lock:
            return document in self._names

    def __len__(self) -> int:
        with self._lock:
            return len(self._names)

    def capture(self, document: str) -> str | None:
        return document if document in self else None

    def capture_all(self) -> list[tuple[str, str]]:
        return [(name, name) for name in self.names()]

    # ------------------------------------------------------------------ #
    # the read path (failover + load balancing)
    # ------------------------------------------------------------------ #
    def _read(self, request: SearchRequest | BatchRequest) -> Any:
        """Send one read to a healthy endpoint of this shard and parse the
        answer.

        The shard receives the request verbatim, so every byte of its
        answer — an error's included — matches the single-corpus service.
        Endpoints are tried in the replica set's rotation order; a
        transport failure — the answer could not be read, decoded or
        parsed — marks the endpoint down and moves on, an ``overloaded``
        answer counts toward shedding and also moves on (falling back to
        the overloaded answer when every endpoint is loaded).  A meta-free
        search keeps the text it arrived as
        (:attr:`~repro.api.protocol.SearchResponse.wire`), and each search
        response of a meta-free batch the text it arrived in (the client
        decoded the answer once, into its value and those texts).  Raises
        :class:`ShardFailure` for an error answer and :class:`ClusterError`
        when every endpoint is unreachable — the router's ``execute*``
        shapes both structurally.
        """
        payload = request.to_dict()
        forwards = not request.include_meta
        replica_set = self.replica_set
        trace = current_trace()
        overloaded: ErrorResponse | None = None
        for endpoint in replica_set.read_candidates():
            try:
                if trace is not None:
                    with trace.span(f"shard:{self.shard_id}", role=endpoint.role):
                        raw = endpoint.client.post(payload)
                else:
                    raw = endpoint.client.post(payload)
                if forwards:
                    parsed = parse_response(raw, raw.text, raw.wires)
                else:
                    parsed = parse_response(raw)
            # Failover, not a retry: each iteration tries a *different*
            # endpoint; the failed one is re-probed by the health monitor.
            # repro: ignore[no-unbounded-retry]
            except _TRANSPORT_ERRORS:
                replica_set.mark_down(endpoint)
                self._failovers.inc()
                continue
            if isinstance(parsed, ErrorResponse) and parsed.code == "overloaded":
                replica_set.record_overloaded(endpoint)
                self._sheds.inc()
                overloaded = parsed
                continue
            replica_set.record_served(endpoint)
            if isinstance(parsed, ErrorResponse):
                raise ShardFailure(parsed)
            return parsed
        if overloaded is not None:
            raise ShardFailure(overloaded)
        raise ClusterError(
            f"every endpoint of shard {self.shard_id} is unreachable; "
            "reads cannot fail over"
        )

    def search(self, request: SearchRequest, pin: str) -> SearchResponse:
        return self._read(request)

    def batch(self, sub_batch: BatchRequest, pins: list[str]) -> BatchResponse:
        return self._read(sub_batch)

    # ------------------------------------------------------------------ #
    # the write path (primary + delta fan-out)
    # ------------------------------------------------------------------ #
    def update(self, request: UpdateRequest) -> UpdateResponse:
        replica_set = self.replica_set
        primary = replica_set.primary
        try:
            raw = primary.client.replicate(
                {"op": "apply-update", "request": request.to_dict()}
            )
        except _TRANSPORT_ERRORS as exc:
            # Updates are never retried (the primary may already have
            # applied it); mark the primary down and promote so the *next*
            # update lands on a live primary.  A primary that lost the slot
            # is stale: it may hold the write its replicas never saw, so
            # a health probe must not bring it back into the read rotation.
            # The client sends every write on a fresh connection, so this
            # failure is the primary's, not a pooled keep-alive socket the
            # primary had closed.
            replica_set.mark_down(primary)
            if replica_set.promote() not in (None, primary):
                replica_set.mark_stale(primary)
            raise ShardFailure(
                ErrorResponse(
                    error=type(exc).__name__,
                    message=(
                        f"transport failure talking to shard {self.shard_id}'s "
                        f"primary: {exc}"
                    ),
                    code="internal",
                )
            ) from exc

        # Without a ``response`` member the envelope itself failed (unknown
        # op, malformed request) and the body is the structured error; with
        # one, an error is the library's rejection — no state changed,
        # nothing to fan out.
        response_dict = raw.get("response")
        parsed = parse_response(response_dict if isinstance(response_dict, dict) else raw)
        if isinstance(parsed, ErrorResponse):
            raise ShardFailure(parsed)
        if not isinstance(parsed, UpdateResponse):
            raise ClusterError(f"malformed replication reply from shard {self.shard_id}")

        sequence = raw.get("sequence")
        if isinstance(sequence, int) and not isinstance(sequence, bool):
            replica_set.record_commit(sequence)
            self._replicate_delta(raw.get("delta"), sequence)
        with self._lock:
            if request.action == "remove":
                self._names.discard(request.document)
            else:
                self._names.add(request.document)
        return parsed

    def _replicate_delta(self, delta_wire: Any, sequence: int) -> None:
        """Fan the primary's delta to every replica as it arrived, unparsed:
        each replica validates it (:meth:`ShardDelta.from_wire`), and one
        that refuses it or misses it is stale."""
        if delta_wire is None:
            return
        replica_set = self.replica_set
        for endpoint in replica_set.replicas:
            if endpoint.stale:
                continue
            try:
                ack = endpoint.client.replicate(
                    {"op": "apply-delta", "delta": delta_wire, "sequence": sequence}
                )
            # Fan-out over distinct replicas, not a retry of one call: a
            # replica that missed the delta is stale until rebuilt.
            # repro: ignore[no-unbounded-retry]
            except _TRANSPORT_ERRORS:
                replica_set.mark_down(endpoint)
                replica_set.mark_stale(endpoint)
                continue
            if ack.get("applied") is True and ack.get("sequence") == sequence:
                replica_set.record_applied(endpoint, sequence)
            else:
                replica_set.mark_stale(endpoint)

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, object]:
        """This shard's row in the router's ``stats()``."""
        endpoints = self.replica_set.endpoints()
        return {
            "shard": self.shard_id,
            "endpoints": len(endpoints),
            "healthy": sum(1 for endpoint in endpoints if endpoint.healthy),
            "sequence": self.replica_set.sequence,
        }

    def cache_stats(self) -> dict[str, Any]:
        """Empty: the serving caches live in the shard processes (each
        endpoint's ``/v1/stats`` reports its own)."""
        return {}

    def close(self) -> None:
        # Endpoint clients reconnect lazily, so a re-entered router needs
        # nothing re-opened.
        self.replica_set.close()


# ---------------------------------------------------------------------- #
# the remote deployment of the router
# ---------------------------------------------------------------------- #
class RemoteClusterService(ClusterService):
    """One logical corpus served from N remote shards × M replicas.

    The router is :class:`~repro.cluster.router.ClusterService` itself,
    over one :class:`RemoteShard` per replica set; this subclass adds only
    what is operational — the spawned processes, the health monitor and
    the metrics registry the shards' failover/shed counters land in.
    Persistence stays with the in-process deployment: a remote cluster is
    spawned (:meth:`spawn`) *from* a saved cluster directory.
    """

    backend_name = "remote-cluster"

    def __init__(
        self,
        replica_sets: Sequence[ReplicaSet],
        partitioner: Partitioner | None = None,
        documents: Mapping[str, int] | None = None,
        processes: Sequence[ShardProcess] = (),
    ):
        # Public so build_gateway adopts it: coordinator-side failover /
        # shed / health counters land in the same registry the gateway's
        # request metrics use, and GET /v1/metrics exports them together.
        self.registry = MetricsRegistry()
        documents = dict(documents or {})
        super().__init__(
            [
                RemoteShard(
                    replica_set,
                    [name for name, owner in documents.items() if owner == replica_set.shard_id],
                    self.registry,
                )
                for replica_set in replica_sets
            ],
            partitioner=partitioner,
        )
        for name, shard_id in documents.items():
            if not 0 <= shard_id < len(self.shards):
                raise ClusterError(
                    f"document {name!r} is registered to shard {shard_id}, outside "
                    f"this cluster's range [0, {len(self.shards)})"
                )
        self.replica_sets = tuple(shard.replica_set for shard in self.shards)
        self.processes = list(processes)
        self.monitor: HealthMonitor | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def spawn(
        cls,
        cluster_dir: str | os.PathLike[str],
        replicas: int = 1,
        host: str = "127.0.0.1",
        workers: int = 2,
        health_interval: float | None = None,
    ) -> "RemoteClusterService":
        """Spawn a full remote cluster from a saved cluster directory.

        ``replicas`` is the endpoint count per shard (1 = primary only).
        Every replica loads the same shard snapshot, so the whole set
        starts in sync at sequence 0.  ``health_interval`` starts a
        background :class:`~repro.cluster.health.HealthMonitor`; leave it
        None for deterministic tests that drive ``check_once`` by hand.
        Each endpoint's client keeps its keep-alive connections, so a warm
        shard hop opens no TCP connection.
        """
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise ClusterError(f"replicas must be a positive integer, got {replicas!r}")
        path = os.fspath(cluster_dir)
        manifest = read_cluster_manifest(path)
        located = saved_cluster_documents(path, manifest)
        documents = {name: shard_id for name, (shard_id, _subdir) in located.items()}

        processes: list[ShardProcess] = []
        replica_sets: list[ReplicaSet] = []
        # Until the service is returned, every spawned child is terminated
        # on any failure — a later spawn, the monitor's interval check, an
        # interrupt — so a failed spawn leaves no process behind.
        with contextlib.ExitStack() as spawned:
            for shard_id in range(manifest.shards):
                endpoints = []
                for index in range(replicas):
                    process = spawn_shard_server(path, shard_id, host=host, workers=workers)
                    spawned.callback(process.terminate)
                    processes.append(process)
                    client = ServiceClient(host, process.port, timeout=REQUEST_TIMEOUT)
                    endpoints.append(
                        ShardEndpoint(
                            client, role="primary" if index == 0 else "replica"
                        )
                    )
                replica_sets.append(ReplicaSet(shard_id, endpoints))
            service = cls(
                replica_sets,
                partitioner=partitioner_from_manifest(manifest),
                documents=documents,
                processes=processes,
            )
            if health_interval is not None:
                service.start_monitor(health_interval)
            spawned.pop_all()  # the service owns its processes from here on
        return service

    def start_monitor(self, interval: float = 0.25) -> HealthMonitor:
        """Start (or return) the background health monitor."""
        if self.monitor is None:
            self.monitor = HealthMonitor(
                self.replica_sets, interval=interval, registry=self.registry
            )
        if not self.monitor.running:
            self.monitor.start()
        return self.monitor

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    def capabilities(self) -> dict[str, Any]:
        caps = super().capabilities()
        caps["replicas"] = max(len(replica_set) for replica_set in self.replica_sets)
        caps["remote"] = True
        return caps

    def close(self) -> None:
        """Stop the monitor, release clients, terminate owned processes."""
        if self.monitor is not None:
            self.monitor.stop()
        super().close()
        for process in self.processes:
            process.terminate()
