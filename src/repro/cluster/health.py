"""Health-checked failover: the background prober of a remote cluster.

:class:`HealthMonitor` owns the liveness view of every
:class:`~repro.cluster.replication.ReplicaSet`: it polls each endpoint's
``GET /v1/health`` on a fixed interval, marks endpoints down on transport
failure and back up when a probe succeeds, and promotes a replica when it
finds a shard whose primary is dead.  The serving path feeds it too —
repeated ``overloaded`` answers shed an endpoint through
:meth:`ReplicaSet.record_overloaded` — but the monitor is the only
component that ever marks an endpoint *up* again, so flapping endpoints
converge on the prober's view.

The monitor is deliberately synchronous-at-heart: :meth:`check_once` does
one full probe sweep and is what the fault-injection tests drive
deterministically; :meth:`start` merely runs it on a daemon thread every
``interval`` seconds.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.cluster.replication import ReplicaSet
from repro.errors import ProtocolError
from repro.obs.metrics import MetricsRegistry


class HealthMonitor:
    """Poll every endpoint's health; route around and promote past death.

    ``interval`` is the probe period in seconds.  The monitor never raises
    out of a sweep: a probe failure *is* the signal, recorded as endpoint
    state.  Passing a :class:`~repro.obs.metrics.MetricsRegistry` exports
    ``repro_health_transitions_total{shard,direction}`` — a counter that
    ticks only on *edges* (healthy endpoint found dead, dead endpoint
    revived, primary promoted past), not on steady-state probes.
    """

    def __init__(
        self,
        replica_sets: Sequence[ReplicaSet],
        interval: float = 0.25,
        registry: MetricsRegistry | None = None,
    ):
        if interval <= 0:
            raise ValueError(f"probe interval must be positive, got {interval!r}")
        self.replica_sets = tuple(replica_sets)
        self.interval = interval
        self.probes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._transitions = (
            registry.counter(
                "repro_health_transitions_total",
                "Endpoint liveness edges seen by the health monitor, "
                "by shard and direction (down/up/promote).",
                label_names=("shard", "direction"),
            )
            if registry is not None
            else None
        )

    def _record_transition(self, shard_id: int, direction: str) -> None:
        if self._transitions is not None:
            self._transitions.inc(shard=shard_id, direction=direction)

    # ------------------------------------------------------------------ #
    # one sweep
    # ------------------------------------------------------------------ #
    def check_once(self) -> None:
        """Probe every endpoint once; promote where a primary is dead."""
        for replica_set in self.replica_sets:
            for endpoint in replica_set.endpoints():
                was_healthy = endpoint.healthy
                try:
                    endpoint.client.health()
                # Not a retry: each iteration probes a *different* endpoint,
                # and the failed one is retried by the next scheduled sweep.
                # repro: ignore[no-unbounded-retry]
                except (OSError, ProtocolError):
                    replica_set.mark_down(endpoint)
                    if was_healthy:
                        self._record_transition(replica_set.shard_id, "down")
                else:
                    replica_set.mark_up(endpoint)
                    if not was_healthy:
                        self._record_transition(replica_set.shard_id, "up")
            primary = replica_set.primary
            if not primary.healthy or primary.stale:
                # An edge only when the primary slot actually changed hands.
                if replica_set.promote() not in (None, primary):
                    self._record_transition(replica_set.shard_id, "promote")
        self.probes += 1

    # ------------------------------------------------------------------ #
    # background lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "HealthMonitor":
        """Run probe sweeps on a daemon thread until :meth:`stop`."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("the health monitor is already running")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="repro-health", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        # Event.wait is both the pacing and the prompt shutdown path.
        while not self._stop.wait(self.interval):
            self.check_once()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the probe thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "HealthMonitor":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"<HealthMonitor sets={len(self.replica_sets)} "
            f"interval={self.interval} probes={self.probes} ({state})>"
        )
