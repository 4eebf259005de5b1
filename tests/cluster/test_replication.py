"""Unit tests for the replication primitives — no processes, fake clients.

:class:`ReplicaSet` and :class:`HealthMonitor` are pure state machines
over a client interface; these tests pin their transition rules (read
rotation, shedding, staleness, promotion eligibility, who may mark an
endpoint up) without the cost or nondeterminism of spawned servers.  The
end-to-end behaviour over real processes lives in
``test_remote_faults.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import HealthMonitor, ReplicaSet, ShardEndpoint
from repro.cluster.replication import OVERLOAD_THRESHOLD
from repro.errors import ClusterError


class FakeClient:
    """The slice of ServiceClient the replication layer touches."""

    def __init__(self, port: int, alive: bool = True):
        self.host = "127.0.0.1"
        self.port = port
        self.alive = alive
        self.health_calls = 0
        self.closed = False

    def health(self):
        self.health_calls += 1
        if not self.alive:
            raise ConnectionRefusedError(f"fake endpoint :{self.port} is down")
        return {"status": "ok"}

    def close(self):
        self.closed = True


def make_set(shard_id: int = 0, size: int = 3) -> ReplicaSet:
    endpoints = [ShardEndpoint(FakeClient(port=9000 + index)) for index in range(size)]
    return ReplicaSet(shard_id, endpoints)


class TestReplicaSetBasics:
    def test_endpoint_zero_becomes_primary(self):
        replica_set = make_set()
        assert replica_set.primary.role == "primary"
        assert all(endpoint.role == "replica" for endpoint in replica_set.replicas)
        assert len(replica_set) == 3

    def test_empty_set_rejected(self):
        with pytest.raises(ClusterError, match="at least one endpoint"):
            ReplicaSet(0, [])

    def test_endpoint_rejects_unknown_role(self):
        with pytest.raises(ClusterError, match="role"):
            ShardEndpoint(FakeClient(1), role="observer")

    def test_close_closes_every_client(self):
        replica_set = make_set()
        replica_set.close()
        assert all(endpoint.client.closed for endpoint in replica_set.endpoints())


class TestReadCandidates:
    def test_rotation_spreads_consecutive_reads(self):
        replica_set = make_set(size=3)
        first = [endpoint.address for endpoint in replica_set.read_candidates()]
        second = [endpoint.address for endpoint in replica_set.read_candidates()]
        third = [endpoint.address for endpoint in replica_set.read_candidates()]
        fourth = [endpoint.address for endpoint in replica_set.read_candidates()]
        assert sorted(first) == sorted(second) == sorted(third)
        assert first != second != third  # the head rotates
        assert fourth == first  # full cycle

    def test_unhealthy_endpoints_are_skipped(self):
        replica_set = make_set(size=3)
        victim = replica_set.replicas[0]
        replica_set.mark_down(victim)
        for _ in range(4):
            assert victim not in replica_set.read_candidates()

    def test_all_down_falls_back_to_non_stale(self):
        # A guaranteed failure helps nobody: when everything is marked
        # down, the non-stale endpoints are still offered (one may have
        # recovered since the last probe).
        replica_set = make_set(size=2)
        for endpoint in replica_set.endpoints():
            replica_set.mark_down(endpoint)
        candidates = replica_set.read_candidates()
        assert sorted(e.address for e in candidates) == sorted(
            e.address for e in replica_set.endpoints()
        )

    def test_stale_endpoints_never_serve_reads(self):
        replica_set = make_set(size=2)
        diverged = replica_set.replicas[0]
        replica_set.mark_stale(diverged)
        for _ in range(3):
            assert diverged not in replica_set.read_candidates()
        # ... even when everything else is down
        replica_set.mark_down(replica_set.primary)
        replica_set.mark_down(diverged)
        assert diverged not in replica_set.read_candidates()

    def test_everything_stale_yields_no_candidates(self):
        replica_set = make_set(size=2)
        for endpoint in replica_set.endpoints():
            replica_set.mark_stale(endpoint)
        assert replica_set.read_candidates() == []


class TestOverloadShedding:
    def test_streak_sheds_at_threshold(self):
        replica_set = make_set(size=2)
        endpoint = replica_set.primary
        for _ in range(OVERLOAD_THRESHOLD - 1):
            assert replica_set.record_overloaded(endpoint) is False
            assert endpoint.healthy
        assert replica_set.record_overloaded(endpoint) is True
        assert not endpoint.healthy

    def test_served_answer_resets_the_streak(self):
        replica_set = make_set(size=2)
        endpoint = replica_set.primary
        replica_set.record_overloaded(endpoint)
        replica_set.record_overloaded(endpoint)
        replica_set.record_served(endpoint)
        assert endpoint.overloaded_streak == 0
        # the counter really restarted: threshold more needed to shed
        for _ in range(OVERLOAD_THRESHOLD - 1):
            assert replica_set.record_overloaded(endpoint) is False


class TestPromotion:
    def test_noop_while_primary_healthy(self):
        replica_set = make_set(size=3)
        primary = replica_set.primary
        assert replica_set.promote() is primary

    def test_promotes_first_healthy_in_sync_replica(self):
        replica_set = make_set(size=3)
        old_primary = replica_set.primary
        successor = replica_set.replicas[0]
        replica_set.mark_down(old_primary)
        promoted = replica_set.promote()
        assert promoted is successor
        assert replica_set.primary is successor
        assert successor.role == "primary"
        assert old_primary.role == "replica"
        # the dead primary went to the tail, not the middle
        assert replica_set.endpoints()[-1] is old_primary

    def test_stale_and_out_of_sync_replicas_are_skipped(self):
        replica_set = make_set(size=3)
        replica_set.record_commit(5)  # committed writes the replicas must have
        lagging, fresh = replica_set.replicas
        replica_set.record_applied(fresh, 5)
        replica_set.mark_stale(lagging)  # stale: excluded outright
        replica_set.mark_down(replica_set.primary)
        assert replica_set.promote() is fresh

    def test_no_candidate_leaves_shard_write_unavailable(self):
        replica_set = make_set(size=2)
        replica_set.record_commit(1)  # the replica (seq 0) is now behind
        replica_set.mark_down(replica_set.primary)
        assert replica_set.promote() is None
        # the dead primary is still in slot 0 — nothing was silently moved
        assert not replica_set.primary.healthy

    def test_commit_tracks_primary_sequence(self):
        replica_set = make_set(size=2)
        replica_set.record_commit(3)
        assert replica_set.sequence == 3
        assert replica_set.primary.sequence == 3
        assert replica_set.replicas[0].sequence == 0


class TestHealthMonitor:
    def test_check_once_marks_down_and_up(self):
        replica_set = make_set(size=3)
        dead = replica_set.replicas[0]
        dead.client.alive = False
        monitor = HealthMonitor([replica_set])
        monitor.check_once()
        assert not dead.healthy
        assert all(
            endpoint.healthy
            for endpoint in replica_set.endpoints()
            if endpoint is not dead
        )
        dead.client.alive = True
        monitor.check_once()
        assert dead.healthy
        assert monitor.probes == 2

    def test_probe_success_does_not_clear_staleness(self):
        replica_set = make_set(size=2)
        diverged = replica_set.replicas[0]
        replica_set.mark_stale(diverged)
        HealthMonitor([replica_set]).check_once()
        assert diverged.healthy and diverged.stale
        assert diverged not in replica_set.read_candidates()

    def test_sweep_promotes_past_dead_primary(self):
        replica_set = make_set(size=2)
        replica_set.primary.client.alive = False
        survivor = replica_set.replicas[0]
        HealthMonitor([replica_set]).check_once()
        assert replica_set.primary is survivor

    def test_promote_transition_counts_only_a_changed_primary(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        lonely = make_set(shard_id=0, size=1)  # dead primary, nobody to promote
        lonely.primary.client.alive = False
        paired = make_set(shard_id=1, size=2)  # dead primary, one successor
        paired.primary.client.alive = False
        monitor = HealthMonitor([lonely, paired], registry=registry)
        for _ in range(5):
            monitor.check_once()
        transitions = registry.counter(
            "repro_health_transitions_total", "", label_names=("shard", "direction")
        )
        assert transitions.value(shard=0, direction="promote") == 0
        assert transitions.value(shard=1, direction="promote") == 1
        # the liveness edges themselves are still one per endpoint
        assert transitions.value(shard=0, direction="down") == 1
        assert transitions.value(shard=1, direction="down") == 1

    def test_background_lifecycle(self):
        replica_set = make_set(size=1)
        monitor = HealthMonitor([replica_set], interval=0.01)
        assert not monitor.running
        with monitor:
            assert monitor.running
            with pytest.raises(RuntimeError, match="already running"):
                monitor.start()
            deadline = 200
            while monitor.probes == 0 and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
            assert monitor.probes > 0
        assert not monitor.running
        monitor.stop()  # idempotent

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            HealthMonitor([], interval=0)
