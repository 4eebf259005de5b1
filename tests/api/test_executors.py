"""Tests for the pluggable executors, including the lifecycle contract.

The lifecycle contract (documented in :mod:`repro.api.executors`) is
shared by every implementation: close is idempotent, submitting through a
closed executor raises a clear :class:`RuntimeError`, and context-manager
re-entry re-opens the executor.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.executors import MAX_WORKERS, ConcurrentExecutor


class TestConcurrentExecutor:
    def test_maps_in_order(self):
        with ConcurrentExecutor(max_workers=4) as executor:
            assert executor.map(lambda x: x * 2, list(range(20))) == [x * 2 for x in range(20)]

    def test_actually_uses_worker_threads(self):
        barrier = threading.Barrier(2, timeout=5)

        def rendezvous(_):
            # Both items must be in flight at once for the barrier to lift;
            # a serial executor would deadlock (barrier timeout).
            barrier.wait()
            return threading.current_thread().name

        with ConcurrentExecutor(max_workers=2) as executor:
            names = executor.map(rendezvous, [0, 1])
        assert all(name.startswith("repro-") for name in names)

    def test_single_item_runs_inline(self):
        with ConcurrentExecutor(max_workers=2) as executor:
            names = executor.map(lambda _: threading.current_thread().name, [0])
        assert names == [threading.current_thread().name]

    def test_propagates_first_exception_by_item_order(self):
        def boom(x):
            if x in (1, 3):
                raise ValueError(f"item-{x}")
            return x

        with ConcurrentExecutor(max_workers=4) as executor:
            with pytest.raises(ValueError, match="item-1"):
                executor.map(boom, [0, 1, 2, 3])

    def test_concurrent_first_use_shares_one_pool(self):
        executor = ConcurrentExecutor(max_workers=2)
        barrier = threading.Barrier(4, timeout=5)

        def use(_):
            barrier.wait()
            return executor.map(lambda x: x + 1, [1, 2])

        # four threads race the lazy pool creation; exactly one pool must
        # survive (no leaked duplicates) and all maps must succeed
        starters = [threading.Thread(target=use, args=(i,)) for i in range(4)]
        for thread in starters:
            thread.start()
        for thread in starters:
            thread.join()
        assert executor._pool is not None
        executor.close()
        assert executor._pool is None

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ConcurrentExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ConcurrentExecutor(max_workers=True)

    def test_repr_shows_state(self):
        executor = ConcurrentExecutor(max_workers=3)
        assert "idle" in repr(executor)
        executor.map(str, [1, 2])
        assert "running" in repr(executor)
        executor.close()
        assert "closed" in repr(executor)


#: every executor implementation must satisfy the same lifecycle contract
LIFECYCLE_FACTORIES = [
    pytest.param(lambda: ConcurrentExecutor(max_workers=2), id="concurrent"),
]


class TestExecutorLifecycleContract:
    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_close_is_idempotent(self, factory):
        executor = factory()
        executor.map(str, [1, 2])
        executor.close()
        executor.close()  # second close must be a harmless no-op
        assert executor.closed

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_submitting_after_close_raises_clear_error(self, factory):
        executor = factory()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(str, [1, 2])
        # the single-item inline fast path must refuse too
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(str, [1])

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_context_manager_reentry_reopens(self, factory):
        executor = factory()
        with executor as entered:
            assert entered is executor
            assert executor.map(str, [1, 2]) == ["1", "2"]
        assert executor.closed
        # Re-entry re-opens the executor; worker resources come back
        # lazily on the next submission.
        with executor:
            assert not executor.closed
            assert executor.map(str, [3, 4]) == ["3", "4"]
        assert executor.closed

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_new_executor_starts_open(self, factory):
        executor = factory()
        assert not executor.closed
        executor.close()

    def test_every_executor_states_its_bound(self):
        # HttpServer reads max_workers as the number of backend calls it
        # serves at once: one worker serialises the whole server, and the
        # bound never exceeds MAX_WORKERS.
        assert ConcurrentExecutor(max_workers=1).max_workers == 1
        assert ConcurrentExecutor(max_workers=3).max_workers == 3
        assert ConcurrentExecutor(max_workers=MAX_WORKERS + 1).max_workers == MAX_WORKERS
