"""Thread-pool executors: the HTTP front end's bound.

An executor maps a function over a list of work items:
:class:`ConcurrentExecutor` fans them out over a
:class:`concurrent.futures.ThreadPoolExecutor`.  Because the query
pipeline is thread-safe (locked caches, no shared mutable engine state),
concurrent execution returns results identical to a plain loop.  No
serving path submits work to one: every request runs on its caller's
thread, a cluster batch's shard calls included.  An
:class:`~repro.api.http.HttpServer` built over an executor reads only
its ``max_workers``, as the bound on concurrent backend calls; tests
drive one service from several threads through :meth:`Executor.map`.

``map`` preserves **input order** in its output list and surfaces the
first worker exception (by item order) exactly like a plain loop would,
so the pool never changes observable results — only wall-clock.

Lifecycle contract (every implementation must satisfy it):

* :meth:`Executor.close` is **idempotent** — closing twice is a no-op;
* submitting work through a closed executor raises :class:`RuntimeError`
  with a clear message (silently recreating worker resources would hide
  resource leaks in long-lived services);
* re-entering the executor as a context manager **re-opens** it — worker
  resources are recreated lazily on the next submission.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TypeVar

from repro.obs.clock import perf_counter
from repro.obs.trace import activate, current_span_id, current_trace

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: worker-count ceiling guarding against pathological requests
MAX_WORKERS = 64


def _trace_preserving(fn: Callable[..., Any], executor_name: str) -> Callable[..., Any]:
    """Carry the submitting context's trace across the pool boundary.

    Contextvars do not propagate into ``ThreadPoolExecutor`` workers, so a
    task submitted while a trace is active would silently stop recording.
    Called *on the submitting thread*, this captures the active trace and
    span; the wrapper re-activates them inside the worker and records the
    submit→run queue delay as a leaf span.  With no active trace the
    callable passes through untouched — the hot path pays one contextvar
    read.
    """
    trace = current_trace()
    if trace is None:
        return fn
    parent = current_span_id()
    submitted = perf_counter()

    def runner(*args: Any, **kwargs: Any) -> Any:
        with activate(trace, parent):
            trace.add_span(
                f"executor:{executor_name}:queue", perf_counter() - submitted
            )
            return fn(*args, **kwargs)

    return runner


class Executor(abc.ABC):
    """Strategy interface: map a callable over items, preserving order."""

    #: short name used in reprs, benchmarks and the CLI
    name: str = "abstract"

    #: most calls the executor runs at once — also the bound an
    #: :class:`~repro.api.http.HttpServer` built over it puts on
    #: concurrent backend calls
    max_workers: int

    @property
    def closed(self) -> bool:
        """True between :meth:`close` and the next context-manager entry."""
        return getattr(self, "_closed", False)

    def _require_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; re-enter it as a context "
                "manager (or create a new executor) before submitting work"
            )

    @abc.abstractmethod
    def map(self, fn: Callable[[_Item], _Result], items: Sequence[_Item]) -> list[_Result]:
        """Apply ``fn`` to every item; results in input order.

        The first exception (by item order) propagates to the caller, as
        in a plain ``for`` loop.  Raises :class:`RuntimeError` when the
        executor has been closed.
        """

    def close(self) -> None:
        """Release worker resources (idempotent).

        A closed executor refuses further work until re-opened by
        context-manager re-entry.
        """
        self._closed = True

    def __enter__(self) -> "Executor":
        # Context-manager re-entry re-opens a closed executor; worker
        # resources come back lazily on the next map().
        self._closed = False
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ConcurrentExecutor(Executor):
    """Run items on a shared thread pool.

    The pool is created lazily on first use and reused across calls, so a
    long-lived service pays thread start-up once.  ``close()`` (or exiting
    the context manager) shuts the pool down; per the lifecycle contract a
    closed executor raises on further submissions until re-entered as a
    context manager, which recreates the pool lazily.
    """

    name = "concurrent"

    def __init__(self, max_workers: int = 8):
        if not isinstance(max_workers, int) or isinstance(max_workers, bool) or max_workers < 1:
            raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
        self.max_workers = min(max_workers, MAX_WORKERS)
        self._pool: ThreadPoolExecutor | None = None
        # Guards pool creation/shutdown: concurrent first users must share
        # one pool (not leak racing duplicates), and submissions racing a
        # close() must land in a live pool or in a fresh one — never in a
        # shut-down pool.
        self._pool_lock = threading.Lock()

    def _submit_all(self, fn, items) -> list:
        with self._pool_lock:
            # Re-check under the lock: a close() racing this map() must not
            # see us resurrect a fresh pool after it shut the old one down
            # (the pool would leak — nothing would ever close it again).
            self._require_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix=f"repro-{self.name}"
                )
            task = _trace_preserving(fn, self.name)
            return [self._pool.submit(task, item) for item in items]

    def map(self, fn: Callable[[_Item], _Result], items: Sequence[_Item]) -> list[_Result]:
        self._require_open()
        if len(items) <= 1:
            # No parallelism to exploit; skip the pool round trip.
            return [fn(item) for item in items]
        futures = self._submit_all(fn, items)
        try:
            # future.result() re-raises the worker exception; walking the
            # futures in submission order surfaces the first failing item,
            # matching serial semantics.
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        self._closed = True
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("idle" if self._pool is None else "running")
        return f"<{type(self).__name__} max_workers={self.max_workers} ({state})>"
