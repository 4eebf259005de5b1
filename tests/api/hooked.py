"""Test doubles for the serving seam: a backend that runs a hook before
each call it forwards, and a hook that holds calls until released."""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.api.backend import ServingBackendBase


class Hooked(ServingBackendBase):
    """Forward every ``execute*`` call to ``inner`` once ``before(request)``
    returns; a hook that raises makes the call raise."""

    def __init__(self, inner: Any, before: Callable[[Any], None]):
        self.inner = inner
        self.before = before

    def execute(self, request):
        self.before(request)
        return self.inner.execute(request)

    def execute_batch(self, batch):
        self.before(batch)
        return self.inner.execute_batch(batch)

    def execute_update(self, request):
        self.before(request)
        return self.inner.execute_update(request)

    def capabilities(self) -> dict[str, Any]:
        return self.inner.capabilities()

    def stats(self) -> dict[str, Any]:
        return self.inner.stats()

    def close(self) -> None:
        self.inner.close()


class Gate:
    """A hook that blocks every call until :attr:`release` is set;
    :attr:`entered` is released once per call that reached it."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def __call__(self, _request: Any) -> None:
        self.entered.release()
        assert self.release.wait(timeout=30), "gate never released (deadlock?)"
