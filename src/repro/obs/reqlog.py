"""The structured request log: one JSON line per request.

:class:`RequestLogger` plugs into the gateway's existing log-callback
seam (``build_gateway(log=...)`` calls it as
``log(request, response, seconds)``), so request logging composes with
the rest of the stack without a new hook.  Each line is a single JSON
object::

    {"ts": 1754650000.123, "request_id": "9f2c…", "kind": "search",
     "code": null, "seconds": 0.0042, "document": "stores",
     "from_cache": true, "shard": 0, "slow": false}

``request_id`` comes from the active trace (the gateway's tracing step
assigns it), so a log line joins against its trace and its metrics.
``slow_query_ms`` marks lines over the threshold ``"slow": true``;
``only_slow=True`` turns the logger into a pure slow-query log that emits
nothing below the threshold.  A failing sink never fails the request —
the gateway already guards the callback, and the logger itself
swallows write errors for the same reason.
"""

from __future__ import annotations

import json
import threading
from typing import Any, IO

from repro.obs.clock import wall_clock
from repro.obs.trace import current_trace


class RequestLogger:
    """Write one JSON line per observed request to a text stream."""

    def __init__(
        self,
        stream: IO[str],
        slow_query_ms: float | None = None,
        only_slow: bool = False,
    ):
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError(
                f"slow_query_ms must be non-negative, got {slow_query_ms!r}"
            )
        if only_slow and slow_query_ms is None:
            raise ValueError("only_slow=True needs a slow_query_ms threshold")
        self.stream = stream
        self.slow_query_ms = slow_query_ms
        self.only_slow = only_slow
        self._lock = threading.Lock()

    # The gateway calls this as log(request, response, seconds).
    def __call__(self, request: Any, response: Any, seconds: float) -> None:
        slow = (
            self.slow_query_ms is not None
            and seconds * 1000.0 >= self.slow_query_ms
        )
        if self.only_slow and not slow:
            return
        record = self.build_record(request, response, seconds, slow)
        line = json.dumps(record, sort_keys=True)
        try:
            with self._lock:
                self.stream.write(line + "\n")
                self.stream.flush()
        # A full disk or closed pipe must not fail the request the log
        # line describes.
        # repro: ignore[no-silent-swallow]
        except (OSError, ValueError):
            pass

    @staticmethod
    def build_record(
        request: Any, response: Any, seconds: float, slow: bool
    ) -> dict[str, Any]:
        """The log-line fields for one request (separated for testing)."""
        trace = current_trace()
        record: dict[str, Any] = {
            "ts": wall_clock(),
            "request_id": trace.request_id if trace is not None else None,
            "kind": getattr(request, "kind", None),
            "code": getattr(response, "code", None),
            "seconds": seconds,
            "slow": slow,
        }
        document = getattr(request, "document", None)
        if document is not None:
            record["document"] = document
        shard = getattr(response, "shard", None)
        if shard is not None:
            record["shard"] = shard
        from_cache = getattr(response, "from_cache", None)
        if from_cache is not None:
            record["from_cache"] = from_cache
        return record
