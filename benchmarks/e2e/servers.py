"""Spawned servers: the real CLI, a process group each, ``/proc`` accounting.

The end-to-end run touches the program only through ``python -m repro.cli``
and the wire protocol.  Every server is started in its own session, so the
leader's pid is the process group of the whole tree (``cluster-spawn``'s
shard children included): CPU time and peak RSS are summed over the group,
and teardown kills the group — on success, failure and Ctrl-C alike.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

START_TIMEOUT = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (set-up or transport failed) — distinct
    from a wrong answer, which counts in ``failed`` instead."""


def pin_to_one_cpu() -> int | None:
    """Pin this process — and so every server it spawns, which inherits
    the mask — to the last CPU it may use; returns that CPU.

    One closed-loop client keeps one request in flight, so client and
    server alternate rather than overlap, and one core loses nothing but
    the server's own fan-out parallelism.  What it removes is scheduler
    placement: on the 2-core VM this was sized on, a server whose threads
    land on the other core from its client pays cross-CPU wake-ups that
    move CPU time per request by 35 % between otherwise identical server
    instances (measured: p50 1.38 ms vs 1.80 ms on ``warm_read``).
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def child_env(temp_dir: str) -> dict[str, str]:
    """The environment of every spawned CLI process: ``src`` importable,
    temp files (the program's own port files included) inside ``temp_dir``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SOURCE_ROOT + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = temp_dir
    return env


class Workspace:
    """One run's scratch directory under ``out/`` plus every server it
    started; leaving the ``with`` block stops the servers and removes the
    directory whatever happened inside."""

    def __init__(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.servers: list[Server] = []
        self._spawned = 0
        self._previous_sigterm: Any = None
        self._previous_tempdir: Any = None

    def __enter__(self) -> "Workspace":
        # The program's own temp files (the port files of in-process
        # cluster spawns) stay inside the workspace too.
        self._previous_tempdir = tempfile.tempdir
        tempfile.tempdir = self.root
        # SIGTERM must unwind the with-block like Ctrl-C does; Python's
        # default handler would exit without stopping the servers.
        self._previous_sigterm = signal.signal(signal.SIGTERM, _raise_interrupt)
        return self

    def __exit__(self, *_exc: Any) -> None:
        try:
            for server in list(self.servers):  # stop() drops it from the list
                server.stop()
        finally:
            tempfile.tempdir = self._previous_tempdir
            shutil.rmtree(self.root, ignore_errors=True)
            signal.signal(signal.SIGTERM, self._previous_sigterm)

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    def write_documents(self, documents) -> list[str]:
        """Write each document's XML to ``<root>/xml/<name>.xml``."""
        directory = self.path("xml")
        os.makedirs(directory, exist_ok=True)
        paths = []
        for document in documents:
            path = os.path.join(directory, f"{document.name}.xml")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(document.xml)
            paths.append(path)
        return paths

    def cli(self, *arguments: str) -> None:
        """Run one CLI command to completion (snapshot builders)."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *arguments],
            env=child_env(self.root),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=START_TIMEOUT * 2,
        )
        if completed.returncode != 0:
            raise BenchmarkError(
                f"repro.cli {arguments[0]} exited {completed.returncode}: "
                f"{completed.stderr.strip()[-800:]}"
            )

    def serve(self, *arguments: str) -> "Server":
        """Spawn a serving CLI command and wait for its port file."""
        self._spawned += 1
        server = Server(self, arguments, self._spawned)
        self.servers.append(server)
        server.start()
        return server


def _raise_interrupt(_signum: int, _frame: Any) -> None:
    raise KeyboardInterrupt


class Server:
    """One spawned ``serve`` / ``cluster-spawn`` process tree."""

    def __init__(self, workspace: Workspace, arguments: tuple[str, ...], serial: int):
        self.workspace = workspace
        self.arguments = arguments
        self.process: subprocess.Popen | None = None
        self.port = 0
        self._port_file = workspace.path(f"server-{serial}.port")
        self._stderr_path = workspace.path(f"server-{serial}.stderr")

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", *self.arguments,
            "--port", "0", "--port-file", self._port_file,
        ]
        with open(self._stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                command,
                env=child_env(self.workspace.root),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while not os.path.exists(self._port_file):
            if self.process.poll() is not None:
                raise BenchmarkError(
                    f"{self.arguments[0]} exited {self.process.returncode} before "
                    f"publishing its port: {self._stderr_tail()}"
                )
            if time.monotonic() > deadline:
                raise BenchmarkError(
                    f"{self.arguments[0]} published no port within "
                    f"{START_TIMEOUT:.0f}s: {self._stderr_tail()}"
                )
            time.sleep(0.005)
        with open(self._port_file, "r", encoding="utf-8") as handle:
            self.port = int(handle.read().strip())

    def _stderr_tail(self, limit: int = 800) -> str:
        try:
            with open(self._stderr_path, "r", encoding="utf-8", errors="replace") as handle:
                return handle.read().strip()[-limit:] or "(empty stderr)"
        except OSError:
            return "(no stderr captured)"

    # ------------------------------------------------------------------ #
    # /proc accounting over the process group
    # ------------------------------------------------------------------ #
    def _group_pids(self) -> Iterator[int]:
        assert self.process is not None
        group = self.process.pid
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            fields = _stat_fields(int(entry))
            # field 5 of /proc/<pid>/stat is pgrp; index 2 after the comm
            if fields is not None and int(fields[2]) == group:
                yield int(entry)

    def process_count(self) -> int:
        return sum(1 for _ in self._group_pids())

    def cpu_seconds(self) -> float:
        """utime + stime summed over the live process tree."""
        ticks = 0
        for pid in self._group_pids():
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the live process tree."""
        kilobytes = 0
        for pid in self._group_pids():
            try:
                with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            kilobytes += int(line.split()[1])
                            break
            except OSError:
                continue
        return kilobytes / 1024.0

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """SIGTERM the leader (``cluster-spawn`` then stops its shards),
        wait, and SIGKILL whatever is left of the group."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=10)
        if self in self.workspace.servers:
            self.workspace.servers.remove(self)


def _stat_fields(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the ``(comm)`` column
    (index 0 = state, 2 = pgrp, 11 = utime, 12 = stime)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rfind(")") + 2 :].split()


class WireClient:
    """One keep-alive HTTP connection speaking raw protocol bytes.

    The benchmark's own client (stdlib only) rather than
    ``repro.api.client``: the end-to-end numbers must survive refactors
    of the typed client, and response *bytes* are what gets hashed.
    """

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 60.0):
        self._connection = http.client.HTTPConnection(host, port, timeout=timeout)

    def post(self, payload: dict[str, Any]) -> bytes:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._connection.request(
            "POST", f"/v1/{payload['kind']}", body=body,
            headers={"Content-Type": "application/json"},
        )
        return self._connection.getresponse().read()

    def get(self, path: str) -> dict[str, Any]:
        self._connection.request("GET", path)
        return json.loads(self._connection.getresponse().read())

    def close(self) -> None:
        self._connection.close()
