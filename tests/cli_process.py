"""Drive a serving CLI command as a child process, the way an operator does.

``sigterm_one_search`` starts ``serve`` / ``cluster-spawn`` with ``--port
0``, answers one search over the wire, then stops it with SIGTERM — the
signal ``kill``, systemd and container runtimes send — optionally while
the client still holds its keep-alive connection.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time

import repro
from repro.api import SearchRequest, ServiceClient


def spawn_cli(*argv: str):
    """Run ``python -m repro.cli ARGV`` with this checkout's ``repro``."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source_root, env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_port(process, port_file: str, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while not os.path.exists(port_file):
        assert process.poll() is None, process.communicate()
        assert time.monotonic() < deadline, "the server never wrote its port file"
        time.sleep(0.02)
    with open(port_file, "r", encoding="utf-8") as handle:
        return int(handle.read())


def sigterm_one_search(
    tmp_path, command: str, *argv: str, document: str, hold_connection: bool = False
):
    """Serve ``command`` in a child process, answer one search, SIGTERM it.

    With ``hold_connection`` the client keeps its keep-alive connection
    open until the child has exited, so the signal lands on a server with
    an idle peer.  Returns ``(exit code, stdout, request-log lines, child
    pids seen while serving)``; the child and its children are killed if
    they outlive the test.
    """
    port_file = str(tmp_path / "port")
    log = tmp_path / "requests.jsonl"
    process = spawn_cli(
        command, *argv, "--port", "0", "--port-file", port_file, "--request-log", str(log)
    )
    client = None
    try:
        port = wait_for_port(process, port_file)
        client = ServiceClient(port=port)
        response = client.execute(SearchRequest(query="store", document=document))
        if not hold_connection:
            client.close()
        assert response.kind == "search_response"
        children = child_pids(process.pid)
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=5)
    finally:
        if client is not None:
            client.close()
        if process.poll() is None:
            leftovers = child_pids(process.pid)
            process.kill()
            process.communicate()
            for pid in leftovers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
    return process.returncode, stdout, log.read_text(encoding="utf-8").splitlines(), children


def child_pids(parent: int) -> list[int]:
    """The live children of ``parent``, from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the fields after "(comm)": state, ppid, ...
        if int(stat[stat.rfind(")") + 2 :].split()[1]) == parent:
            children.append(int(entry))
    return children
