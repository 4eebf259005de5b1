"""The end-to-end run: set up from XML, drive one closed-loop client, measure.

One process, one client that waits for each reply before sending the next
(callers that wait make a closed loop; with ``nproc`` = 2, one client also
keeps every count exactly repeatable).  Tracing is off here; the per-layer
numbers come from :mod:`tracing`.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import plans
from servers import BenchmarkError, Server, WireClient, Workspace

#: the tail percentile of each workload: the highest with at least ten
#: samples beyond it at the workload's full-scale sample count
TAIL_PERCENTILE = {"cold_browse": 90, "warm_read": 99, "mixed_rw": 99, "cluster_read": 95}

#: set-ups per run (the run keeps the last server); ``setup_s`` is their median
SETUP_REPEATS = {"full": 3, "smoke": 1}

#: end-to-end metric → unit, in the order they are printed
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "session_p50_ms": "ms",
    "update_p50_ms": "ms",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ---------------------------------------------------------------------- #
# driving a plan
# ---------------------------------------------------------------------- #
@dataclass
class Exchange:
    """One request/response pair as the client saw it."""

    step: int
    kind: str  # search | page (a session's follow-up) | batch | update
    payload: dict[str, Any]
    body: bytes
    raw_seconds: float
    seconds: float = 0.0  # at reference pace; set when its stretch closes


@dataclass
class PhaseLog:
    """Everything one pass over a list of steps produced; every time in
    it is at reference pace (see :func:`pace`) unless named ``raw``."""

    exchanges: list[Exchange] = field(default_factory=list)
    #: index of each browse session's first exchange, and its page count
    session_starts: list[tuple[int, int]] = field(default_factory=list)
    wall: float = 0.0
    raw_wall: float = 0.0

    def multi_page_sessions(self) -> list[float]:
        """Time of each session that had a page to follow: the sum of
        its requests (the client spends nothing between them)."""
        return [
            sum(exchange.seconds for exchange in self.exchanges[first : first + pages])
            for first, pages in self.session_starts
            if pages > 1
        ]

    def seconds_of(self, *kinds: str) -> list[float]:
        return [exchange.seconds for exchange in self.exchanges if exchange.kind in kinds]

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for exchange in self.exchanges:
            digest.update(exchange.body)
            digest.update(b"\n")
        return digest.hexdigest()


# ---------------------------------------------------------------------- #
# reference pace
# ---------------------------------------------------------------------- #
#: seconds :func:`pace` takes on a quiet moment of the VM the benchmark
#: was sized on — the speed every reported time is expressed at
PACE_REFERENCE = 3.45e-3
#: seconds of driving between two pace samples
PACE_INTERVAL = 0.25

_PACE_TEXT = json.dumps(
    {"results": [{"id": i, "score": i * 0.37, "root": f"1.{i}.{3 * i}",
                  "text": f"store  name {i}\n  city Houston\n" * 4, "kw": ["store", "texas"]}
                 for i in range(10)],
     "query": "store texas", "total": 57},
    sort_keys=True,
)


def pace() -> float:
    """Seconds a fixed piece of interpreter work takes right now — JSON
    decode and encode, a sort, dict and list building: the kind of work
    the server does, run here in the client, which shares the server's CPU.

    The VM's speed is bimodal: for seconds to minutes at a time a noisy
    neighbour makes *everything* on the core 1.5–1.7× slower (this loop,
    the server's CPU time per request, a set-up alike; two A/A sets half
    an hour apart had medians 20 % apart, and half a set ran 50 % slow).
    No statistic over a 12-second run survives that, so every stretch of
    about :data:`PACE_INTERVAL` seconds is bracketed by two samples of this
    loop and its times are divided by ``samples' mean ÷ PACE_REFERENCE``:
    the benchmark reports milliseconds *at reference pace*, not of the
    minute it happened to run in.
    """
    started = time.perf_counter()
    for _ in range(30):
        decoded = json.loads(_PACE_TEXT)
        rows = [(row["score"], row["root"], tuple(row["kw"])) for row in decoded["results"]] * 20
        rows.sort()
        _ = {row[1]: row for row in rows}
        json.dumps(decoded, sort_keys=True)
        _ = [{"a": i, "b": str(i)} for i in range(300)]
    return time.perf_counter() - started


def pace_factor(samples: list[float]) -> float:
    """How much slower than reference pace the samples ran."""
    return statistics.fmean(samples) / PACE_REFERENCE


def drive(post: Callable[[dict[str, Any]], bytes], steps: list[plans.Step]) -> PhaseLog:
    """Fire ``steps`` in order through ``post``, timing every request, in
    stretches bracketed by pace samples (whose own time counts nowhere)."""
    log = PhaseLog()
    clock = time.perf_counter
    before = pace()
    stretch_first = 0
    stretch_began = clock()

    def close_stretch(force: bool = False) -> None:
        """End the stretch if it is long enough: sample the pace and put
        the stretch's requests and wall time at reference pace."""
        nonlocal before, stretch_first, stretch_began
        raw = clock() - stretch_began
        if raw < PACE_INTERVAL and not force:
            return
        after = pace()
        factor = pace_factor([before, after])
        for exchange in log.exchanges[stretch_first:]:
            exchange.seconds = exchange.raw_seconds / factor
        log.raw_wall += raw
        log.wall += raw / factor
        before, stretch_first, stretch_began = after, len(log.exchanges), clock()

    def fire(index: int, kind: str, payload: dict[str, Any]) -> bytes:
        started = clock()
        body = post(payload)
        log.exchanges.append(Exchange(index, kind, payload, body, clock() - started))
        return body

    for index, step in enumerate(steps):
        if step.kind != "session":
            fire(index, step.kind, step.payload)
            close_stretch()
            continue
        first = len(log.exchanges)
        page = checks.next_page_of(fire(index, "search", step.payload))
        expected = 2
        # A chain must count up from page 2; anything else ends the
        # session and is judged (and failed) by check_response.
        while page == expected:
            close_stretch()
            page = checks.next_page_of(fire(index, "page", dict(step.payload, page=page)))
            expected += 1
        log.session_starts.append((first, expected - 1))
        close_stretch()
    close_stretch(force=True)
    return log


def p50(samples: list[float]) -> float:
    """The median, estimated as the mean of the central fifth of the
    sorted sample.  The session and update samples are a few dozen sparse
    values — a fixed set of queries whose costs lie 5–10 % apart around
    the middle — and the plain sample median jumps from one neighbour to
    the next between runs; on the dense request samples the two agree."""
    ordered = sorted(samples)
    middle = (len(ordered) - 1) / 2
    reach = len(ordered) / 10
    central = ordered[round(middle - reach + 0.5) : round(middle + reach - 0.5) + 1]
    return statistics.fmean(central or [statistics.median(ordered)])


def quiet_quartile(per_round: list[float], better: str = "lower") -> float:
    """The quartile of the per-round values on their good side (the first
    quartile of a latency, the third of a throughput).  A noisy neighbour
    only ever slows a round, in bursts of seconds: over 60 identical
    ``warm_read`` rounds the median of 8 moved 7.1 % between windows, this
    quartile 3.9 %.  One round is its own quartile."""
    ordered = sorted(per_round, reverse=better == "higher")
    return ordered[(len(ordered) - 1) // 4]


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Laps:
    """Wall seconds of a run's consecutive stages (where the run's own
    time goes — the contract caps a run's total, not only its timed part)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = round(now - self._last, 3)
        self._last = now


class Judge:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def judge(self, log: PhaseLog) -> None:
        """Check every exchange of ``log``, and that every session was
        walked to its last page."""
        for exchange in log.exchanges:
            self.attempted += 1
            problem = checks.check_response(exchange.payload, exchange.body)
            if problem is not None:
                self.fail(f"{exchange.kind} step {exchange.step}: {problem}")
        for first, pages in log.session_starts:
            last = log.exchanges[first + pages - 1]
            if checks.next_page_of(last.body) is not None:
                self.fail(f"session {last.step} stopped before its last page")

    def judge_replay(self, log: PhaseLog, first: PhaseLog, number: int) -> None:
        """A replayed round repeats the identical plan against warm
        caches: byte-equal to the judged round 1 it is right, and any
        byte that differs is a wrong answer."""
        if log.sha256() == first.sha256():
            self.attempted += len(log.exchanges)
        else:
            self.judge(log)
            self.fail(f"round {number} responses differ from round 1")


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
def set_up_once(
    workspace: Workspace, plan: plans.Plan, xml_paths: list[str], serial: int
) -> tuple[Server, str, dict[str, float]]:
    """XML files on disk → a server that has answered one probe request;
    returns it with its snapshot directory and the seconds of the two
    halves (``build`` the snapshot, ``spawn`` until the probe is answered).

    The real CLI with default serving flags: ``corpus-save --format v4``
    then ``serve --corpus-dir``, or ``cluster-init --shards 2`` then
    ``cluster-spawn --replicas 2`` (a coordinator plus four shard
    processes).
    """
    files = [argument for path in xml_paths for argument in ("--file", path)]
    began = time.perf_counter()
    if plan.workload == "cluster_read":
        directory = workspace.path(f"cluster-{serial}")
        workspace.cli("cluster-init", "--shards", "2", *files, "--output", directory)
        built = time.perf_counter()
        server = workspace.serve("cluster-spawn", "--cluster-dir", directory, "--replicas", "2")
    else:
        directory = workspace.path(f"snapshot-{serial}")
        workspace.cli("corpus-save", "--format", "v4", *files, "--output", directory)
        built = time.perf_counter()
        server = workspace.serve("serve", "--corpus-dir", directory)
    client = WireClient(server.port)
    try:
        if client.get("/v1/health").get("status") != "ok":
            raise BenchmarkError("server came up but /v1/health is not ok")
        # One size_bound below the plan's: a different cache key, so the
        # probe leaves the caches the plan will use cold.
        first = plan.documents[0]
        probe = dict(plans.search_payload(first.pool[0], first.name), size_bound=plans.SIZE_BOUND - 1)
        problem = checks.check_response(probe, client.post(probe))
        if problem is not None:
            raise BenchmarkError(f"set-up probe answered wrongly: {problem}")
    finally:
        client.close()
    ready = time.perf_counter()
    return server, directory, {"build": built - began, "spawn": ready - built}


def set_up(workspace: Workspace, plan: plans.Plan, repeats: int) -> tuple[Server, list[float]]:
    """Set up ``repeats`` times, keeping the last server; the seconds of
    each at reference pace (input generation excluded — the XML is already
    on disk)."""
    xml_paths = workspace.write_documents(plan.documents)
    seconds: list[float] = []
    server: Server | None = None
    for serial in range(repeats):
        if server is not None:
            server.stop()
        before = [pace() for _ in range(3)]
        server, _, halves = set_up_once(workspace, plan, xml_paths, serial)
        after = [pace() for _ in range(3)]
        seconds.append((halves["build"] + halves["spawn"]) / pace_factor(before + after))
    assert server is not None
    return server, seconds


# ---------------------------------------------------------------------- #
# the end-to-end run
# ---------------------------------------------------------------------- #
def run_end_to_end(workload: str, seed: int, seconds: float, scale: str = "full") -> dict[str, Any]:
    """Run one workload with tracing off; returns the result record."""
    laps = Laps()
    plan = plans.build_plan(workload, seed, seconds, scale)
    laps.lap("plan")
    judge = Judge()
    with Workspace() as workspace:
        server, setup_seconds = set_up(workspace, plan, SETUP_REPEATS[scale])
        laps.lap("setups")
        client = WireClient(server.port)
        try:
            drive(client.post, plan.warmup)  # untimed; not judged (main replays it)
            laps.lap("warmup")
            rounds: list[PhaseLog] = []
            cpu_ms_per_request: list[float] = []
            began = time.perf_counter()
            while True:
                cpu_before = server.cpu_seconds()
                log = drive(client.post, plan.main)
                cpu_ms_per_request.append(
                    1e3 * (server.cpu_seconds() - cpu_before) / len(log.exchanges)
                    * log.wall / log.raw_wall  # at reference pace, like the round's wall
                )
                rounds.append(log)
                if not plan.rounds or time.perf_counter() - began >= seconds:
                    break
            peak_rss = server.peak_rss_mb()
            processes = server.process_count()
            laps.lap("timed")
            # Twice: the first pass refills whatever the timed phase left
            # cold or invalidated, the second is a warm browse.
            drive(client.post, plan.session_probe)
            session_log = drive(client.post, plan.session_probe)
            update_log = drive(client.post, plan.update_probe)
            laps.lap("probes")
        finally:
            client.close()
    laps.lap("teardown")

    first = rounds[0]
    for log in (first, session_log, update_log):
        judge.judge(log)
    for number, log in enumerate(rounds[1:], start=2):
        judge.judge_replay(log, first, number)
    laps.lap("checks")

    tail = TAIL_PERCENTILE[workload]
    sessions = first.multi_page_sessions() or session_log.multi_page_sessions()
    updates = first.seconds_of("update") or update_log.seconds_of("update")
    if not sessions or not updates:
        raise BenchmarkError("the plan produced no multi-page session or no update to time")
    values = {
        "latency_p50_ms": 1e3 * quiet_quartile(
            [p50(log.seconds_of("search")) for log in rounds]
        ),
        "latency_tail_ms": 1e3 * quiet_quartile([
            percentile(log.seconds_of("search") if workload == "cold_browse"
                       else log.seconds_of("search", "page", "batch", "update"), tail)
            for log in rounds
        ]),
        "throughput_rps": quiet_quartile(
            [len(log.exchanges) / log.wall for log in rounds], better="higher"
        ),
        "session_p50_ms": 1e3 * p50(sessions),
        "update_p50_ms": 1e3 * p50(updates),
        "cpu_ms_per_request": quiet_quartile(cpu_ms_per_request),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_seconds),
    }
    return result_record(
        plan, "end_to_end", seed, seconds, scale, first, judge, values, END_TO_END_UNITS,
        samples={
            "rounds": len(rounds),
            "requests_per_round": len(first.exchanges),
            "searches_per_round": len(first.seconds_of("search")),
            "tail_percentile": tail,
            "sessions": len(sessions),
            "updates": len(updates),
            "setups": len(setup_seconds),
            "server_processes": processes,
            "corpus_nodes": sum(document.nodes for document in plan.documents),
            # raw seconds of the timed phase ÷ its seconds at reference pace
            "pace_factor": sum(log.raw_wall for log in rounds) / sum(log.wall for log in rounds),
            "wall_seconds": laps.seconds,
        },
    )


def result_record(
    plan: plans.Plan,
    which: str,
    seed: int,
    seconds: float,
    scale: str,
    log: PhaseLog,
    judge: Judge,
    values: dict[str, Any],
    units: dict[str, str],
    samples: dict[str, Any],
) -> dict[str, Any]:
    """The record of one pass (``end_to_end`` or ``traced``) — what
    ``report`` prints, writes and compares."""
    return {
        "workload": plan.workload,
        "pass": which,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "plan_sha256": plan.signature(),
        "response_sha256": log.sha256(),
        "attempted": judge.attempted,
        "failed": judge.failed,
        "error_rate": judge.failed / judge.attempted,
        "failures": judge.reasons,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "samples": samples,
    }
