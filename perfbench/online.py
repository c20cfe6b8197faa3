"""The online workload, ``decide-trace``: the ODR redirector under load.

One ``python -m repro.serve --engine async`` child serves ``/decide``
for the trace's paths, in trace order, cycling when the trace runs
out.  Load is open loop from this process: two threads, each on its own
keep-alive connection, send request ``i`` when it is due at
``t0 + i / rate``, and every latency is timed from that due time, so a
stall also delays the requests queued behind it.  The server is pinned
to one core and this client to another when the host has two.

Each 200 body is kept (the first one per distinct path; later ones
must equal it) and compared byte for byte, after the timed steps, with
the body in-process :meth:`OdrWebApp.handle` gives for the same path.
"""

from __future__ import annotations

import gc
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

from perfbench.harness import (
    Outcome,
    Tracer,
    TreePeakRss,
    proc_cpu_seconds,
    tail,
)

TRACE_SCALE = 0.005
#: The first this many paths of the seed's trace are replayed, cycling,
#: so every seed loads the same number of distinct paths into the
#: decision database (a scale-0.005 week holds about 17k-23k).
TRACE_REQUESTS = 15_000
LOW_RPS = 300.0
HIGH_RPS = 900.0
THREADS = 2
#: Per-request socket timeout; a request that hits it has failed.
TIMEOUT_S = 2.0
#: Latency charged to a failed request: it misses every limit.
FAILED_LATENCY_MS = TIMEOUT_S * 1e3
#: A request not sent by this long after its step ended is failed.
OVERRUN_S = 1.0
SETUP_LAUNCHES = 9

# The sustained-rate limits: p99 from due time, failures, achieved vs
# offered rate, and a backlog that does not grow over the step.
SLO_P99_MS = 50.0
SLO_FAILED_SHARE = 0.01
SLO_ACHIEVED = 0.95
SLO_BACKLOG_GROWTH = 2.0
#: The search starts at this share of the server's measured capacity.
SEARCH_START = 0.75
SEARCH_FACTOR = 1.1
SEARCH_REFINE = 2
SEARCH_MAX_PROBES = 7

#: Fractions of ``--seconds`` given to each phase of a timed run: a
#: warm-up, then ROUNDS interleaved rounds of ``low`` and ``high``, then
#: the sustained-rate search.  The host's speed swings by tens of
#: percent from one second to the next, so many short rounds and their
#: median beat a few long ones.
WARM_SHARE = 0.05
ROUNDS = 12
LOW_SHARE = 0.014
HIGH_SHARE = 0.036
PROBE_SHARE = 0.04

# Outcome codes besides an HTTP status.
TIMED_OUT = -1
BROKEN = -2
UNSENT = -3


# -- paths -----------------------------------------------------------------------

def trace_paths(seed: int) -> list[str]:
    """The ``/decide`` paths of the seed's week, in trace order."""
    from repro.loadgen.trace import workload_paths
    from repro.workload import WorkloadConfig, WorkloadGenerator
    workload = WorkloadGenerator(
        WorkloadConfig(scale=TRACE_SCALE, seed=seed)).generate()
    return workload_paths(workload, limit=TRACE_REQUESTS)


def link_of(path: str) -> str:
    query = path.split("?", 1)[1]
    for pair in query.split("&"):
        if pair.startswith("link="):
            return pair[5:]
    return ""


def path_mix(paths: list[str], indices) -> dict[str, float]:
    """Workload properties of the requests sent: how often a link
    repeats one already asked for, and the share presenting a smart AP."""
    seen: set[str] = set()
    repeats = aps = total = 0
    for index in indices:
        path = paths[index]
        link = link_of(path)
        repeats += link in seen
        seen.add(link)
        aps += "&ap=" in path
        total += 1
    return {"decide.repeat_link_share": repeats / max(total, 1),
            "decide.ap_share": aps / max(total, 1)}


# -- HTTP client -----------------------------------------------------------------

class Connection:
    """A keep-alive HTTP/1.1 client on a raw socket.

    Kept minimal so the client's own cost per request stays small and
    fixed; requests are pre-encoded.
    """

    def __init__(self, port: int, timeout: Optional[float] = None):
        self.port = port
        self.timeout = TIMEOUT_S if timeout is None else timeout
        self.sock: Optional[socket.socket] = None
        self.buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.buffer = sock, b""
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def get(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; returns (status, body).  Raises
        ``socket.timeout`` or ``OSError`` (the connection is closed)."""
        sock = self.sock or self._connect()
        try:
            sock.sendall(request)
            buffer = self.buffer
            end = buffer.find(b"\r\n\r\n")
            while end < 0:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buffer += chunk
                end = buffer.find(b"\r\n\r\n")
            head = buffer[:end].lower()
            status = int(head[9:12])
            length = 0
            marker = head.find(b"content-length:")
            if marker >= 0:
                stop = head.find(b"\r\n", marker)
                length = int(head[marker + 15:stop if stop > 0 else None])
            body_end = end + 4 + length
            while len(buffer) < body_end:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed mid-body")
                buffer += chunk
        except BaseException:
            self.close()
            raise
        body = buffer[end + 4:body_end]
        self.buffer = buffer[body_end:]
        if b"connection: close" in head:
            self.close()
        return status, body


def encode(path: str) -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
            ).encode("latin-1")


def http_get(port: int, path: str, timeout: float = 2.0
             ) -> tuple[int, bytes]:
    connection = Connection(port, timeout)
    try:
        return connection.get(encode(path))
    finally:
        connection.close()


# -- the server child ------------------------------------------------------------

@contextmanager
def affinity(cpus: Optional[set[int]]):
    """Run the block (e.g. a spawn, inherited) on ``cpus``."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Server:
    """One ``repro.serve`` child: spawned, health-checked, stopped."""

    def __init__(self, env: dict, cpus: Optional[set[int]],
                 ready_timeout: float = 60.0):
        started = time.perf_counter()
        with affinity(cpus):
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--engine", "async",
                 "--host", "127.0.0.1", "--port", "0"],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL)
        try:
            self.port = self._read_port(started + ready_timeout)
            self._await_healthy(started + ready_timeout)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_port(self, deadline: float) -> int:
        line = b""
        stream = self.process.stdout
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("server did not announce its port")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                byte = os.read(stream.fileno(), 1)
                if not byte:
                    raise RuntimeError("server exited before announcing")
                line += byte
        address = line.decode().split("http://", 1)[1].split("/", 1)[0]
        return int(address.rsplit(":", 1)[1])

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if http_get(self.port, "/healthz", timeout=1.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never reported healthy")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.close()


# -- open-loop steps -------------------------------------------------------------

@dataclass
class Step:
    """The raw record of one fixed-rate step."""

    name: str
    rate: float
    duration: float
    indices: list[int]
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    wall: float = 0.0
    client_cpu: float = 0.0
    server_cpu: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.indices)

    @property
    def failed(self) -> int:
        return sum(1 for code in self.status if code != 200)

    def latencies_ms(self) -> list[float]:
        """Latency of every request from its due time; failed requests
        count as missing every limit."""
        return [(done - due) * 1e3 if code == 200 else FAILED_LATENCY_MS
                for due, done, code in zip(self.due, self.done,
                                           self.status)]

    def lags_ms(self) -> list[float]:
        return [(sent - due) * 1e3
                for sent, due, code in zip(self.sent, self.due,
                                           self.status)
                if code != UNSENT]

    def achieved_rps(self) -> float:
        completed = sum(1 for code in self.status if code == 200)
        return completed / self.wall if self.wall > 0 else 0.0

    def backlog_growth(self) -> float:
        """Median latency of the last quarter over the first quarter."""
        latencies = self.latencies_ms()
        quarter = max(1, len(latencies) // 4)
        first = median(latencies[:quarter])
        last = median(latencies[-quarter:])
        return last / first if first > 0 else float("inf")


@dataclass
class Verdict:
    rate: float
    p99_ms: float
    failed_share: float
    achieved_share: float
    backlog_growth: float

    @property
    def meets_slo(self) -> bool:
        return (self.p99_ms <= SLO_P99_MS
                and self.failed_share <= SLO_FAILED_SHARE
                and self.achieved_share >= SLO_ACHIEVED
                and self.backlog_growth <= SLO_BACKLOG_GROWTH)


def judge(step: Step) -> Verdict:
    return Verdict(rate=step.rate,
                   p99_ms=tail(step.latencies_ms()).value,
                   failed_share=step.failed / max(step.attempted, 1),
                   achieved_share=step.achieved_rps() / step.rate,
                   backlog_growth=step.backlog_growth())


class Client:
    """Open-loop load from :data:`THREADS` threads over one trace."""

    def __init__(self, port: int, paths: list[str],
                 server_pid: Optional[int] = None):
        self.port = port
        self.paths = paths
        self.requests = [encode(path) for path in paths]
        self.server_pid = server_pid
        #: Set to record a span per request (the traced run).
        self.tracer: Optional[Tracer] = None
        self.cursor = 0
        #: First 200 body per path index; later bodies must equal it.
        self.bodies: dict[int, bytes] = {}
        self.inconsistent: set[int] = set()
        self.sent_indices: list[int] = []

    def take(self, count: int) -> list[int]:
        size = len(self.paths)
        indices = [(self.cursor + offset) % size
                   for offset in range(count)]
        self.cursor = (self.cursor + count) % size
        self.sent_indices.extend(indices)
        return indices

    def run(self, name: str, rate: float, duration: float) -> Step:
        """Open loop: request ``i`` is due at ``start + i / rate``."""
        count = max(1, int(round(rate * duration)))
        step = Step(name, rate, duration, self.take(count))
        step.due = [0.0] * count
        step.sent = [0.0] * count
        step.done = [0.0] * count
        step.status = [UNSENT] * count
        tracer = self.tracer or Tracer("untraced", enabled=False)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            with tracer.span(f"step.{step.name}") as parent:
                cpu0 = time.process_time()
                server0 = proc_cpu_seconds(self.server_pid) \
                    if self.server_pid else 0.0
                start = time.perf_counter() + 0.01
                threads = [threading.Thread(
                    target=self._worker,
                    args=(step, offset, start, tracer, parent),
                    name=f"load-{offset}") for offset in range(THREADS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                step.wall = max(max(step.done), start + duration) - start
                step.client_cpu = time.process_time() - cpu0
                if self.server_pid:
                    step.server_cpu = \
                        proc_cpu_seconds(self.server_pid) - server0
        finally:
            if gc_was_enabled:
                gc.enable()
        return step

    def _send(self, connection: Connection, index: int) -> int:
        """One request; returns its status or failure code and keeps
        the body for the oracle."""
        try:
            code, body = connection.get(self.requests[index])
        except socket.timeout:
            return TIMED_OUT
        except OSError:
            return BROKEN
        if code == 200:
            first = self.bodies.setdefault(index, body)
            if first is not body and first != body:
                self.inconsistent.add(index)
        return code

    def _worker(self, step: Step, offset: int, start: float,
                tracer: Tracer, parent: Optional[int]) -> None:
        connection = Connection(self.port)
        clock = time.perf_counter
        interval = 1.0 / step.rate
        hard_end = start + step.duration + OVERRUN_S
        try:
            for slot in range(offset, len(step.indices), THREADS):
                due = start + slot * interval
                now = clock()
                if now < due:
                    time.sleep(due - now)
                    now = clock()
                step.due[slot] = due
                if now > hard_end:
                    step.sent[slot] = step.done[slot] = now
                    continue
                step.sent[slot] = now
                step.status[slot] = self._send(connection,
                                               step.indices[slot])
                step.done[slot] = clock()
                tracer.add("loadgen.request", now, step.done[slot], parent)
        finally:
            connection.close()


def pooled(steps: list[Step]) -> Step:
    """Several repetitions of one step, as one sample set."""
    merged = Step(steps[0].name, steps[0].rate,
                  sum(step.duration for step in steps), [])
    for step in steps:
        merged.indices += step.indices
        merged.due += step.due
        merged.sent += step.sent
        merged.done += step.done
        merged.status += step.status
        merged.wall += step.wall
        merged.client_cpu += step.client_cpu
        merged.server_cpu += step.server_cpu
    return merged


def sustained(client: Client, probe_s: float,
              start_rate: float) -> tuple[float, list[Verdict]]:
    """Highest offered rate meeting the limits: climb by
    :data:`SEARCH_FACTOR` from ``start_rate`` until a probe fails (or
    step down until one passes), then bisect the bracket."""
    verdicts: list[Verdict] = []

    def probe(rate: float) -> bool:
        # A failing probe is repeated once: on a shared host one stall
        # can fail a short probe at a rate the server sustains.
        for _attempt in range(2):
            verdict = judge(client.run("probe", rate, probe_s))
            verdicts.append(verdict)
            time.sleep(0.2)   # let any backlog drain before the next
            if verdict.meets_slo:
                return True
        return False

    passing, failing = None, None
    rate = start_rate
    while len(verdicts) < SEARCH_MAX_PROBES - SEARCH_REFINE:
        if probe(rate):
            passing = rate
            if failing is not None:
                break
            rate *= SEARCH_FACTOR
        else:
            failing = rate
            if passing is not None:
                break
            rate /= SEARCH_FACTOR
    if passing is None:
        return 0.0, verdicts
    if failing is not None:
        for _ in range(SEARCH_REFINE):
            middle = (passing + failing) / 2.0
            if probe(middle):
                passing = middle
            else:
                failing = middle
    return passing, verdicts


# -- verification ----------------------------------------------------------------

def verify(client: Client, steps: list[Step], outcome: Outcome) -> int:
    """Compare every 200 body with in-process ``OdrWebApp.handle``.

    Returns the number of mismatching requests among ``steps`` and
    records them as failed; a path whose bodies differed between two
    responses counts as a mismatch too.
    """
    from repro.core.webapp import OdrWebApp
    app = OdrWebApp()
    wrong = set(client.inconsistent)
    for index in sorted(client.bodies):
        expected = app.handle(client.paths[index])[2].encode()
        if expected != client.bodies[index]:
            wrong.add(index)
    mismatched = 0
    for step in steps:
        for index, code in zip(step.indices, step.status):
            if code == 200 and index in wrong:
                mismatched += 1
    outcome.failed += mismatched
    if wrong:
        outcome.fail(f"{len(wrong)} path(s) answered differently from "
                     f"in-process OdrWebApp.handle")
    return mismatched


# -- in-process layer timings ----------------------------------------------------

def core_timings(paths: list[str], rounds: int = 3) -> dict[str, float]:
    """Microseconds per request of the decision layers, in-process.

    ``handle`` and ``handle_batch`` (batches of two, as two connections
    give the serving tier) run on fresh apps; ``OdrService
    .handle_request`` is timed by wrapping the app's service instance.
    """
    from repro.core.webapp import OdrWebApp

    def per_request(run) -> float:
        samples = []
        for _ in range(rounds):
            app = OdrWebApp()
            started = time.perf_counter()
            run(app)
            samples.append((time.perf_counter() - started) / len(paths))
        return median(samples) * 1e6

    def handle(app):
        for path in paths:
            app.handle(path)

    def handle_batch(app):
        for start in range(0, len(paths), 2):
            app.handle_batch([(path, "")
                              for path in paths[start:start + 2]])

    decide_seconds: list[float] = []

    def decide(app):
        inner = app.service.handle_request
        spent = 0.0

        def timed(context, link):
            nonlocal spent
            started = time.perf_counter()
            try:
                return inner(context, link)
            finally:
                spent += time.perf_counter() - started
        app.service.handle_request = timed
        handle(app)
        decide_seconds.append(spent / len(paths))

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        timings = {"core.handle_us": per_request(handle),
                   "core.handle_batch_us": per_request(handle_batch)}
        per_request(decide)
    finally:
        if gc_was_enabled:
            gc.enable()
    timings["core.decide_us"] = median(decide_seconds) * 1e6
    return timings


def scrape(port: int) -> dict[str, float]:
    """Server-side numbers from ``/metrics`` and ``/statz``."""
    _status, body = http_get(port, "/metrics")
    values: dict[str, float] = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    decide = 'endpoint="/decide"'
    latency = "repro_serve_latency_seconds{" + decide
    found = {
        "serve.latency_ms.p50":
            values.get(latency + ',quantile="0.5"}', 0.0) * 1e3,
        "serve.latency_ms.p99":
            values.get(latency + ',quantile="0.99"}', 0.0) * 1e3,
    }
    count = values.get("repro_serve_batch_size_count", 0.0)
    found["serve.batch_size.mean"] = \
        values.get("repro_serve_batch_size_sum", 0.0) / count \
        if count else 0.0
    _status, body = http_get(port, "/statz")
    stats = json.loads(body)
    found["serve.admitted"] = float(stats["admitted"])
    found["serve.sheds"] = float(stats["sheds"])
    return found


# -- the workload ----------------------------------------------------------------

def cores() -> tuple[Optional[set[int]], Optional[set[int]]]:
    """(server cpus, client cpus): one core each when two are free."""
    available = sorted(os.sched_getaffinity(0))
    if len(available) < 2:
        return None, None
    return {available[-1]}, {available[0]}


def step_summary(step: Step) -> dict[str, float]:
    latencies = step.latencies_ms()
    p99 = tail(latencies)
    completed = max(1, sum(1 for code in step.status if code == 200))
    return {
        "p50_ms": median(latencies),
        "p99_ms": p99.value,
        "p99_label": p99.label,
        "samples": p99.samples,
        "failed": step.failed,
        "achieved_rps": step.achieved_rps(),
        "lag_ms_p99": tail(step.lags_ms()).value,
        "client_cpu_share": step.client_cpu / step.wall,
        "client_cpu_us_per_req": step.client_cpu / step.attempted * 1e6,
        "server_cpu_us_per_req": step.server_cpu / completed * 1e6,
    }


def decide_trace(seed: int, seconds: float, trace: bool, env: dict,
                 workdir, pinned: dict) -> Outcome:
    del workdir, pinned   # bodies are checked against in-process runs
    outcome = Outcome(correct=True, attempted=0, failed=0)
    paths = trace_paths(seed)
    server_cpus, client_cpus = cores()
    outcome.notes["affinity"] = {
        "server": sorted(server_cpus or []),
        "client": sorted(client_cpus or [])}
    outcome.notes["input"] = (f"{len(paths)} trace paths at scale "
                              f"{TRACE_SCALE}, {THREADS} open-loop "
                              f"threads")
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        server = Server(env, server_cpus)
        setups.append(server.setup_s)
        server.stop()
    server = Server(env, server_cpus)
    setups.append(server.setup_s)
    before = os.sched_getaffinity(0)
    rss = TreePeakRss()
    try:
        if client_cpus:
            os.sched_setaffinity(0, client_cpus)
        with rss:
            client, steps = _timed(server, paths, seconds, trace, outcome)
        verify(client, steps, outcome)
    finally:
        os.sched_setaffinity(0, before)
        server.stop()
    outcome.metrics["setup_s"] = median(setups)
    outcome.metrics["peak_rss_mb"] = rss.total_mb()
    return outcome


def _timed(server: Server, paths: list[str], seconds: float,
           trace: bool, outcome: Outcome) -> tuple[Client, list[Step]]:
    """The timed phase; returns the client and the steps whose requests
    count as attempted (all but the overload probes of the search)."""
    client = Client(server.port, paths, server.pid)
    client.run("warm", LOW_RPS, WARM_SHARE * seconds)
    low_s, high_s = LOW_SHARE * seconds, HIGH_SHARE * seconds
    rounds: dict[str, list[Step]] = {"low": [], "high": []}
    for _ in range(ROUNDS):
        rounds["low"].append(client.run("low", LOW_RPS, low_s))
        rounds["high"].append(client.run("high", HIGH_RPS, high_s))
    counted = rounds["low"] + rounds["high"]
    summaries = {name: step_summary(pooled(steps))
                 for name, steps in rounds.items()}
    # The server's capacity: requests per second of its core, from the
    # CPU it spent per request over the high rounds.
    outcome.metrics["tasks_per_s"] = \
        1e6 / summaries["high"]["server_cpu_us_per_req"]
    if trace:
        client.tracer = Tracer(f"decide-trace-{server.port}")
        traced = client.run("high", HIGH_RPS, high_s)
        counted += [traced, client.run("low", LOW_RPS, low_s)]
        outcome.notes["tracer"], client.tracer = client.tracer, None
        outcome.metrics["trace.overhead_share"] = \
            step_summary(traced)["client_cpu_us_per_req"] \
            / summaries["high"]["client_cpu_us_per_req"] - 1.0
    else:
        rate, verdicts = sustained(
            client, PROBE_SHARE * seconds,
            SEARCH_START * outcome.metrics["tasks_per_s"])
        outcome.notes["search"] = [
            (round(v.rate, 1), v.meets_slo, round(v.p99_ms, 2),
             round(v.achieved_share, 3), round(v.backlog_growth, 2))
            for v in verdicts]
        outcome.metrics["sustained_rps"] = rate
    for step in counted:
        outcome.attempted += step.attempted
        outcome.failed += step.failed
    outcome.notes["steps"] = summaries
    for name, summary in summaries.items():
        outcome.metrics[f"p50_ms.{name}"] = summary["p50_ms"]
        outcome.metrics[f"p99_ms.{name}"] = summary["p99_ms"]
    high = summaries["high"]
    outcome.metrics.update({
        "serve.cpu_us_per_req": high["server_cpu_us_per_req"],
        "loadgen.cpu_us_per_req": high["client_cpu_us_per_req"],
        "loadgen.lag_ms.p99": high["lag_ms_p99"],
        "loadgen.client_bound": float(
            max(summary["client_cpu_share"]
                for summary in summaries.values()) > 0.9),
    })
    outcome.metrics.update(path_mix(paths, client.sent_indices))
    if trace:
        outcome.metrics.update(scrape(server.port))
        outcome.metrics.update(core_timings(paths[:3000]))
    return client, counted
