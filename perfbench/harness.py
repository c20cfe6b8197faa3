"""Measurement primitives shared by every workload of the benchmark.

Nothing here imports the program under test: the tail-percentile rule,
the span tracer, the process-tree peak-RSS poller, the host calibration
loop and the digest helpers are the benchmark's own, so they stay the
same while the program changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import median
from typing import Any, Iterable, Optional

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the highest percentile that has them is used.
MIN_BEYOND = 10


# -- percentiles -----------------------------------------------------------------

def nearest_rank(ordered: list[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile of sorted ``ordered``."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, percent: float) -> int:
    """Samples strictly past the nearest-rank ``percent`` percentile."""
    return count - max(1, math.ceil(percent / 100.0 * count))


@dataclass(frozen=True)
class Tail:
    """A tail percentile as reported: which one, its value, its base."""

    percent: float
    value: float
    samples: int

    @property
    def label(self) -> str:
        return f"p{self.percent:g}"


def tail(samples: Iterable[float], want: float = 99.0) -> Tail:
    """``want``-th percentile, or the highest one the samples support.

    A percentile is supported when at least :data:`MIN_BEYOND` samples
    lie beyond it.  With too few samples for even the median the
    maximum is returned as ``p100``, so a caller always gets a number
    and its label says how much it can be trusted.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    percent = float(want)
    while percent > 50.0 and beyond(count, percent) < MIN_BEYOND:
        percent -= 1.0
    if beyond(count, percent) < MIN_BEYOND:
        return Tail(100.0, ordered[-1], count)
    return Tail(percent, nearest_rank(ordered, percent), count)


# -- spans -----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans recorded around calls into the program, kept in memory.

    Disabled tracers hand out a no-op context so the timed run pays
    nothing.  Spans opened with :meth:`span` nest per thread; one timed
    on another thread is recorded with :meth:`add`, naming its parent.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), math.nan,
                                   parent, self.run_id))
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> None:
        """Record a span measured elsewhere (e.g. on another thread)."""
        if self.enabled:
            with self._lock:
                self.spans.append(Span(name, start, end, parent,
                                       self.run_id))

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child coverage."""
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": index, "name": span.name, "start": span.start,
                 "end": span.end, "parent": span.parent,
                 "run_id": span.run_id}
                for index, span in enumerate(self.spans)]
        path.write_text(json.dumps(rows))


def covered(intervals: list[tuple[float, float]], start: float,
            end: float) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    clipped = sorted((max(lo, start), min(hi, end))
                     for lo, hi in intervals if hi > start and lo < end)
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Sum, per name, of each span's duration minus its children's.

    Children may overlap (spans from several threads under one
    parent); only the union of their intervals is subtracted, so the
    self times of a tree always add up to the root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.duration - covered(children.get(index, []),
                                      span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


# -- process-tree memory ---------------------------------------------------------

def _status_kib(pid: int, field_name: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's children list)."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(token) for token in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return found


def descendants(pid: int) -> list[int]:
    pending, seen = [pid], []
    while pending:
        current = pending.pop()
        for child in children_of(current):
            if child not in seen:
                seen.append(child)
                pending.append(child)
    return seen


def _status_state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return "X"
    return raw[raw.rindex(")") + 2:].split()[0]


def _reap(pid: int) -> bool:
    """True once ``pid`` has ended (reaped here, or not our child)."""
    try:
        done, _status = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return _status_state(pid) in ("X", "Z")
    return done == pid


def stop_descendants(grace: float = 10.0) -> list[int]:
    """End every process this one started, and wait until each has.

    A spawn-context pool leaves multiprocessing's resource tracker
    behind: it is never waited for and outlives its parent for a
    moment, orphaned.  It is stopped the way the tracker itself
    expects (closing its pipe, then waiting for it).  Whatever else is
    still running gets ``SIGTERM``, then ``SIGKILL`` after ``grace``
    seconds.  Returns the pids that had to be signalled.
    """
    deadline = time.monotonic() + grace
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        try:
            tracker._stop()
        except (OSError, ChildProcessError):
            pass
    signalled: list[int] = []
    for sig in (signal.SIGTERM, signal.SIGKILL):
        # Deepest first, so no process outlives its parent as an orphan.
        alive = [pid for pid in reversed(descendants(os.getpid()))
                 if not _reap(pid)]
        if not alive:
            break
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                continue
            if pid not in signalled:
                signalled.append(pid)
        deadline = time.monotonic() + grace
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if not _reap(pid)]
            time.sleep(0.02)
    return signalled


class TreePeakRss:
    """Polls ``VmHWM`` of this process and every descendant.

    ``getrusage(RUSAGE_CHILDREN)`` only sees reaped children and reports
    the largest one, so a pool of workers is invisible to it.  Each
    process's own high-water mark is read from ``/proc`` while it runs;
    the tree's peak is the sum of the per-process peaks.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.root = os.getpid()
        self.peaks_kib: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def poll(self) -> None:
        for pid in [self.root] + descendants(self.root):
            kib = _status_kib(pid, "VmHWM")
            if kib is not None and kib > self.peaks_kib.get(pid, 0):
                self.peaks_kib[pid] = kib

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll()

    def __enter__(self) -> "TreePeakRss":
        self.poll()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="rss-poller")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.poll()

    def total_mb(self) -> float:
        return sum(self.peaks_kib.values()) / 1024.0

    def parent_mb(self) -> float:
        return self.peaks_kib.get(self.root, 0) / 1024.0

    def max_child_mb(self) -> float:
        return max((kib for pid, kib in self.peaks_kib.items()
                    if pid != self.root), default=0) / 1024.0


# -- host drift ------------------------------------------------------------------

def calibrate(rounds: int = 5, loop: int = 200_000) -> float:
    """Median milliseconds of a fixed pure-Python loop.

    Taken at the start and end of every run, so a slower or busier host
    shows apart from a change in the program.
    """
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for value in range(loop):
            acc = (acc + value * value) % 1_000_003
        timings.append((time.perf_counter() - started) * 1e3)
    return median(timings)


def host_info() -> dict[str, Any]:
    affinity = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []
    return {"nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version()}


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    fields = raw[raw.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# -- digests ---------------------------------------------------------------------

def canonical_digest(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


class DigestMismatch(AssertionError):
    """A result's digest differs from the one pinned for its seed."""


def check_pinned(pinned: dict[str, str], workload: str, seed: int,
                 actual: str) -> bool:
    """True when ``seed`` has a pinned digest for ``workload``.

    Raises :class:`DigestMismatch` when it has one and ``actual``
    differs; returns False when nothing is pinned for the seed.
    """
    expected = pinned.get(f"{workload}:{seed}")
    if expected is None:
        return False
    if expected != actual:
        raise DigestMismatch(
            f"{workload} seed {seed}: digest {actual} != pinned "
            f"{expected}")
    return True


def load_pinned(path: Path) -> dict[str, str]:
    return json.loads(path.read_text()) if path.exists() else {}


# -- results ---------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run hands back to the entry point."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)
