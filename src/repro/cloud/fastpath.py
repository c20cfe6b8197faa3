"""Table-driven fast path for the cloud task loop.

The generator coroutines in :mod:`repro.cloud.system` spend most of a
fault-free replay inside engine dispatch: every task is a
:class:`~repro.sim.engine.Process` whose ``send`` re-enters
``_task``/``_predownload_phase``/``_fetch_phase`` at each hop.  This
module replaces them with an explicit state machine: per-task state
lives in preallocated parallel tables (phase codes, phase start times,
wait deadlines, reserved flow rates) plus parallel object slots, and
every hop is a plain scheduled callback that indexes into those tables
-- no generators, no Process objects, no ``yield`` plumbing.  Constant
columns (popularity flags, the arrival order) are batch-computed with
numpy up front; the mutable per-event scalars live in plain Python
lists, whose single-element reads/writes are several times cheaper
than numpy fancy indexing.

Bit-identity with the generator path is load-bearing (the golden
digests pin it) and rests on two invariants:

* **Hop structure.**  Every ``yield`` in the generator path costs
  exactly one scheduled callback at a fixed ``seq`` position; the
  machine schedules exactly one callback in the same position.  The
  per-request ``call_at`` storm is replaced by a single arrival cursor
  walking a stable argsort of the request times -- order-preserving
  because the old start events did no observable work before deferring
  to an immediate ``call_in(0, ...)``.  A pre-download session costs
  three hops (process start, duration timeout, waiter resume) in both
  worlds.
* **Draw order.**  All randomness comes from the one shared per-run
  ``rng`` stream, so event order *is* draw order.  The machine performs
  each draw inside the same hop, in the same argument order, as the
  generator it replaces.

The generator path stays the only implementation under fault injection
(``faults is not None``) so :mod:`repro.faults` interrupt semantics are
untouched; :class:`~repro.cloud.system.XuanfengCloud` picks the path in
``run()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

import repro.cloud.system as cloud_system
from repro.cloud.fetch import FetchSpeedModel
from repro.obs.registry import NOOP
from repro.paper import FETCH_SPEED_MEAN
from repro.sim.engine import SimulationError, Simulator
from repro.workload.generator import Workload
from repro.workload.popularity import HIGHLY_POPULAR_ABOVE
from repro.workload.records import FetchRecord, PreDownloadRecord

if TYPE_CHECKING:
    from repro.cloud.system import XuanfengCloud

# Phase codes stored in the machine's int8 phase table.
PHASE_NEW = 0          # not started yet
PHASE_COALESCE = 1     # waiting on another task's in-flight pre-download
PHASE_SLOT_WAIT = 2    # waiting FIFO for a pre-downloader VM slot
PHASE_SESSION = 3      # own pre-download session in flight
PHASE_LAG = 4          # user think-time before the fetch
PHASE_FETCH = 5        # fetch flow in progress
PHASE_DONE = 6         # terminal


class _FastTask:
    """Event-waiter facade for one machine task.

    Quacks like a :class:`~repro.sim.engine.Process` just enough to sit
    in ``Event._waiters``: the engine resumes waiters via
    ``call_in(0, waiter._step, value, None, waiter._resume_token)``, so
    all the machine needs is a token slot and a ``_step`` that routes
    the wake-up to the right phase handler.
    """

    __slots__ = ("machine", "idx", "_resume_token")

    def __init__(self, machine: "FastTaskMachine", idx: int):
        self.machine = machine
        self.idx = idx
        self._resume_token = 0

    def _step(self, value: Any = None, error: Optional[BaseException] = None,
              token: Optional[int] = None) -> None:
        if token is not None and token != self._resume_token:
            return   # stale wake-up from a wait this task already left
        self._resume_token += 1
        if error is not None:
            raise error
        machine = self.machine
        phase = machine.phase[self.idx]
        if phase == PHASE_COALESCE:
            machine._coalesce_done(self.idx, value)
        elif phase == PHASE_SLOT_WAIT:
            machine._slot_granted(self.idx, value)
        else:
            raise SimulationError(
                f"fast task {self.idx} resumed in phase {phase}")


class FastTaskMachine:
    """Runs every task of one cloud replay without generator coroutines."""

    def __init__(self, cloud: "XuanfengCloud", sim: Simulator,
                 workload: Workload, users: dict,
                 rng: np.random.Generator, tasks: list, flows: list):
        self.cloud = cloud
        self.sim = sim
        self.rng = rng
        self.tasks = tasks
        self.flows = flows

        requests = workload.requests
        catalog = workload.catalog
        n = len(requests)
        self.n = n
        self.requests = requests
        self.records = [catalog[request.file_id] for request in requests]
        self.users = [users[request.user_id] for request in requests]

        # Columnar per-task state: one row per task, written/read by the
        # phase callbacks.  Constant columns are batch-computed up front
        # with numpy; the mutable scalars are plain lists (single-element
        # list indexing beats numpy scalar indexing by ~5x).
        self.phase = [PHASE_NEW] * n
        self.pre_start = [0.0] * n
        self.fetch_start = [0.0] * n
        self.deadline = [0.0] * n
        self.rate = [0.0] * n
        demands = np.fromiter(
            (record.weekly_demand for record in self.records),
            dtype=np.float64, count=n)
        self.highly_popular = (demands > HIGHLY_POPULAR_ABOVE).tolist()

        # Object slots, live only while the owning phase is.
        self.waiters: list[Optional[_FastTask]] = [None] * n
        self.events: list = [None] * n
        self.sessions: list = [None] * n
        self.outcomes: list = [None] * n
        self.slots: list = [None] * n
        self.results: list = [None] * n
        self.paths: list = [None] * n
        self.reservations: list = [None] * n

        # Hot-loop bindings: every callback below runs tens of
        # thousands of times per replay, so attribute chains that are
        # constant for the run (bound methods, config scalars) are
        # resolved once here.
        config = cloud.config
        self._call_in = sim.call_in
        self._sim_event = sim.event
        self._rng_random = rng.random
        self._rng_normal = rng.normal
        self._collaborative = config.collaborative_cache
        self._lag_median = config.fetch_lag_median
        self._lag_sigma = config.fetch_lag_sigma
        self._max_fetch_rate = config.max_fetch_rate
        self._select_and_reserve = cloud.uploads.select_and_reserve
        self._record_request = cloud.database.record_request
        # The LRU's own ``get`` (recency refresh + hit/miss counters);
        # binding it directly skips the storage pool's one-line
        # ``lookup`` wrapper frame on every request.  Returns the
        # stored value (the file size) or ``None``.
        self._cache_get = cloud.pool._cache.get
        self._in_flight = cloud._in_flight
        self._session_for = cloud.fleet.session_for
        # Per-request counter bumps are real work only when a live
        # metrics registry is attached; under the NOOP registry the
        # calls are skipped outright instead of dispatched to no-ops.
        self._metered = cloud.metrics is not NOOP
        self._tasks_inc = cloud._m_tasks.inc
        self._hits_inc = cloud._m_cache_hits.inc
        self._misses_inc = cloud._m_cache_misses.inc
        self._tasks_append = tasks.append
        self._flows_append = flows.append
        self._FetchFlow = cloud_system.FetchFlow
        self._TaskResult = cloud_system.TaskResult

        # Specialised speed sampler.  With the stock model (always,
        # outside subclassing tests) the whole per-fetch draw chain --
        # server-rate lognormal, path-cap lognormal, degradation coin --
        # is inlined into one closure over the model's constants: the
        # same draws from the same stream in the same order as
        # ``FetchSpeedModel.sample_speed`` + ``PathQuality.sample_cap``,
        # without their method dispatch and self-attribute traffic.
        model = cloud.fetch_model
        if type(model) is FetchSpeedModel:
            np_exp = np.exp
            rng_normal = rng.normal
            rng_random = rng.random
            rate_median = model.server_rate_median
            rate_sigma = model.server_rate_sigma
            rate_cap = model.server_rate_cap
            degrade_p = model.unknown_degradation_probability
            degrade_low = model.unknown_degradation_low
            degrade_span = model.unknown_degradation_high - degrade_low

            def _speed(bandwidth: float, quality) -> float:
                speed = min(
                    rate_median * float(np_exp(rng_normal(0.0, rate_sigma))),
                    rate_cap,
                    float(quality.cap_median *
                          np_exp(rng_normal(0.0, quality.cap_sigma))),
                    bandwidth)
                if rng_random() < degrade_p:
                    speed *= degrade_low + degrade_span * rng_random()
                return speed

            self._speed_for = _speed
        else:
            sample_speed = model.sample_speed
            self._speed_for = (lambda bandwidth, quality:
                               sample_speed(bandwidth, quality, rng))

        # Arrival cursor: a stable sort keeps equal-time requests in
        # submission order, matching the seq order of the per-request
        # ``call_at`` loop it replaces.
        times = np.fromiter(
            (request.request_time for request in requests),
            dtype=np.float64, count=n)
        order = np.argsort(times, kind="stable")
        self._order = order.tolist()
        self._times = times[order].tolist()
        self._cursor = 0

    # -- arrival cursor ----------------------------------------------------------

    def start(self) -> None:
        if self.n:
            self.sim.call_at(self._times[0], self._arrive)

    def _arrive(self) -> None:
        sim = self.sim
        now = sim._now
        times = self._times
        order = self._order
        call_in = sim.call_in
        begin = self._begin
        k = self._cursor
        n = self.n
        while k < n and times[k] == now:
            call_in(0.0, begin, order[k])
            k += 1
        self._cursor = k
        if k < n:
            sim.call_at(times[k], self._arrive)

    # -- pre-download ------------------------------------------------------------

    def _begin(self, idx: int) -> None:
        cloud = self.cloud
        sim = self.sim
        request = self.requests[idx]
        record = self.records[idx]
        file_id = record.file_id
        start = sim._now
        metered = self._metered
        if metered:
            self._tasks_inc()
        self._record_request(file_id, record.size, start)
        self.pre_start[idx] = start
        collaborative = self._collaborative
        if collaborative and self._cache_get(file_id) is not None:
            if metered:
                self._hits_inc()
            self._after_predownload(idx, PreDownloadRecord(
                request.task_id, file_id, start, start,
                record.size, 0.0, True, 0.0, 0.0, True))
            return
        if metered:
            self._misses_inc()

        in_flight = self._in_flight.get(file_id) \
            if collaborative else None
        if in_flight is not None:
            self.phase[idx] = PHASE_COALESCE
            in_flight._add_waiter(self._waiter(idx))
            return

        event = self._sim_event()
        self._in_flight[file_id] = event
        self.events[idx] = event
        self.sessions[idx] = self._session_for(record)
        vm_slots = cloud._vm_slots
        if vm_slots is not None:
            acquire = vm_slots.acquire(sim)
            cloud._m_queue_depth.set(vm_slots.queue_length)
            self.phase[idx] = PHASE_SLOT_WAIT
            acquire._add_waiter(self._waiter(idx))
            return
        self.phase[idx] = PHASE_SESSION
        self._call_in(0.0, self._run_session, idx)

    def _waiter(self, idx: int) -> _FastTask:
        waiter = self.waiters[idx]
        if waiter is None:
            waiter = self.waiters[idx] = _FastTask(self, idx)
        return waiter

    def _slot_granted(self, idx: int, slot: Any) -> None:
        cloud = self.cloud
        cloud._m_queue_depth.set(cloud._vm_slots.queue_length)
        self.slots[idx] = slot
        self.phase[idx] = PHASE_SESSION
        self._call_in(0.0, self._run_session, idx)

    def _run_session(self, idx: int) -> None:
        # Mirrors the session Process's first step: all of the
        # session's draws happen here, then one timeout spans the
        # transfer.
        outcome = self.sessions[idx].simulate(self.rng)
        self.outcomes[idx] = outcome
        self.deadline[idx] = self.sim._now + outcome.duration
        self._call_in(outcome.duration, self._session_timeout, idx)

    def _session_timeout(self, idx: int) -> None:
        # Mirrors the generator world's third session hop: the session
        # process finishes and schedules the waiting task's resume.
        self._call_in(0.0, self._session_done, idx)

    def _session_done(self, idx: int) -> None:
        cloud = self.cloud
        sim = self.sim
        request = self.requests[idx]
        record = self.records[idx]
        outcome = self.outcomes[idx]
        slot = self.slots[idx]
        if slot is not None:
            cloud._vm_slots.release(slot, sim)
            self.slots[idx] = None
        self._in_flight.pop(record.file_id, None)
        cloud.fleet.account(outcome)
        cloud.database.record_attempt(record.file_id, outcome.success)
        if outcome.success and cloud.config.collaborative_cache:
            cloud.pool.insert(record)
            cloud.database.set_cached(record.file_id, True)
        self.events[idx].trigger(outcome)
        self.events[idx] = None
        self.sessions[idx] = None
        self.outcomes[idx] = None
        self._after_predownload(idx, PreDownloadRecord(
            request.task_id, record.file_id,
            self.pre_start[idx], sim._now,
            outcome.bytes_obtained, outcome.traffic, False,
            outcome.average_rate, outcome.peak_rate, outcome.success,
            outcome.failure_cause))

    def _coalesce_done(self, idx: int, outcome: Any) -> None:
        request = self.requests[idx]
        record = self.records[idx]
        start = self.pre_start[idx]
        finish = self.sim._now
        if outcome.success:
            self._cache_get(record.file_id)   # count the warm hit
            pre_record = PreDownloadRecord(
                request.task_id, record.file_id, start, finish,
                record.size, 0.0, True, 0.0, 0.0, True)
        else:
            pre_record = PreDownloadRecord(
                request.task_id, record.file_id, start, finish,
                outcome.bytes_obtained, 0.0, False,
                0.0, 0.0, False, outcome.failure_cause)
        self._after_predownload(idx, pre_record)

    def _after_predownload(self, idx: int,
                           pre_record: PreDownloadRecord) -> None:
        result = self._TaskResult(
            self.requests[idx], self.records[idx], pre_record)
        self._tasks_append(result)
        if not pre_record.success:
            self.phase[idx] = PHASE_DONE
            self.waiters[idx] = None
            return
        self.results[idx] = result
        lag = self._lag_median * float(
            np.exp(self._rng_normal(0.0, self._lag_sigma)))
        self.phase[idx] = PHASE_LAG
        self._call_in(lag, self._enter_fetch, idx)

    # -- fetch -------------------------------------------------------------------

    def _enter_fetch(self, idx: int) -> None:
        request = self.requests[idx]
        record = self.records[idx]
        user = self.users[idx]
        start = self.sim._now
        self.fetch_start[idx] = start

        speed_for = self._speed_for
        bandwidth = user.access_bandwidth
        admitted = self._select_and_reserve(
            user.isp, start,
            lambda quality: speed_for(bandwidth, quality))
        if admitted is None:
            result = self.results[idx]
            estimated_rate = FETCH_SPEED_MEAN
            self._flows_append(self._FetchFlow(
                start, start + record.size / estimated_rate,
                estimated_rate, self.highly_popular[idx], True))
            result.fetch_record = FetchRecord(
                request.task_id, user.user_id, user.ip_address,
                user.reported_bandwidth, start, start,
                0.0, 0.0, 0.0, 0.0, True)
            self.results[idx] = None
            self.phase[idx] = PHASE_DONE
            self.waiters[idx] = None
            return

        path, reservation, rate = admitted
        self.paths[idx] = path
        self.reservations[idx] = reservation
        self.rate[idx] = rate
        duration = record.size / rate if rate > 0 else 0.0
        self.deadline[idx] = start + duration
        self.phase[idx] = PHASE_FETCH
        self._call_in(duration, self._finish_fetch, idx)

    def _finish_fetch(self, idx: int) -> None:
        now = self.sim._now
        request = self.requests[idx]
        record = self.records[idx]
        user = self.users[idx]
        random = self._rng_random
        rate = self.rate[idx]
        start = self.fetch_start[idx]
        self.reservations[idx].release(now)
        self.reservations[idx] = None
        self._flows_append(self._FetchFlow(
            start, now, rate, self.highly_popular[idx]))
        result = self.results[idx]
        result.fetch_path = self.paths[idx]
        # ``lo + (hi - lo) * rng.random()`` is the exact computation
        # (and stream consumption) of ``rng.uniform(lo, hi)`` without
        # its per-call argument broadcasting -- bit-identical, ~2x
        # cheaper per draw.
        size = record.size
        result.fetch_record = FetchRecord(
            request.task_id, user.user_id, user.ip_address,
            user.reported_bandwidth, start, now, size,
            size * (1.07 + (1.10 - 1.07) * random()),
            rate,
            min(rate * (1.0 + (1.4 - 1.0) * random()),
                self._max_fetch_rate))
        self.paths[idx] = None
        self.results[idx] = None
        self.phase[idx] = PHASE_DONE
        self.waiters[idx] = None
