"""Same-tick request coalescing for the asyncio serving tier.

Under load, many ``/decide`` requests become readable in the same event
-loop iteration.  Handling them one by one pays the decision pipeline's
fixed costs (breaker admission, clock read, allocator/database lock)
once *per request*; the :class:`DecisionBatcher` pays them once per
*tick*: every request submitted while the loop is busy is queued, and a
``call_soon`` drain evaluates the queue through
:meth:`~repro.core.webapp.OdrWebApp.handle_batch`.

The drain runs the batch on the event loop itself.  The app is
GIL-bound pure Python, so an executor thread never ran it in parallel
with the loop; the hop only added a task, a future chain, a thread wake
and a self-pipe write per batch.  What the thread did give the loop was
a turn every GIL switch interval, so a drain keeps the same promise
explicitly: it evaluates for at most :data:`SLICE_SECONDS`, then hands
the rest of the queue to a fresh ``call_soon`` so admin probes, other
endpoints and new connections are served between slices.

Latency cost is bounded by construction: the drain callback is
scheduled the moment the first request of a tick arrives, so an idle
server still answers in the same iteration -- batching only *appears*
when concurrency does.

Deadline budgets propagate through the batcher: an entry whose
``X-Deadline-Ms`` budget has already expired is answered ``504`` with
stage ``batch`` instead of being evaluated -- checked when its slice
starts, so an entry deferred to a later slice is checked again.
"""

from __future__ import annotations

import asyncio
import sys
import time
from typing import Optional

from repro.core.webapp import OdrWebApp, Response
from repro.obs.registry import NOOP, AnyRegistry
from repro.serve.admission import deadline_response

#: Upper bound on one coalesced pass.
DEFAULT_MAX_BATCH = 512

#: The evaluation budget of one drain slice: the GIL switch interval,
#: which is the turn the loop got when the batch ran on an executor
#: thread instead.
SLICE_SECONDS = sys.getswitchinterval()

#: Weight of the newest pass in the per-entry cost estimate that sizes
#: the next pass to the slice budget.
_COST_ALPHA = 0.2


class DecisionBatcher:
    """Coalesces concurrently-arriving requests into one batch pass."""

    def __init__(self, app: OdrWebApp, metrics: AnyRegistry = NOOP,
                 max_batch: int = DEFAULT_MAX_BATCH):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.app = app
        self.max_batch = max_batch
        self._metrics = metrics
        self._pending: list[tuple[str, str, Optional[float],
                                  asyncio.Future]] = []
        self._drain_scheduled = False
        # Seconds of handle_batch per entry; None until a pass has been
        # timed, and until then a slice evaluates one entry.
        self._entry_seconds: Optional[float] = None
        self.batches = 0
        self.batched_requests = 0
        self.expired = 0
        self.slices = 0

    def submit(self, path: str, cookie_header: str,
               deadline: Optional[float] = None
               ) -> "asyncio.Future[Response]":
        """Queue one request; the future resolves with its Response.

        ``deadline`` is an absolute ``time.monotonic()`` instant after
        which the caller no longer wants the answer.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((path, cookie_header, deadline, future))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            loop.call_soon(self._drain)
        return future

    def _expire(self, future: asyncio.Future) -> None:
        self.expired += 1
        self._metrics.counter("repro_serve_deadline_sheds_total",
                              stage="batch").inc()
        if not future.done():
            future.set_result(deadline_response("batch"))

    def _drain(self) -> None:
        """One slice: evaluate queued entries until the budget is spent,
        then re-schedule the remainder behind whatever else is ready."""
        self.slices += 1
        started = time.perf_counter()
        while self._pending:
            spent = time.perf_counter() - started
            if spent >= SLICE_SECONDS:
                asyncio.get_running_loop().call_soon(self._drain)
                return
            self._evaluate(self._take(SLICE_SECONDS - spent))
        self._drain_scheduled = False

    def _take(self, budget: float
              ) -> list[tuple[str, str, Optional[float],
                              asyncio.Future]]:
        """Pop the next pass off the queue: as many live entries as the
        cost estimate fits in ``budget`` (at least one, at most
        ``max_batch``).  Expired entries are answered on the way: they
        hold an admission slot but cost no decision work."""
        cost = self._entry_seconds
        if cost is None:
            size = 1
        elif cost > 0.0:
            size = max(1, min(self.max_batch, int(budget / cost)))
        else:
            size = self.max_batch
        now = time.monotonic()
        live = []
        taken = 0
        for taken, entry in enumerate(self._pending, 1):
            deadline = entry[2]
            if deadline is not None and now > deadline:
                self._expire(entry[3])
            else:
                live.append(entry)
                if len(live) == size:
                    break
        del self._pending[:taken]
        return live

    def _evaluate(self, batch: list[tuple[str, str, Optional[float],
                                          asyncio.Future]]) -> None:
        if not batch:
            return
        self.batches += 1
        self.batched_requests += len(batch)
        self._metrics.histogram("repro_serve_batch_size").observe(
            float(len(batch)))
        started = time.perf_counter()
        try:
            # The deadline rides into handle_batch so the policy layer
            # can rank against the remaining budget.
            responses = self.app.handle_batch(
                [(path, cookie, deadline)
                 for path, cookie, deadline, _future in batch])
        except Exception as error:   # noqa: BLE001 - boundary
            for _path, _cookie, _deadline, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        cost = (time.perf_counter() - started) / len(batch)
        self._entry_seconds = cost if self._entry_seconds is None \
            else self._entry_seconds + _COST_ALPHA * (
                cost - self._entry_seconds)
        for (_path, _cookie, _deadline, future), response \
                in zip(batch, responses):
            if not future.done():
                future.set_result(response)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches \
            else 0.0

    @property
    def pending(self) -> int:
        return len(self._pending)

