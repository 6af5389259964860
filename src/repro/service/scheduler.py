"""Weighted-fair admission: per-tenant queues + deficit-weighted dispatch.

:class:`FairScheduler` is the service's admission control.  A single
FIFO semaphore is fine for one client but collapses under multi-tenant
load: a tenant spraying cheap queries monopolizes the semaphore's wake
order and starves everyone else.  Here every tenant gets its **own
queue**, and free slots are handed out by **deficit round robin** (DRR)
within the highest non-empty priority lane:

* each tenant queue accrues *deficit* in proportion to its quota weight;
* a queue is served (head ticket dispatched) when its deficit covers
  one query, paying one unit down;
* an emptied queue forfeits its remaining deficit — credit never banks
  across idle periods, so a bursty tenant cannot save up a monopoly;
* lanes are strict-priority: "high" drains before "normal" before
  "low", and within a lane DRR preserves the weight ratios.

Dispatch is event-per-ticket.  Queue-wait time is first-class: every
arrival that enqueues — admitted *or* shed — records its wait into the
aggregate :meth:`FairScheduler.stats` and the
``repro_admission_wait_seconds`` histogram, so fairness and shed latency
are measurable rather than inferred.

Shedding is typed and immediate where possible: a full global queue or
full per-tenant queue refuses at the door with
:class:`~repro.errors.ServiceOverloadError` carrying a ``retry_after_s``
hint derived from observed service rate; a queued ticket that outwaits
``queue_timeout_s`` sheds with the same type (reason
``"queue_timeout"``).  Nothing is ever silently dropped: every ticket
either dispatches or raises.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from ..errors import ServiceOverloadError, UnknownTenantError
from ..obs import DEFAULT_WAIT_BUCKETS, METRICS, OBS
from .tenancy import LANES, TenantQuota

__all__ = ["FairScheduler"]


class _Ticket:
    """One arrival waiting for (or holding) a dispatch grant."""

    __slots__ = ("tenant", "event", "granted", "enqueued_at")

    def __init__(self, tenant: "_TenantLane"):
        self.tenant = tenant
        self.event = threading.Event()
        self.granted = False
        self.enqueued_at = time.monotonic()


class _TenantLane:
    """Per-tenant scheduling state (queue, deficit, concurrency)."""

    __slots__ = ("tenant_id", "weight", "lane", "max_concurrent",
                 "max_pending", "queue", "deficit", "active",
                 "admitted", "shed", "wait_total_s")

    def __init__(self, tenant_id: str, quota: TenantQuota):
        self.tenant_id = tenant_id
        self.weight = float(quota.weight)
        self.lane = quota.lane
        self.max_concurrent = quota.max_concurrent
        self.max_pending = quota.max_pending
        self.queue: Deque[_Ticket] = deque()
        self.deficit = 0.0
        self.active = 0
        self.admitted = 0
        self.shed = 0
        self.wait_total_s = 0.0

    @property
    def dispatchable(self) -> bool:
        return bool(self.queue) and (
            self.max_concurrent is None or self.active < self.max_concurrent
        )


class FairScheduler:
    """Per-tenant weighted-fair admission with priority lanes."""

    def __init__(
        self,
        capacity: int,
        *,
        queue_timeout_s: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
    ):
        self.max_concurrent = max(1, int(capacity))
        self.queue_timeout_s = queue_timeout_s
        # One lock for scheduler state and the stat counters, so stats()
        # snapshots stay coherent.
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0
        self.active = 0
        self.peak_active = 0
        #: Arrivals currently blocked in a queue (the live queue depth).
        self.waiting = 0
        self.peak_waiting = 0
        self.queue_wait_total_s = 0.0
        self.queue_wait_count = 0
        self.max_wait_s = 0.0
        self._tenants: Dict[str, _TenantLane] = {}
        #: Registration-ordered tenant ids per lane (the DRR rotation).
        self._lane_order: Dict[str, List[str]] = {lane: [] for lane in LANES}
        self._rr: Dict[str, int] = {lane: 0 for lane in LANES}
        self.max_queue_depth = max_queue_depth
        #: Recent dispatch-to-release latencies feed retry-after hints.
        self._service_s = deque(maxlen=64)

    # -- tenant management ---------------------------------------------

    def register_tenant(self, tenant_id: str, quota: TenantQuota) -> None:
        with self._lock:
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} already registered")
            state = _TenantLane(tenant_id, quota)
            self._tenants[tenant_id] = state
            self._lane_order[state.lane].append(tenant_id)

    def remove_tenant(self, tenant_id: str) -> None:
        with self._lock:
            state = self._tenants.pop(tenant_id, None)
            if state is None:
                return
            for ticket in state.queue:
                # Wake queued tickets un-granted; their waiters shed.
                ticket.event.set()
            self.waiting -= len(state.queue)
            state.queue.clear()
            order = self._lane_order[state.lane]
            index = order.index(tenant_id)
            order.pop(index)
            if self._rr[state.lane] > index:
                self._rr[state.lane] -= 1

    def _state(self, tenant_id: str) -> _TenantLane:
        state = self._tenants.get(tenant_id)
        if state is None:
            raise UnknownTenantError(tenant_id)
        return state

    # -- retry-after hints ---------------------------------------------

    def _retry_after_locked(self, depth_ahead: int) -> float:
        """Estimated seconds until ``depth_ahead`` queued queries drain.

        Mean observed service time x queue position / capacity, floored
        at 50ms so clients never busy-spin on an empty estimate.
        """
        if self._service_s:
            mean_s = sum(self._service_s) / len(self._service_s)
        else:
            mean_s = 0.1
        estimate = mean_s * (depth_ahead + 1) / self.max_concurrent
        return max(0.05, estimate)

    # -- dispatch core (all under self._lock) --------------------------

    def _next_ticket_locked(self) -> Optional[_Ticket]:
        for lane in LANES:
            order = self._lane_order[lane]
            eligible = [
                self._tenants[tid] for tid in order
                if self._tenants[tid].dispatchable
            ]
            if not eligible:
                continue
            # Top everyone up just enough that at least one queue can
            # afford a dispatch (closed-form DRR: no quantum loop).
            passes = min(
                math.ceil(max(0.0, 1.0 - st.deficit) / st.weight)
                for st in eligible
            )
            if passes:
                for st in eligible:
                    st.deficit += passes * st.weight
            # Serve the first affordable queue in rotation order.
            n = len(order)
            start = self._rr[lane] % n if n else 0
            for offset in range(n):
                tid = order[(start + offset) % n]
                st = self._tenants[tid]
                if st.dispatchable and st.deficit >= 1.0:
                    self._rr[lane] = (start + offset + 1) % n
                    st.deficit -= 1.0
                    ticket = st.queue.popleft()
                    if not st.queue:
                        st.deficit = 0.0  # no banking across idleness
                    return ticket
        return None

    def _dispatch_locked(self) -> None:
        while self.active < self.max_concurrent:
            ticket = self._next_ticket_locked()
            if ticket is None:
                return
            state = ticket.tenant
            ticket.granted = True
            state.active += 1
            state.admitted += 1
            self.waiting -= 1
            self.active += 1
            self.admitted += 1
            self.peak_active = max(self.peak_active, self.active)
            ticket.event.set()

    # -- public admission ----------------------------------------------

    def acquire(self, tenant_id: str) -> float:
        """Block until this tenant's turn; returns the queue wait (s).

        Raises :class:`ServiceOverloadError` when the ticket sheds —
        immediately on a full queue, or after the queue timeout.
        """
        with self._lock:
            state = self._state(tenant_id)
            depth = self.waiting
            if (self.max_queue_depth is not None
                    and depth >= self.max_queue_depth):
                state.shed += 1
                self.rejected += 1
                self._shed_metrics(tenant_id, "queue_full")
                raise ServiceOverloadError(
                    tenant=tenant_id, reason="queue_full", queue_depth=depth,
                    retry_after_s=self._retry_after_locked(depth),
                )
            if (state.max_pending is not None
                    and len(state.queue) >= state.max_pending):
                state.shed += 1
                self.rejected += 1
                self._shed_metrics(tenant_id, "tenant_queue_full")
                raise ServiceOverloadError(
                    tenant=tenant_id, reason="tenant_queue_full",
                    queue_depth=len(state.queue),
                    retry_after_s=self._retry_after_locked(len(state.queue)),
                )
            ticket = _Ticket(state)
            state.queue.append(ticket)
            self.waiting += 1
            self.peak_waiting = max(self.peak_waiting, self.waiting)
            self._dispatch_locked()
        ticket.event.wait(self.queue_timeout_s)
        waited_s = time.monotonic() - ticket.enqueued_at
        with self._lock:
            self._note_wait_locked(waited_s)
            state.wait_total_s += waited_s
            granted = ticket.granted
        if granted:
            self._observe_wait(waited_s, "admitted")
            return waited_s
        with self._lock:
            if ticket.granted:  # granted in the gap between the locks
                self._observe_wait(waited_s, "admitted")
                return waited_s
            # Timed out — or the tenant was removed from under us.
            try:
                state.queue.remove(ticket)
                self.waiting -= 1
            except ValueError:
                pass  # remove_tenant already pulled it
            state.shed += 1
            self.rejected += 1
            depth = self.waiting
            retry_after = self._retry_after_locked(depth)
        self._observe_wait(waited_s, "shed")
        self._shed_metrics(tenant_id, "queue_timeout")
        raise ServiceOverloadError(
            tenant=tenant_id, reason="queue_timeout", queue_depth=depth,
            waited_s=waited_s, retry_after_s=retry_after,
        )

    def release(self, tenant_id: str,
                service_s: Optional[float] = None) -> None:
        with self._lock:
            state = self._tenants.get(tenant_id)
            if state is not None:  # tolerate mid-flight tenant removal
                state.active -= 1
            self.active -= 1
            if service_s is not None:
                self._service_s.append(service_s)
            self._dispatch_locked()

    @contextlib.contextmanager
    def admit(self, tenant_id: str) -> Iterator[float]:
        """Context-managed acquire/release; yields the queue wait."""
        waited_s = self.acquire(tenant_id)
        start = time.monotonic()
        try:
            yield waited_s
        finally:
            self.release(tenant_id, time.monotonic() - start)

    # -- observability -------------------------------------------------

    def _note_wait_locked(self, waited_s: float) -> None:
        self.queue_wait_total_s += waited_s
        self.queue_wait_count += 1
        if waited_s > self.max_wait_s:
            self.max_wait_s = waited_s

    def _observe_wait(self, waited_s: float, outcome: str) -> None:
        if OBS.metrics:
            METRICS.histogram(
                "repro_admission_wait_seconds", DEFAULT_WAIT_BUCKETS,
                outcome=outcome,
            ).observe(waited_s)

    def stats(self) -> Dict[str, float]:
        """A point-in-time snapshot of the counters and queue waits."""
        with self._lock:
            count = self.queue_wait_count
            return {
                "max_concurrent": self.max_concurrent,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "active": self.active,
                "peak_active": self.peak_active,
                "waiting": self.waiting,
                "peak_waiting": self.peak_waiting,
                "queue_wait_count": count,
                "queue_wait_total_s": self.queue_wait_total_s,
                "queue_wait_mean_s": (
                    self.queue_wait_total_s / count if count else 0.0
                ),
                "max_wait_s": self.max_wait_s,
            }

    def _shed_metrics(self, tenant_id: str, reason: str) -> None:
        if OBS.metrics:
            METRICS.counter(
                "repro_service_shed_total", tenant=tenant_id, reason=reason
            ).inc()

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                tid: {
                    "lane": st.lane,
                    "weight": st.weight,
                    "active": st.active,
                    "queued": len(st.queue),
                    "admitted": st.admitted,
                    "shed": st.shed,
                    "wait_total_s": st.wait_total_s,
                }
                for tid, st in self._tenants.items()
            }
