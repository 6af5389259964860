"""Tier 3: the query result cache with single-flight dogpile protection.

A result entry is keyed by everything that can change the answer:
normalized-SQL fingerprint, the snapshot epoch of every table the query
reads, the definition version of every UDF it calls, and the QFusor
config fingerprint.  Any DML bumps the written tables' epochs, any UDF
re-registration bumps its version — stale entries are simply never
addressed again and age out of the LRU.

**Single-flight**: when N identical queries arrive concurrently, exactly
one (the leader) executes; the rest wait on the flight and share the
leader's result.  The wait is cooperative — followers run their own
governance checkpoints, so a follower's deadline or cancellation fires
while waiting.  If the leader fails (its own timeout, a cancellation, a
UDF error), followers do *not* inherit the failure: one of them promotes
to leader and executes for itself.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import METRICS, OBS
from ..resilience import governor
from .lru import LruMap

__all__ = ["ResultCache", "MISS"]

#: Returned by :meth:`ResultCache.lookup` on a miss (results may be any
#: value, including None-shaped tables).
MISS = object()


class _Flight:
    """One in-flight execution that followers can wait on."""

    __slots__ = ("done", "result", "failed")

    def __init__(self):
        self.done = threading.Event()
        self.result: Any = MISS
        self.failed = False


class ResultCache:
    """Bounded LRU of query results plus the single-flight table."""

    def __init__(self, capacity: int = 128):
        self._entries = LruMap(capacity)
        self._flights: Dict[Tuple, _Flight] = {}
        self._lock = threading.Lock()
        #: Followers that received a leader's result without executing.
        self.shared = 0
        #: Followers that promoted to leader after a leader failure.
        self.promotions = 0

    # ------------------------------------------------------------------
    # Plain lookup/store (used by the manager around the flight logic)
    # ------------------------------------------------------------------

    def lookup(self, key: Tuple) -> Any:
        value = self._entries.get(key, MISS)
        if OBS.metrics:
            METRICS.counter(
                "repro_cache_hits_total" if value is not MISS
                else "repro_cache_misses_total",
                tier="result",
            ).inc()
        return value

    def store(self, key: Tuple, value: Any) -> None:
        before = self._entries.evictions
        self._entries.put(key, value)
        if OBS.metrics and self._entries.evictions != before:
            METRICS.counter("repro_cache_evictions_total", tier="result").inc()

    # ------------------------------------------------------------------
    # Single-flight execution
    # ------------------------------------------------------------------

    def get_or_execute(
        self,
        key: Tuple,
        execute: Callable[[], Tuple[Any, bool]],
        *,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> Tuple[Any, str]:
        """Return ``(result, outcome)`` for one governed query.

        ``execute`` runs the real pipeline and returns ``(result,
        storeable)`` — population is skipped for degraded runs.  Outcome
        is ``"hit"``, ``"lead"`` (this caller executed), or ``"shared"``
        (another caller's execution was reused).  The leader's exception
        propagates to the leader only.
        """
        notify = on_event or (lambda _action: None)
        while True:
            leader = False
            with self._lock:
                value = self._entries.get(key, MISS)
                if value is not MISS:
                    if OBS.metrics:
                        METRICS.counter(
                            "repro_cache_hits_total", tier="result"
                        ).inc()
                    notify("hit")
                    return value, "hit"
                if OBS.metrics:
                    METRICS.counter(
                        "repro_cache_misses_total", tier="result"
                    ).inc()
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    leader = True
            if leader:
                return self._lead(key, flight, execute, notify), "lead"
            # Follower: wait cooperatively, honouring our own governor.
            while not flight.done.wait(0.02):
                governor.checkpoint()
            if not flight.failed:
                with self._lock:
                    self.shared += 1
                if OBS.metrics:
                    METRICS.counter(
                        "repro_cache_singleflight_shared_total"
                    ).inc()
                notify("shared")
                return flight.result, "shared"
            # The leader failed; loop and try to become the new leader.
            with self._lock:
                self.promotions += 1
            if OBS.metrics:
                METRICS.counter(
                    "repro_cache_singleflight_promotions_total"
                ).inc()

    def _lead(
        self,
        key: Tuple,
        flight: _Flight,
        execute: Callable[[], Tuple[Any, bool]],
        notify: Callable[[str], None],
    ) -> Any:
        if OBS.metrics:
            METRICS.counter("repro_cache_singleflight_leader_total").inc()
        try:
            result, storeable = execute()
        except BaseException:
            # Cancellation-safe population: nothing is cached, and the
            # flight is released so a follower can promote.
            with self._lock:
                self._flights.pop(key, None)
                flight.failed = True
                flight.done.set()
            raise
        with self._lock:
            if storeable:
                before = self._entries.evictions
                self._entries.put(key, result)
                if OBS.metrics and self._entries.evictions != before:
                    METRICS.counter(
                        "repro_cache_evictions_total", tier="result"
                    ).inc()
            self._flights.pop(key, None)
            flight.result = result
            flight.done.set()
        notify("store" if storeable else "lead")
        return result

    # ------------------------------------------------------------------

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)
