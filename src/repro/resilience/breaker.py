"""Per-UDF sliding-window circuit breakers.

GRACEFUL motivates treating per-UDF runtime cost as a first-class
signal; Froid-style per-function metadata gates optimization decisions.
Here both ideas meet at runtime: every registered UDF accumulates a
sliding window of ``(ok, per_tuple_latency)`` observations, and a
breaker trips OPEN when the window's failure rate or p95 per-tuple
latency crosses its threshold.  An OPEN breaker refuses work until its
cooldown elapses, then HALF_OPEN admits a single probe: a successful
probe closes the breaker, a failed one re-opens it.

The breaker *state machine*::

    CLOSED --(failure rate / latency over threshold)--> OPEN
    OPEN   --(cooldown elapsed, one probe admitted)---> HALF_OPEN
    HALF_OPEN --(probe ok)--> CLOSED
    HALF_OPEN --(probe fails)--> OPEN

What an open breaker *means* is policy, decided by the caller
(:class:`repro.core.qfusor.QFusor`): ``fail_fast`` raises
:class:`~repro.errors.CircuitOpenError` before any work starts;
``unfused`` bypasses fusion so the suspect UDF runs through the plain
interpreted path (timeout de-optimization's steady-state analogue).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..obs import METRICS, OBS
from ..obs import tracer as obs_tracer

__all__ = ["CircuitBreaker", "BreakerBoard", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Pseudo stage names in ``fused_from`` chains that are not real UDFs.
_PSEUDO_STAGES = frozenset({"expr", "filter", "distinct"})


def _p95(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = max(0, int(round(0.95 * (len(ordered) - 1))))
    return ordered[index]


class CircuitBreaker:
    """One UDF's sliding-window health tracker."""

    __slots__ = (
        "name", "window", "min_calls", "failure_threshold",
        "latency_threshold_s", "cooldown_s", "_results", "_state",
        "_opened_at", "_probe_issued", "trips", "_lock",
    )

    def __init__(
        self,
        name: str,
        *,
        window: int = 32,
        min_calls: int = 8,
        failure_threshold: float = 0.5,
        latency_threshold_s: Optional[float] = None,
        cooldown_s: float = 30.0,
    ):
        self.name = name
        self.window = max(1, window)
        self.min_calls = max(1, min_calls)
        self.failure_threshold = failure_threshold
        self.latency_threshold_s = latency_threshold_s
        self.cooldown_s = cooldown_s
        self._results: Deque[Tuple[bool, float]] = deque(maxlen=self.window)
        self._state = CLOSED
        self._opened_at = 0.0
        self._probe_issued = False
        #: CLOSED/HALF_OPEN -> OPEN transitions so far.
        self.trips = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def record(self, ok: bool, elapsed_s: float, tuples: int = 1) -> None:
        """Record one boundary invocation outcome."""
        per_tuple = elapsed_s / max(1, tuples)
        with self._lock:
            if self._state == HALF_OPEN:
                # The probe decides: success closes, failure re-opens.
                if ok:
                    self._close_locked()
                    self._results.append((True, per_tuple))
                else:
                    self._trip_locked()
                return
            self._results.append((ok, per_tuple))
            if self._state == CLOSED:
                self._evaluate_locked()

    def _evaluate_locked(self) -> None:
        if len(self._results) < self.min_calls:
            return
        failures = sum(1 for ok, _ in self._results if not ok)
        if failures / len(self._results) >= self.failure_threshold:
            self._trip_locked()
            return
        if self.latency_threshold_s is not None:
            latencies = [lat for ok, lat in self._results if ok]
            if latencies and _p95(latencies) > self.latency_threshold_s:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = time.monotonic()
        self._probe_issued = False
        self.trips += 1
        if OBS.metrics:
            METRICS.counter("repro_breaker_trips_total", udf=self.name).inc()
        if OBS.tracing:
            obs_tracer.add_event("breaker_trip", udf=self.name)

    def _close_locked(self) -> None:
        self._state = CLOSED
        self._results.clear()
        self._probe_issued = False

    # -- decisions -----------------------------------------------------

    def allow(self) -> bool:
        """Whether an execution may proceed right now.

        While OPEN, returns False until the cooldown elapses, then
        transitions to HALF_OPEN and admits exactly one probe per
        half-open period.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if time.monotonic() - self._opened_at < self.cooldown_s:
                    return False
                self._state = HALF_OPEN
                self._probe_issued = True
                return True
            # HALF_OPEN: one probe only.
            if self._probe_issued:
                return False
            self._probe_issued = True
            return True

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def retry_in_s(self) -> Optional[float]:
        """Seconds until the next probe is admitted (None when closed)."""
        with self._lock:
            if self._state != OPEN:
                return None
            remaining = self.cooldown_s - (time.monotonic() - self._opened_at)
            return max(0.0, remaining)

    def reset(self) -> None:
        with self._lock:
            self._close_locked()
            self.trips = 0


class BreakerBoard:
    """The per-registry collection of circuit breakers, keyed by UDF name.

    Lives on :class:`~repro.udf.registry.UdfRegistry` next to the
    :class:`~repro.udf.state.StatsStore`, shared by every client of
    the adapter; off until its owner calls :meth:`configure`.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        window: int = 32,
        min_calls: int = 8,
        failure_threshold: float = 0.5,
        latency_threshold_s: Optional[float] = None,
        cooldown_s: float = 30.0,
    ):
        self.enabled = enabled
        self.window = window
        self.min_calls = min_calls
        self.failure_threshold = failure_threshold
        self.latency_threshold_s = latency_threshold_s
        self.cooldown_s = cooldown_s
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def configure(self, **knobs) -> None:
        """Apply config knobs; existing breakers keep their history but
        pick up the new thresholds."""
        for key, value in knobs.items():
            if not hasattr(self, key):
                raise AttributeError(f"unknown breaker knob {key!r}")
            setattr(self, key, value)
        with self._lock:
            for breaker in self._breakers.values():
                breaker.window = max(1, self.window)
                breaker.min_calls = max(1, self.min_calls)
                breaker.failure_threshold = self.failure_threshold
                breaker.latency_threshold_s = self.latency_threshold_s
                breaker.cooldown_s = self.cooldown_s

    def breaker(self, name: str) -> CircuitBreaker:
        key = name.lower()
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    key,
                    window=self.window,
                    min_calls=self.min_calls,
                    failure_threshold=self.failure_threshold,
                    latency_threshold_s=self.latency_threshold_s,
                    cooldown_s=self.cooldown_s,
                )
                self._breakers[key] = breaker
            return breaker

    @staticmethod
    def chain_names(primary: str, fused_from: Sequence[str] = ()) -> List[str]:
        """The breaker names charged for one invocation: the primary UDF
        plus real constituent UDFs of a fused trace (pseudo stages like
        ``expr``/``filter``/``distinct`` are skipped)."""
        names = [primary.lower()]
        for name in fused_from:
            lowered = name.lower()
            if lowered not in _PSEUDO_STAGES and lowered not in names:
                names.append(lowered)
        return names

    def record_success(self, name: str, elapsed_s: float, tuples: int = 1,
                       fused_from: Sequence[str] = ()) -> None:
        """Credit a success to the primary name *and* the constituents of
        a fused trace, so a queries-always-fused UDF still accumulates
        the (approximate — the chain's elapsed time is attributed to each
        member) latency history its own breaker trips on."""
        if not self.enabled:
            return
        for chain_name in self.chain_names(name, fused_from):
            self.breaker(chain_name).record(True, elapsed_s, tuples)

    def record_failure(self, name: str, elapsed_s: float, tuples: int = 1,
                       fused_from: Sequence[str] = ()) -> None:
        """Charge a failure to the primary name *and* the constituents of
        a fused trace — a poisoned trace must not shield the UDFs inside
        it from accumulating history."""
        if not self.enabled:
            return
        for chain_name in self.chain_names(name, fused_from):
            self.breaker(chain_name).record(False, elapsed_s, tuples)

    def allow(self, name: str) -> bool:
        if not self.enabled:
            return True
        with self._lock:
            breaker = self._breakers.get(name.lower())
        return breaker.allow() if breaker is not None else True

    def state(self, name: str) -> str:
        with self._lock:
            breaker = self._breakers.get(name.lower())
        return breaker.state if breaker is not None else CLOSED

    def refusing(self, names: Sequence[str]) -> List[str]:
        """The subset of ``names`` whose breakers refuse execution now."""
        if not self.enabled:
            return []
        return [name for name in names if not self.allow(name)]

    def snapshot(self) -> Dict[str, str]:
        with self._lock:
            return {name: b.state for name, b in self._breakers.items()}
