"""Morsel sharding of row-parallel operators.

A *morsel* is one fixed-size range of rows — the scheduling quantum of
the vectorized executor.  :class:`MorselScheduler` owns the morsel grid
and runs a function over it: a plain loop at one thread, otherwise
:func:`~repro.engine.parallel.parallel_map` (the engine's only thread
fan-out).  The GIL caps what threads buy — the paper reports ~45 % at
12 threads, and this reproduction measures ~1.0× — so the scheduler
carries no pool, queues, or balancing of its own.

Every morsel runs under the submitting query's adopted governance,
resilience, and tracing contexts and passes a cooperative
:func:`~repro.resilience.governor.checkpoint` first, so deadlines,
cancellation, and row budgets interrupt *between morsels* even when the
work is spread over many threads.

Error semantics are deterministic via **deopt-to-serial**: when any
morsel raises an ordinary exception, the whole stage re-executes
serially in morsel order and the serial error (the first one in row
order) is the one propagated — parallel execution can never change
*which* error a query reports.  Governed interrupts
(:class:`~repro.errors.QueryInterrupt`) propagate immediately instead;
re-running a cancelled query's stage would hold the cancel hostage.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Tuple

from ..engine.parallel import parallel_map
from ..errors import QueryInterrupt
from ..obs import METRICS, OBS
from ..obs import tracer as obs_tracer
from ..resilience.governor import checkpoint

__all__ = ["MorselScheduler"]

#: fn(start, stop) -> per-morsel result
MorselFn = Callable[[int, int], Any]


class MorselScheduler:
    """Shards row ranges into morsels and maps a function over them."""

    def __init__(self, threads: int = 1, morsel_size: int = 4096):
        self.threads = max(1, int(threads))
        self.morsel_size = max(1, int(morsel_size))
        # Lifetime telemetry.  Counted per stage on the submitting
        # thread, under a lock: concurrent queries share one scheduler.
        self._lock = threading.Lock()
        self.morsels_run = 0
        self.deopts = 0

    def morsels(self, size: int) -> List[Tuple[int, int]]:
        """The morsel grid over ``[0, size)``."""
        if size <= 0:
            return []
        return [
            (start, min(start + self.morsel_size, size))
            for start in range(0, size, self.morsel_size)
        ]

    def map_ranges(self, size: int, fn: MorselFn,
                   stage: str = "stage") -> List[Any]:
        """Run ``fn`` over every morsel of ``[0, size)``; ordered results.

        Serial when one thread (or one morsel) suffices; otherwise
        thread-parallel with deopt-to-serial on failure.
        """
        grid = self.morsels(size)

        def run(bounds: Tuple[int, int]) -> Any:
            return self._run_one(fn, *bounds, stage)

        self._count(len(grid))
        if self.threads <= 1 or len(grid) <= 1:
            return [run(bounds) for bounds in grid]
        try:
            return parallel_map(run, grid, self.threads)
        except QueryInterrupt:
            raise
        except Exception:
            self._count(len(grid), deopts=1)
            if OBS.metrics:
                METRICS.counter(
                    "repro_morsel_deopt_total", stage=stage
                ).inc()
            return [run(bounds) for bounds in grid]

    def _count(self, morsels: int, deopts: int = 0) -> None:
        with self._lock:
            self.morsels_run += morsels
            self.deopts += deopts

    def _run_one(self, fn: MorselFn, start: int, stop: int,
                 stage: str) -> Any:
        checkpoint()
        if not (OBS.metrics or OBS.tracing):
            return fn(start, stop)
        sp = (
            obs_tracer.span_start(f"morsel:{stage}", "morsel",
                                  rows=stop - start)
            if OBS.tracing else None
        )
        t0 = time.perf_counter()
        try:
            result = fn(start, stop)
        except BaseException as exc:
            if sp is not None:
                obs_tracer.span_end(sp, error=type(exc).__name__)
            raise
        if OBS.metrics:
            METRICS.counter("repro_morsel_total", stage=stage).inc()
            METRICS.histogram(
                "repro_morsel_seconds", stage=stage
            ).observe(time.perf_counter() - t0)
        if sp is not None:
            obs_tracer.span_end(sp)
        return result

    def stats(self) -> dict:
        return {
            "threads": self.threads,
            "morsel_size": self.morsel_size,
            "morsels_run": self.morsels_run,
            "deopts": self.deopts,
        }
