"""Intra-query thread parallelism: the engine's one thread fan-out.

:func:`parallel_map` runs a function over row ranges on a short-lived
thread pool under the submitter's governance, resilience, and tracing
contexts; :class:`~repro.columnar.morsel.MorselScheduler` maps the
vector executor's row-parallel operators through it.  As the paper
observes for its own system, multithreaded speedups here are limited by
Python's GIL — the same shape our Figure 6g reproduction shows.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, List, Sequence, Tuple

from ..obs import tracer as obs_tracer
from ..resilience import governor, runtime

__all__ = ["split_ranges", "adopting", "parallel_map"]


def split_ranges(size: int, parts: int, align: int = 1) -> List[Tuple[int, int]]:
    """Split ``[0, size)`` into up to ``parts`` contiguous ranges.

    With ``align > 1`` every range boundary except the final stop lands
    on a multiple of ``align`` (morsel alignment), so range splits and
    fixed-size morsel grids tile each other exactly.  The last range
    absorbs the uneven tail; ranges are never empty.
    """
    if size <= 0:
        return [(0, 0)]
    align = max(1, align)
    parts = max(1, min(parts, size))
    step = (size + parts - 1) // parts
    step = ((step + align - 1) // align) * align
    return [(start, min(start + step, size)) for start in range(0, size, step)]


def adopting(fn: Callable) -> Callable:
    """Wrap ``fn`` so worker threads adopt the submitting thread's
    governance, resilience, and tracing contexts (all thread-local)."""
    gov_ctx = governor.current()
    res_ctx = runtime.active()
    obs_trace = obs_tracer.current_trace()
    obs_span = obs_tracer.current_span() if obs_trace is not None else None
    if gov_ctx is None and res_ctx is None and obs_trace is None:
        return fn

    def adopted(item):
        with contextlib.ExitStack() as stack:
            if gov_ctx is not None:
                stack.enter_context(governor.activate(gov_ctx))
            if res_ctx is not None:
                stack.enter_context(runtime.activate(res_ctx))
            if obs_trace is not None:
                stack.enter_context(
                    obs_tracer.adopt_span(obs_span, obs_trace)
                )
            return fn(item)

    return adopted


def parallel_map(fn: Callable, items: Sequence, threads: int) -> List:
    """Map ``fn`` over ``items`` using ``threads`` workers (ordered).

    Error semantics are deterministic: every submitted chunk either runs
    to completion or is cancelled before starting, the pool is always
    drained (no leaked threads still running after return), and the
    exception propagated is the *first* failure in item order — not
    whichever worker happened to lose the race.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    worker = adopting(fn)
    futures: List = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            with governor.spawn_shield():
                # The pool's threads are born lazily inside submit; a
                # governed submitter must hold the watchdog's async
                # raise through each Thread.start handshake, or the
                # raise can be absorbed by a half-born worker and
                # deadlock us in the handshake wait.
                futures = [pool.submit(worker, item) for item in items]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()  # no-op for running/finished futures
        # The context exit joins any still-running workers; afterwards
        # every future is either done or cancelled.
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures if not future.cancelled()]
