"""Deterministic fault injection for the resilience test suite.

The production wrappers carry disarmed hooks (``FAULTS.armed`` attribute
loads); this module supplies the armed side.  A :class:`FaultInjector`
holds an explicit list of fault specs — *which* UDF, *which* row, *how
many times* — so tests inject exactly the failures they assert on, with
no randomness:

``udf_exception``
    Raise from inside a UDF invocation (per-row in batch wrappers,
    per-call on tuple-at-a-time and sqlite bridges).  ``scope`` selects
    fused traces only (``"fused"``), interpreted execution only
    (``"interp"``), or both (``"any"``); the default ``"fused"`` models a
    poisoned trace whose constituent UDFs are healthy, so row-level
    reinterpretation and query-level de-optimization both recover.
``boundary_error``
    Raise during a C -> Python boundary conversion (models a corrupt
    serialized payload, e.g. ``json.loads`` on mangled bytes).
``worker_crash`` / ``worker_hang`` / ``worker_oom``
    Sabotage a process-isolated UDF worker with *real* failure modes —
    the spec is shipped to the worker with the batch and executed there:
    ``worker_crash`` SIGKILLs the worker mid-batch, ``worker_hang``
    sleeps past the batch's deadline slack (the supervisor must kill
    it), and ``worker_oom`` allocates past the worker's ``RLIMIT_AS``
    cap.  These are consulted by
    :meth:`repro.resilience.workers.WorkerPool` per dispatch via the
    ``worker_fault`` hook.

:func:`inject` arms :data:`repro.resilience.runtime.FAULTS` for the
duration of a ``with`` block; :func:`poison_traces` swaps cached fused
traces for versions that raise, modelling a stale/corrupt trace cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..resilience import runtime
from ..udf.definition import UdfDefinition, UdfKind

__all__ = [
    "InjectedFault",
    "PoisonedTraceError",
    "FaultInjector",
    "DURABILITY_STAGES",
    "REPLICATION_STAGES",
    "inject",
    "poison_traces",
]


class InjectedFault(RuntimeError):
    """The exception raised by injected UDF/boundary faults.

    Derives from :class:`RuntimeError` so it sits inside the concrete
    ``UDF_INVOCATION_ERRORS`` set the narrowed handlers catch — an
    injected fault must travel exactly the path a real user-code error
    would.
    """


class PoisonedTraceError(InjectedFault):
    """Raised by a poisoned (deliberately corrupted) fused trace."""


class _RowFault:
    __slots__ = ("udf", "row", "every", "remaining", "scope", "exc", "calls")

    def __init__(self, udf, row, every, times, scope, exc):
        self.udf = udf.lower()
        self.row = row
        self.every = every
        self.remaining = times
        self.scope = scope
        self.exc = exc
        #: Matching invocations seen so far — the surrogate row index for
        #: call sites that have no batch position (sqlite bridge,
        #: tuple-at-a-time execution).
        self.calls = 0


class _BoundaryFault:
    __slots__ = ("sql_type", "remaining")

    def __init__(self, sql_type, times):
        self.sql_type = sql_type
        self.remaining = times


class _DurabilityFault:
    __slots__ = ("stage", "at", "cut", "action", "fired")

    def __init__(self, stage, at, cut, action):
        self.stage = stage
        self.at = at
        self.cut = cut
        self.action = action
        self.fired = False


class _WorkerFault:
    __slots__ = ("udf", "mode", "remaining", "seconds", "alloc_bytes")

    def __init__(self, udf, mode, times, seconds=None, alloc_bytes=None):
        self.udf = udf.lower() if udf is not None else None
        self.mode = mode
        self.remaining = times
        self.seconds = seconds
        self.alloc_bytes = alloc_bytes


class FaultInjector:
    """A deterministic set of fault specs plus the hooks that fire them."""

    def __init__(self):
        self._row_faults: List[_RowFault] = []
        self._boundary_faults: List[_BoundaryFault] = []
        self._worker_faults: List[_WorkerFault] = []
        self._durability_faults: List[_DurabilityFault] = []
        #: Per-stage counters of durability fault points reached.
        self.durability_counts: dict = {}
        #: Total faults fired (all kinds).
        self.fired = 0
        #: ``(kind, detail)`` tuples, in firing order.
        self.log: List[Tuple[str, str]] = []

    # -- spec builders -------------------------------------------------

    def udf_exception(
        self,
        udf: str,
        *,
        row: Optional[int] = None,
        every: Optional[int] = None,
        times: int = 1,
        scope: str = "fused",
        exc: Optional[BaseException] = None,
    ) -> "FaultInjector":
        """Raise from ``udf`` on matching invocations.

        ``row`` pins the fault to one batch position; ``every`` fires on
        every N-th matching invocation; with neither, every matching
        invocation fires until ``times`` is exhausted.  ``scope`` is
        ``"fused"`` (default), ``"interp"``, or ``"any"``.
        """
        if scope not in ("fused", "interp", "any"):
            raise ValueError(f"unknown fault scope {scope!r}")
        self._row_faults.append(
            _RowFault(udf, row, every, times, scope, exc)
        )
        return self

    def boundary_error(
        self, sql_type: Any = None, *, times: int = 1
    ) -> "FaultInjector":
        """Raise during C -> Python conversion of ``sql_type`` values."""
        self._boundary_faults.append(_BoundaryFault(sql_type, times))
        return self

    def worker_crash(
        self, udf: Optional[str] = None, *, times: int = 1
    ) -> "FaultInjector":
        """SIGKILL the worker mid-batch on matching dispatches.

        ``udf`` restricts the fault to batches of one UDF (matched
        against the fused chain too); ``None`` matches any batch.
        """
        self._worker_faults.append(_WorkerFault(udf, "crash", times))
        return self

    def worker_hang(
        self,
        udf: Optional[str] = None,
        *,
        seconds: float = 60.0,
        times: int = 1,
    ) -> "FaultInjector":
        """Make the worker sleep ``seconds`` mid-batch (a wedged batch
        that the supervisor must kill at the deadline slack)."""
        self._worker_faults.append(
            _WorkerFault(udf, "hang", times, seconds=seconds)
        )
        return self

    def worker_oom(
        self,
        udf: Optional[str] = None,
        *,
        alloc_bytes: int = 1 << 34,
        times: int = 1,
    ) -> "FaultInjector":
        """Make the worker allocate past its ``RLIMIT_AS`` memory cap."""
        self._worker_faults.append(
            _WorkerFault(udf, "oom", times, alloc_bytes=alloc_bytes)
        )
        return self

    #: Durability fault stages, in write-path order.  ``wal_append``
    #: supports a byte ``cut`` (torn frame); ``wal_fsync`` models a
    #: crash before the fsync returns (a short/lost fsync: the frame may
    #: be complete on disk but was never acknowledged); the checkpoint
    #: stages bracket the atomic-install protocol (mid temp-file write,
    #: before ``os.replace``, and after replace but before the WAL is
    #: reset); ``wal_reset`` lands inside the post-checkpoint log reset
    #: between the truncate and the new header (``cut`` tears the
    #: header itself), the window that loses the log's ``base_lsn``.
    DURABILITY_STAGES = (
        "wal_append",
        "wal_fsync",
        "checkpoint_write",
        "checkpoint_replace",
        "checkpoint_reset",
        "wal_reset",
    )

    #: Replication fault stages.  Kept separate from DURABILITY_STAGES —
    #: the crash harness samples stages with ``rng.choice`` over that
    #: tuple, and extending it would silently shift every seeded draw in
    #: existing tests.  ``repl_send`` lands in the primary's sender loop
    #: mid-frame (``cut`` tears the wire bytes); ``repl_handshake``
    #: brackets the HELLO/WELCOME exchange; ``repl_promote`` lands inside
    #: promotion after the listener closes but before the bumped fencing
    #: term is durable; ``repl_install`` lands inside the standby's
    #: shipped-checkpoint install after the spool file is created.
    REPLICATION_STAGES = (
        "repl_send",
        "repl_handshake",
        "repl_promote",
        "repl_install",
    )

    def durability_crash(
        self,
        stage: str,
        *,
        at: int = 0,
        cut: Optional[int] = None,
        action: str = "raise",
    ) -> "FaultInjector":
        """Crash the process at a durability fault point.

        ``stage`` is one of :data:`DURABILITY_STAGES`; ``at`` selects the
        n-th (0-based) time that stage is reached; ``cut`` (where the
        stage supports it) writes only the first ``cut`` bytes of the
        frame/file first — a torn write.  ``action`` is ``"raise"``
        (raise :class:`~repro.errors.SimulatedCrash`, for the in-process
        harness) or ``"kill"`` (``SIGKILL`` the calling process, for the
        subprocess harness — a real mid-write death).
        """
        if (
            stage not in self.DURABILITY_STAGES
            and stage not in self.REPLICATION_STAGES
        ):
            raise ValueError(f"unknown durability stage {stage!r}")
        if action not in ("raise", "kill"):
            raise ValueError(f"unknown crash action {action!r}")
        self._durability_faults.append(_DurabilityFault(stage, at, cut, action))
        return self

    # -- hooks (called from generated wrappers via FAULTS) -------------

    def fire_row(
        self, names: Sequence[str], idx: Optional[int], context: str
    ) -> None:
        """Hook run before each UDF invocation; raises to inject."""
        lowered = None
        for fault in self._row_faults:
            if fault.remaining <= 0:
                continue
            if fault.scope != "any" and fault.scope != context:
                continue
            if lowered is None:
                lowered = [n.lower() for n in names]
            if fault.udf not in lowered:
                continue
            position = idx if idx is not None else fault.calls
            fault.calls += 1
            if fault.row is not None and position != fault.row:
                continue
            if fault.every is not None and position % fault.every != 0:
                continue
            fault.remaining -= 1
            self.fired += 1
            detail = f"{fault.udf}@{position}/{context}"
            self.log.append(("udf", detail))
            if fault.exc is not None:
                raise fault.exc
            raise InjectedFault(f"injected UDF fault: {detail}")

    def fire_boundary(self, sql_type: Any) -> None:
        """Hook run on each C -> Python conversion; raises to inject."""
        for fault in self._boundary_faults:
            if fault.remaining <= 0:
                continue
            if fault.sql_type is not None and fault.sql_type is not sql_type:
                continue
            fault.remaining -= 1
            self.fired += 1
            self.log.append(("boundary", str(sql_type)))
            raise InjectedFault(
                f"injected boundary fault converting {sql_type}"
            )

    def worker_fault(self, names: Sequence[str]) -> Optional[dict]:
        """Hook consulted by the worker pool per batch dispatch.

        Returns the sabotage spec shipped to (and executed inside) the
        worker process, or ``None`` when no fault matches.
        """
        lowered = None
        for fault in self._worker_faults:
            if fault.remaining <= 0:
                continue
            if fault.udf is not None:
                if lowered is None:
                    lowered = [n.lower() for n in names]
                if fault.udf not in lowered:
                    continue
            fault.remaining -= 1
            self.fired += 1
            self.log.append(("worker", f"{fault.mode}:{fault.udf or '*'}"))
            spec = {"mode": fault.mode}
            if fault.seconds is not None:
                spec["seconds"] = fault.seconds
            if fault.alloc_bytes is not None:
                spec["bytes"] = fault.alloc_bytes
            return spec
        return None

    def durability_fault(self, stage: str) -> Optional[dict]:
        """Hook consulted by the WAL/checkpoint writers per fault point.

        Returns the crash spec (``{"stage", "cut", "action"}``) when an
        armed fault matches this occurrence of ``stage``, else ``None``.
        The caller performs the torn write itself (it owns the file) and
        then executes the action — raising
        :class:`~repro.errors.SimulatedCrash` or SIGKILLing itself.
        """
        count = self.durability_counts.get(stage, 0)
        self.durability_counts[stage] = count + 1
        for fault in self._durability_faults:
            if fault.fired or fault.stage != stage or fault.at != count:
                continue
            fault.fired = True
            self.fired += 1
            self.log.append(("durability", f"{stage}@{count}"))
            return {"stage": stage, "cut": fault.cut, "action": fault.action}
        return None


#: Module-level alias for the durability crash stages.
DURABILITY_STAGES = FaultInjector.DURABILITY_STAGES

#: Module-level alias for the replication crash stages.
REPLICATION_STAGES = FaultInjector.REPLICATION_STAGES


@contextlib.contextmanager
def inject(injector: Optional[FaultInjector] = None):
    """Arm ``FAULTS`` with ``injector`` for the duration of the block."""
    injector = injector if injector is not None else FaultInjector()
    runtime.FAULTS.arm(injector)
    try:
        yield injector
    finally:
        runtime.FAULTS.disarm()


def _poison_definition(definition: UdfDefinition) -> UdfDefinition:
    """A copy of ``definition`` whose every entry point raises."""
    name = definition.name

    def poisoned(*args, **kwargs):
        raise PoisonedTraceError(f"poisoned trace {name!r}")

    if definition.kind is UdfKind.AGGREGATE:
        class PoisonedAggregate:
            def step(self, *args):
                raise PoisonedTraceError(f"poisoned trace {name!r}")

            def final(self):
                raise PoisonedTraceError(f"poisoned trace {name!r}")

        return dataclasses.replace(definition, func=PoisonedAggregate)

    replacements = {"func": poisoned}
    if definition.scalar_batch_func is not None:
        replacements["scalar_batch_func"] = poisoned
    if definition.expand_batch_func is not None:
        replacements["expand_batch_func"] = poisoned
    if definition.lineage_func is not None:
        replacements["lineage_func"] = poisoned
    return dataclasses.replace(definition, **replacements)


def poison_traces(
    qfusor: Any, names: Optional[Iterable[str]] = None
) -> List[str]:
    """Corrupt cached fused traces so their next execution raises.

    Models a stale or corrupt trace cache: every cached entry (or just
    those in ``names``) is replaced by a version raising
    :class:`PoisonedTraceError`, and any live engine registration under
    the same name is re-registered poisoned.  Returns the poisoned
    fused-UDF names.  The de-optimization guard must invalidate these
    entries and recover through the unfused path.
    """
    wanted = {n.lower() for n in names} if names is not None else None
    poisoned_names = []
    for key, fused in qfusor.cache.entries():
        name = fused.definition.name
        if wanted is not None and name not in wanted:
            continue
        poisoned = _poison_definition(fused.definition)
        qfusor.cache.replace(
            key, dataclasses.replace(fused, definition=poisoned)
        )
        if name in qfusor.adapter.registry:
            qfusor.adapter.register_udf(poisoned, replace=True)
        poisoned_names.append(name)
    return poisoned_names
