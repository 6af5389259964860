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
``durability_crash``
    Crash the writer (raise ``SimulatedCrash``, or SIGKILL it) at a WAL,
    checkpoint or replication fault point.  :data:`FAULT_POINTS` lists
    them, with the rules the crash and failover harnesses draw them by.

:func:`inject` arms :data:`repro.resilience.runtime.FAULTS` for the
duration of a ``with`` block; :func:`poison_traces` swaps cached fused
traces for versions that raise, modelling a stale/corrupt trace cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import UdfExecutionError
from ..resilience import runtime
from ..udf.definition import UdfDefinition, UdfKind

__all__ = [
    "InjectedFault",
    "PoisonedTraceError",
    "FaultInjector",
    "FaultPoint",
    "FAULT_POINTS",
    "DURABILITY_STAGES",
    "REPLICATION_STAGES",
    "PRIMARY_STAGES",
    "ALL_STAGES",
    "draw_fault",
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

    def durability_crash(
        self,
        stage: str,
        *,
        at: int = 0,
        cut: Optional[int] = None,
        action: str = "raise",
    ) -> "FaultInjector":
        """Crash the process at a durability fault point.

        ``stage`` is a row of :data:`FAULT_POINTS`; ``at`` selects the
        n-th (0-based) time that stage is reached; ``cut`` (where the
        stage supports it) writes only the first ``cut`` bytes of the
        frame/file first — a torn write.  ``action`` is ``"raise"``
        (raise :class:`~repro.errors.SimulatedCrash`, for the in-process
        harness) or ``"kill"`` (``SIGKILL`` the calling process, for the
        subprocess harness — a real mid-write death).
        """
        if stage not in FAULT_POINTS:
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


class FaultPoint(NamedTuple):
    """One durability or replication fault point, and how rounds draw it."""

    stage: str
    #: ``"durability"``, or the replication side that reaches it:
    #: ``"primary"`` or ``"standby"``.
    side: str
    #: Occurrences ``at`` is drawn from: ``None`` any op of the workload,
    #: ``n`` the first ``n``; ``1`` is always the first, with no RNG draw.
    span: Optional[int]
    #: A byte ``cut`` may tear the write.
    tearable: bool


#: Every fault point.  Row order is draw order: the stage views below
#: keep it, and :func:`draw_fault` picks a stage with ``rng.choice`` over
#: a view, so moving a row reseeds every crash and failover round.
FAULT_POINTS = {point.stage: point for point in (
    # A WAL frame write (a cut tears the frame), and a crash before its
    # fsync returns: the frame may be on disk but was never acknowledged.
    FaultPoint("wal_append", "durability", None, True),
    FaultPoint("wal_fsync", "durability", None, False),
    # The atomic checkpoint install: mid temp-file write, before
    # ``os.replace``, and after it but before the WAL is reset.  These
    # occur once per threshold crossing, so rounds target the first few.
    FaultPoint("checkpoint_write", "durability", 3, True),
    FaultPoint("checkpoint_replace", "durability", 3, False),
    FaultPoint("checkpoint_reset", "durability", 3, False),
    # The post-checkpoint log reset, between the truncate and the new
    # header (a cut tears the header): the window that loses ``base_lsn``.
    FaultPoint("wal_reset", "durability", 3, True),
    # The primary's sender loop mid-frame (a cut tears the wire bytes),
    # and its HELLO/WELCOME exchange.
    FaultPoint("repl_send", "primary", None, True),
    FaultPoint("repl_handshake", "primary", 1, False),
    # Promotion after the listener closes but before the bumped fencing
    # term is durable, and the standby's shipped-checkpoint install after
    # its spool file is created.
    FaultPoint("repl_promote", "standby", 1, False),
    FaultPoint("repl_install", "standby", 1, False),
)}


def _stages(*sides: str) -> Tuple[str, ...]:
    return tuple(p.stage for p in FAULT_POINTS.values() if p.side in sides)


DURABILITY_STAGES = _stages("durability")
REPLICATION_STAGES = _stages("primary", "standby")
#: The stages a writer hosting a replicating primary can die at.
PRIMARY_STAGES = _stages("durability", "primary")
ALL_STAGES = tuple(FAULT_POINTS)


def draw_fault(
    rng: random.Random, n_ops: int, stages: Sequence[str]
) -> Tuple[str, int, Optional[int]]:
    """Draw one ``(stage, at, cut)`` fault point from ``stages``.

    ``cut`` tears the write at a random byte; ``None`` lets the whole
    write land before the crash: the durable-but-unacked window.
    """
    point = FAULT_POINTS[rng.choice(stages)]
    at = 0 if point.span == 1 else rng.randrange(point.span or max(1, n_ops))
    cut = None
    if point.tearable and rng.random() < 0.7:
        cut = rng.randrange(0, 200)
    return point.stage, at, cut


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
    """A copy of ``definition`` whose every entry point raises.

    A batch entry compiled with the trace fails the whole batch the way
    a wrapper reports a failure outside any row."""
    name = definition.name

    def poisoned(*args, **kwargs):
        raise PoisonedTraceError(f"poisoned trace {name!r}")

    def poisoned_batch(*args, **kwargs):
        exc = PoisonedTraceError(f"poisoned trace {name!r}")
        raise UdfExecutionError(name, exc) from exc

    if definition.kind is UdfKind.AGGREGATE:
        class PoisonedAggregate:
            def step(self, *args):
                raise PoisonedTraceError(f"poisoned trace {name!r}")

            def final(self):
                raise PoisonedTraceError(f"poisoned trace {name!r}")

        return dataclasses.replace(definition, func=PoisonedAggregate)

    return dataclasses.replace(definition, func=poisoned, entries={
        kind: poisoned_batch for kind in definition.entries
    })


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
