"""Process-isolated UDF worker pool with supervision and quarantine.

The row-store deployment models PostgreSQL's out-of-process PL/Python
boundary.  :class:`~repro.udf.registry.ProcessChannel` models its
*serialization* cost in-process; this module supplies the *process*
half: a supervised pool of real ``multiprocessing`` workers that UDF
batches execute in, with real crash semantics.  Every batch crosses the
pipe as one pickle of its arguments and one pickle of its result.

Supervision model (one :class:`WorkerPool` per adapter):

* **lifecycle** — workers start lazily on first use and are restarted
  on death with exponential backoff, up to a pool-wide
  ``max_restarts`` budget; exhausting the budget breaks the pool,
  which then degrades every batch to in-process execution (or fails
  fast, per ``quarantine_policy``);
* **heartbeats** — a supervisor thread pings idle workers every
  ``heartbeat_interval_s``; a worker that misses ``heartbeat_timeout_s``
  is presumed wedged and killed (restart happens lazily on next use);
* **memory caps** — each worker applies ``resource.setrlimit(RLIMIT_AS)``
  at startup when ``memory_limit_mb`` is set, so a runaway allocation
  kills only that worker;
* **hang handling** — a batch that exceeds its governance-derived
  deadline slack (``min`` of the query deadline remaining, the per-batch
  UDF cap, and the pool's own ``batch_timeout_s``) gets its worker
  SIGKILLed and surfaces as a ``kind="hang"`` crash;
* **crash containment** — a worker dying mid-batch (SIGKILL,
  ``os._exit``, OOM) raises a typed
  :class:`~repro.errors.WorkerCrashError`; the batch is retried on a
  fresh worker, and a batch that crashes ``max_batch_retries`` workers
  is *quarantined*: depending on policy it degrades to in-process
  execution (default) or raises
  :class:`~repro.errors.BatchQuarantinedError`.

Deadlines propagate *into* workers: each call carries the governed
query's remaining slack, and the worker activates a
:class:`~repro.resilience.governor.QueryContext` around the batch so
both the cooperative checkpoints in generated wrappers and the worker's
own watchdog keep enforcing the deadline on the far side of the
boundary.  Crashes charge the per-UDF circuit breakers through the
pool's ``on_crash`` hook.

The fault-injection harness (:mod:`repro.testing.faults`) plugs in via
``FAULTS.injector.worker_fault``: an armed spec makes the *worker
itself* SIGKILL mid-batch (``worker_crash``), sleep past its deadline
slack (``worker_hang``), or allocate past its rlimit (``worker_oom``) —
real signals, not mocks.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import signal
import threading
import time
import warnings
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    BatchQuarantinedError,
    WorkerCrashError,
    WorkerError,
    WorkerRestartBudgetError,
)
from ..obs import DEFAULT_BYTES_BUCKETS, METRICS, OBS
from ..obs import tracer as obs_tracer
from .governor import (
    QueryContext, cooperative_sleep, interrupt_shield, spawn_shield,
)
from .governor import current as gov_current
from .runtime import FAULTS

__all__ = [
    "WorkerPool",
    "WorkerIncident",
    "WorkerQuarantineWarning",
    "active_worker_pids",
    "shutdown_all_pools",
]

#: Exit code a worker uses when its memory rlimit is hit (hard-OOM model).
OOM_EXITCODE = 86

#: Kernel ``comm`` name workers adopt (<= 15 chars) so external tooling
#: — notably the CI orphan scan — can identify stray worker processes.
WORKER_COMM = "repro-udf-wkr"
#: Poll slice while awaiting a worker reply: short enough that parent-side
#: cancellation checks and hang kills stay responsive.
_POLL_SLICE_S = 0.02
#: Ceiling on the exponential restart backoff.
_MAX_RESTART_BACKOFF_S = 0.5


class WorkerQuarantineWarning(UserWarning):
    """Emitted when a quarantined batch degrades to in-process execution."""


class WorkerIncident:
    """One supervision event (crash, restart, quarantine, degrade...)."""

    __slots__ = ("kind", "udf", "attempt", "detail")

    def __init__(self, kind: str, udf: Optional[str] = None,
                 attempt: int = 0, detail: str = ""):
        self.kind = kind
        self.udf = udf
        self.attempt = attempt
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkerIncident({self.kind!r}, udf={self.udf!r}, "
                f"attempt={self.attempt}, detail={self.detail!r})")


# ----------------------------------------------------------------------
# Worker-side entry point
# ----------------------------------------------------------------------


def _apply_memory_limit(limit_bytes: Optional[int]) -> None:
    if not limit_bytes:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    except (ValueError, OSError):  # pragma: no cover - cap below usage
        pass


def _worker_sabotage(fault: Dict[str, Any]) -> None:
    """Execute an injected worker fault — real signals, mid-batch."""
    mode = fault.get("mode")
    if mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        # Sleep far past any plausible deadline slack; the supervisor
        # kills us first.  Bounded so a disabled timeout cannot wedge
        # a suite forever.
        time.sleep(float(fault.get("seconds", 60.0)))
    elif mode == "oom":
        # Allocate past RLIMIT_AS.  The resulting MemoryError is treated
        # as fatal below (_serve) — a worker whose allocator failed is
        # not trustworthy enough to keep serving batches.
        sink = []
        target = int(fault.get("bytes", 1 << 34))
        while sum(len(b) for b in sink) < target:
            sink.append(bytearray(min(target, 1 << 26)))


def _exc_reply(exc: BaseException) -> Tuple[str, Any]:
    """Build the error reply for ``exc``, verified round-trippable."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)  # some exception types pickle but fail to load
        return ("err", blob)
    except (pickle.PickleError, TypeError, ValueError, AttributeError,
            EOFError, ImportError):
        return ("err_repr", type(exc).__name__, repr(exc))


def _worker_execute(definition, wrapper, kind: str, args: tuple,
                    slack: Optional[float]) -> Any:
    """Run one batch, governed by the propagated deadline slack."""
    from . import governor

    def dispatch() -> Any:
        if kind == "scalar":
            c_inputs, size = args
            return wrapper.entry(c_inputs, size)
        if kind == "value":
            return definition.func(*args)
        if kind == "aggregate":
            c_inputs, size, group_ids, num_groups = args
            return wrapper.entry(c_inputs, size, group_ids, num_groups)
        if kind == "table":
            c_inputs, size, in_types, const_args = args
            return wrapper.entry(c_inputs, size, in_types, const_args)
        if kind == "table_expand":
            c_inputs, size, in_types, const_args = args
            return wrapper.expand_entry(c_inputs, size, in_types, const_args)
        raise WorkerError(f"unknown worker call kind {kind!r}")

    if slack is None:
        return dispatch()
    context = QueryContext(timeout_s=slack)
    with governor.activate(context):
        return dispatch()


def _worker_main(conn, memory_limit_bytes: Optional[int]) -> None:
    """The worker process body: serve install/call/ping until EOF."""
    from . import governor
    from .. import obs

    # A forked child inherits the parent's observability state, armed
    # fault hook, and a watchdog whose thread did not survive the fork;
    # reset all three so the worker starts clean.
    obs.disable()
    FAULTS.disarm()
    governor.WATCHDOG = governor.Watchdog()
    _apply_memory_limit(memory_limit_bytes)
    try:
        # Make workers identifiable from outside the interpreter so the
        # CI orphan scan (scripts/check_worker_orphans.py) can find any
        # process that outlives its pool.  Linux-only; 15-char comm cap.
        with open("/proc/self/comm", "w") as fh:
            fh.write(WORKER_COMM)
    except OSError:  # pragma: no cover - non-Linux
        pass

    installed: Dict[str, Tuple[int, Any, Any]] = {}
    try:
        _serve(conn, installed)
    except (EOFError, OSError):
        pass  # parent went away: exit quietly
    except MemoryError:
        # The rlimit was hit somewhere we could not contain (allocation
        # inside pickle, the pipe, or the UDF itself): model a hard OOM
        # kill.  os._exit skips interpreter teardown, which might itself
        # need memory we no longer have.
        os._exit(OOM_EXITCODE)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass


def _serve(conn, installed: Dict[str, Tuple[int, Any, Any]]) -> None:
    from ..udf.wrappers import build_wrapper

    while True:
        msg = conn.recv()
        op = msg[0]
        if op == "exit":
            return
        if op == "ping":
            conn.send(("pong", msg[1]))
            continue
        if op == "install":
            _, name, version, blob = msg
            try:
                definition = pickle.loads(blob)
                wrapper = build_wrapper(definition)
                installed[name] = (version, definition, wrapper)
                conn.send(("installed", name, version))
            except MemoryError:
                raise
            except BaseException as exc:  # install must answer, not wedge
                conn.send(_exc_reply(exc))
            continue
        if op == "call":
            _, name, version, kind, args_blob, slack, fault = msg
            entry = installed.get(name)
            if entry is None or entry[0] != version:
                conn.send(("err_repr", "WorkerError",
                           f"UDF {name!r} v{version} not installed"))
                continue
            _, definition, wrapper = entry
            try:
                if fault is not None:
                    _worker_sabotage(fault)
                result = _worker_execute(definition, wrapper, kind,
                                         pickle.loads(args_blob), slack)
                conn.send(("ok", pickle.dumps(result)))
            except MemoryError:
                raise
            except BaseException as exc:
                conn.send(_exc_reply(exc))
            continue
        conn.send(("err_repr", "WorkerError", f"unknown op {op!r}"))


# ----------------------------------------------------------------------
# Parent-side handles
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side view of one worker process: pipe, lock, liveness."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        #: Serializes pipe access (submit vs heartbeat supervisor).
        self.lock = threading.Lock()
        #: Claimed by a submit (checked under the pool condition).
        self.busy = False
        self.generation = 0
        self.consecutive_failures = 0
        self.last_seen = 0.0
        #: (name -> version) definitions this worker has installed.
        self.installed: Dict[str, int] = {}

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> Optional[int]:
        """Tear the worker down hard; returns its exit code if known."""
        process, conn = self.process, self.conn
        self.process, self.conn = None, None
        self.installed.clear()
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if process is None:
            return None
        # Shielded: this often runs as a deadline's unwind, and the
        # watchdog's refire landing mid-reap would lose the exit status.
        with interrupt_shield():
            if process.is_alive():
                process.kill()
            process.join(timeout=2.0)
            exitcode = process.exitcode
            # Release the Process object's pipe/sentinel resources.
            if hasattr(process, "close") and exitcode is not None:
                process.close()
        return exitcode


class _WireUdf:
    """A definition prepared for the wire: version + pickled blob."""

    __slots__ = ("definition", "version", "blob")

    def __init__(self, definition: Any, version: int, blob: Optional[bytes]):
        self.definition = definition
        self.version = version
        self.blob = blob  # None: unpicklable, always falls back in-process


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

#: Live pools, for the atexit sweep and the test-suite orphan check.
_ALL_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def shutdown_all_pools() -> None:
    """Shut down every live pool (atexit hook; idempotent)."""
    for pool in list(_ALL_POOLS):
        pool.shutdown()


def active_worker_pids() -> List[int]:
    """PIDs of all live workers across pools (test orphan assertions)."""
    pids: List[int] = []
    for pool in list(_ALL_POOLS):
        pids.extend(pool.pids())
    return pids


atexit.register(shutdown_all_pools)


class WorkerPool:
    """A supervised pool of UDF worker processes.

    ``run_batch`` is the single entry point: it routes one UDF batch to
    a worker, retrying crashes on fresh workers and applying the
    quarantine policy when the same batch keeps killing them.
    ``fallback`` is the in-process execution of the same batch, used by
    the ``degrade`` policy (and for definitions that cannot cross the
    process boundary, e.g. runtime-generated fused traces whose compiled
    bodies do not pickle).
    """

    def __init__(
        self,
        *,
        pool_size: int = 2,
        max_restarts: int = 16,
        restart_backoff_s: float = 0.01,
        memory_limit_mb: Optional[int] = None,
        max_batch_retries: int = 2,
        quarantine_policy: str = "degrade",
        batch_timeout_s: Optional[float] = None,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 1.0,
        start_method: Optional[str] = None,
        max_incidents: int = 256,
    ):
        if quarantine_policy not in ("degrade", "fail"):
            raise ValueError(
                f"unknown quarantine policy {quarantine_policy!r}"
            )
        self.pool_size = max(1, int(pool_size))
        self.max_restarts = max(0, int(max_restarts))
        self.restart_backoff_s = restart_backoff_s
        self.memory_limit_mb = memory_limit_mb
        self.max_batch_retries = max(1, int(max_batch_retries))
        self.quarantine_policy = quarantine_policy
        self.batch_timeout_s = batch_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_incidents = max(1, int(max_incidents))
        import multiprocessing

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._mp = multiprocessing.get_context(start_method)
        self.start_method = start_method

        self._workers = [_WorkerHandle(i) for i in range(self.pool_size)]
        self._cond = threading.Condition()
        self._lock = threading.Lock()  # stats / incidents / wire cache
        self._wire: Dict[int, _WireUdf] = {}
        self._next_version = 1
        self._ping_seq = 0
        self._supervisor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        self._broken = False
        #: Quarantined batch fingerprints -> crash count at quarantine.
        self.quarantined: Dict[str, int] = {}
        #: Crash counts per live (not yet quarantined) batch fingerprint.
        self._batch_crashes: Dict[str, int] = {}
        #: Bounded supervision log; overflow counted in incidents_dropped.
        self.incidents: List[WorkerIncident] = []
        self.incidents_dropped = 0
        # -- counters (under self._lock) --
        self.restarts = 0
        self.crashes = 0
        self.degraded = 0
        self.batches = 0
        self.heartbeat_failures = 0
        #: Cumulative pickled bytes shipped across the pipe (both
        #: directions) and the last batch's ``sent``/``received``.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_batch_bytes: Optional[Dict[str, Any]] = None
        #: Submits currently waiting for a free worker (queue depth).
        self.queue_depth = 0
        #: Charged per worker crash: ``on_crash(udf_name, elapsed_s,
        #: tuples=..., fused_from=...)`` — wired to the registry's
        #: circuit-breaker board by the adapter.
        self.on_crash: Optional[Callable[..., None]] = None
        _ALL_POOLS.add(self)

    # -- configuration -------------------------------------------------

    def configure(self, **knobs: Any) -> None:
        """Apply supervision knobs; ``None`` values leave the pool's
        current setting untouched."""
        allowed = (
            "max_restarts", "restart_backoff_s", "memory_limit_mb",
            "max_batch_retries", "quarantine_policy", "batch_timeout_s",
            "heartbeat_interval_s", "heartbeat_timeout_s",
        )
        for key, value in knobs.items():
            if key not in allowed:
                raise AttributeError(f"unknown worker-pool knob {key!r}")
            if value is not None:
                setattr(self, key, value)
        if self.quarantine_policy not in ("degrade", "fail"):
            raise ValueError(
                f"unknown quarantine policy {self.quarantine_policy!r}"
            )

    # -- introspection -------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether batches are still being routed to workers."""
        return not (self._closed or self._broken)

    @property
    def broken(self) -> bool:
        return self._broken

    def pids(self) -> List[int]:
        return [
            w.process.pid for w in self._workers
            if w.process is not None and w.process.is_alive()
        ]

    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each live worker was last heard from."""
        now = time.monotonic()
        return {
            w.index: now - w.last_seen
            for w in self._workers if w.alive() and w.last_seen
        }

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pool_size": self.pool_size,
                "alive": len(self.pids()),
                "restarts": self.restarts,
                "crashes": self.crashes,
                "degraded": self.degraded,
                "batches": self.batches,
                "queue_depth": self.queue_depth,
                "heartbeat_failures": self.heartbeat_failures,
                "quarantined": len(self.quarantined),
                "broken": self._broken,
                "incidents_dropped": self.incidents_dropped,
            }

    def drain_incidents(self) -> List[WorkerIncident]:
        """Return and clear the incident log (per-query report drain)."""
        with self._lock:
            drained, self.incidents = self.incidents, []
        return drained

    def _record(self, kind: str, udf: Optional[str] = None,
                attempt: int = 0, detail: str = "") -> None:
        with self._lock:
            if len(self.incidents) >= self.max_incidents:
                self.incidents.pop(0)
                self.incidents_dropped += 1
            self.incidents.append(WorkerIncident(kind, udf, attempt, detail))
        if OBS.tracing:
            obs_tracer.add_event(
                f"worker_{kind}", udf=udf, attempt=attempt, detail=detail
            )

    # -- lifecycle -----------------------------------------------------

    def _ensure_supervisor(self) -> None:
        if self._supervisor is not None and self._supervisor.is_alive():
            return
        self._stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-worker-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    def _start_worker(self, worker: _WorkerHandle) -> None:
        """Fork one worker, charging the restart budget after the first
        start and sleeping the exponential backoff cooperatively."""
        with self._lock:
            is_restart = worker.generation > 0
            if is_restart:
                if self.restarts >= self.max_restarts:
                    self._broken = True
                else:
                    self.restarts += 1
            if self._broken:
                raise WorkerRestartBudgetError(
                    restarts=self.restarts, budget=self.max_restarts
                )
        if is_restart:
            backoff = min(
                self.restart_backoff_s * (2 ** worker.consecutive_failures),
                _MAX_RESTART_BACKOFF_S,
            )
            cooperative_sleep(backoff)
            if OBS.metrics:
                METRICS.counter("repro_worker_restarts_total").inc()
            self._record("restart", attempt=worker.consecutive_failures)
        limit_bytes = (
            self.memory_limit_mb * (1 << 20)
            if self.memory_limit_mb else None
        )
        # Shielded: a watchdog interrupt landing between the fork and
        # the handle recording the child would orphan a live worker that
        # no ``kill``/``shutdown`` can reach (and ``_ensure_supervisor``
        # starts a thread).  A held interrupt is raised on exit.
        with spawn_shield():
            parent_conn, child_conn = self._mp.Pipe(duplex=True)
            process = self._mp.Process(
                target=_worker_main,
                args=(child_conn, limit_bytes),
                name=f"repro-udf-worker-{worker.index}",
                daemon=True,
            )
            process.start()
            child_conn.close()  # the child's end lives only in the child
            worker.process = process
            worker.conn = parent_conn
            worker.generation += 1
            worker.installed.clear()
            worker.last_seen = time.monotonic()
            self._ensure_supervisor()

    def shutdown(self) -> None:
        """Stop the supervisor and tear down every worker.  Idempotent;
        guaranteed to leave no live children behind."""
        self._closed = True
        self._stop.set()
        supervisor = self._supervisor
        if supervisor is not None and supervisor.is_alive():
            supervisor.join(timeout=2.0)
        for worker in self._workers:
            with worker.lock:
                process, conn = worker.process, worker.conn
                if conn is not None and process is not None \
                        and process.is_alive():
                    try:
                        conn.send(("exit",))
                        process.join(timeout=0.5)
                    except (OSError, BrokenPipeError, ValueError):
                        pass
                worker.kill()
        with self._cond:
            self._cond.notify_all()

    # -- heartbeat supervision -----------------------------------------

    def _supervise(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            for worker in self._workers:
                if self._stop.is_set():
                    return
                self._heartbeat(worker)

    def _heartbeat(self, worker: _WorkerHandle) -> None:
        if worker.busy or worker.process is None:
            return
        if not worker.lock.acquire(blocking=False):
            return  # a submit just claimed it
        try:
            if worker.busy or worker.conn is None:
                return
            if not worker.alive():
                # Died while idle (external kill, OOM killer): notice it
                # here rather than on the next batch.
                self._heartbeat_failed(worker, "worker died while idle")
                return
            with self._lock:
                self._ping_seq += 1
                seq = self._ping_seq
            try:
                worker.conn.send(("ping", seq))
                if not worker.conn.poll(self.heartbeat_timeout_s):
                    raise OSError("heartbeat timed out")
                reply = worker.conn.recv()
                if reply != ("pong", seq):
                    raise OSError(f"bad heartbeat reply {reply!r}")
            except (OSError, EOFError, BrokenPipeError, ValueError):
                self._heartbeat_failed(worker, "worker unresponsive")
                return
            worker.last_seen = time.monotonic()
            if OBS.metrics:
                for age in self.heartbeat_ages().values():
                    METRICS.histogram(
                        "repro_worker_heartbeat_age_seconds"
                    ).observe(age)
        finally:
            worker.lock.release()

    def _heartbeat_failed(self, worker: _WorkerHandle, detail: str) -> None:
        """Account a heartbeat failure and tear the worker down (caller
        holds ``worker.lock``); the next batch lazily restarts it."""
        with self._lock:
            self.heartbeat_failures += 1
        if OBS.metrics:
            METRICS.counter("repro_worker_heartbeat_failures_total").inc()
        self._record("heartbeat", detail=detail)
        worker.kill()

    # -- batch execution -----------------------------------------------

    def run_batch(
        self,
        definition: Any,
        kind: str,
        args: tuple,
        *,
        fallback: Callable[[], Any],
        size: int = 1,
    ) -> Any:
        """Execute one UDF batch on a worker (see class docstring)."""
        name = definition.name
        if self._closed:
            return self._fallback(fallback)
        if self._broken:
            if self.quarantine_policy == "fail":
                raise WorkerRestartBudgetError(
                    restarts=self.restarts, budget=self.max_restarts
                )
            return self._degrade(name, "restart budget exhausted", fallback)
        wire = self._wire_for(definition)
        if wire.blob is None:
            # The definition cannot cross a process boundary (runtime-
            # generated fused trace): run it in-process, recorded once.
            return self._fallback(fallback)
        try:
            args_blob = pickle.dumps(args)
        except (pickle.PickleError, TypeError, AttributeError,
                ValueError) as exc:
            self._record("unpicklable", name, detail=f"args: {exc!r}")
            return self._fallback(fallback)
        fingerprint = self._fingerprint(name, kind, args_blob)
        quarantine_crashes = self.quarantined.get(fingerprint)
        if quarantine_crashes is not None:
            return self._quarantine_outcome(
                name, fingerprint, quarantine_crashes, fallback
            )
        fused_from = tuple(getattr(definition, "fused_from", ()) or ())
        context = gov_current()
        while True:
            if context is not None:
                context.check()
            try:
                result = self._dispatch_once(
                    wire, name, kind, args_blob, context
                )
            except WorkerCrashError as exc:
                crashes = self._note_crash(
                    name, fingerprint, exc, size, fused_from
                )
                if context is not None:
                    # A query whose deadline has passed must surface the
                    # timeout, not burn its remaining slack on retries.
                    context.check()
                if crashes >= self.max_batch_retries:
                    with self._lock:
                        self.quarantined[fingerprint] = crashes
                        self._batch_crashes.pop(fingerprint, None)
                    if OBS.metrics:
                        METRICS.counter(
                            "repro_worker_quarantine_total", udf=name
                        ).inc()
                    self._record(
                        "quarantine", name, attempt=crashes,
                        detail=str(exc),
                    )
                    return self._quarantine_outcome(
                        name, fingerprint, crashes, fallback, exc
                    )
                continue  # retry on a fresh worker
            except WorkerRestartBudgetError as exc:
                self._record("budget", name, detail=str(exc))
                if self.quarantine_policy == "fail":
                    raise
                return self._degrade(name, str(exc), fallback)
            with self._lock:
                self.batches += 1
            if OBS.metrics:
                METRICS.counter(
                    "repro_worker_batches_total", path="worker"
                ).inc()
            return result

    # -- internals -----------------------------------------------------

    def _fallback(self, fallback: Callable[[], Any]) -> Any:
        if OBS.metrics:
            METRICS.counter(
                "repro_worker_batches_total", path="in_process"
            ).inc()
        return fallback()

    def _degrade(self, name: str, reason: str,
                 fallback: Callable[[], Any]) -> Any:
        with self._lock:
            self.degraded += 1
        self._record("degrade", name, detail=reason)
        if OBS.metrics:
            METRICS.counter("repro_worker_degraded_total").inc()
        return self._fallback(fallback)

    def _quarantine_outcome(
        self,
        name: str,
        fingerprint: str,
        crashes: int,
        fallback: Callable[[], Any],
        cause: Optional[BaseException] = None,
    ) -> Any:
        if self.quarantine_policy == "fail":
            error = BatchQuarantinedError(
                udf_name=name, crashes=crashes, fingerprint=fingerprint
            )
            if cause is not None:
                raise error from cause
            raise error
        warnings.warn(
            f"batch of UDF {name!r} quarantined after {crashes} worker "
            f"crashes; degrading to in-process execution",
            WorkerQuarantineWarning,
            stacklevel=3,
        )
        return self._degrade(name, f"quarantined after {crashes} crashes",
                             fallback)

    def _note_crash(self, name: str, fingerprint: str,
                    exc: WorkerCrashError, size: int,
                    fused_from: Tuple[str, ...]) -> int:
        with self._lock:
            self.crashes += 1
            crashes = self._batch_crashes.get(fingerprint, 0) + 1
            self._batch_crashes[fingerprint] = crashes
            if len(self._batch_crashes) > 1024:
                # Bounded: evict the oldest live fingerprint.
                self._batch_crashes.pop(next(iter(self._batch_crashes)))
        if OBS.metrics:
            METRICS.counter(
                "repro_worker_crashes_total", kind=exc.kind
            ).inc()
        self._record(exc.kind, name, attempt=crashes, detail=str(exc))
        if self.on_crash is not None:
            self.on_crash(name, 0.0, tuples=size, fused_from=fused_from)
        return crashes

    @staticmethod
    def _fingerprint(name: str, kind: str, args_blob: bytes) -> str:
        digest = hashlib.md5(args_blob).hexdigest()[:16]
        return f"{name}:{kind}:{digest}"

    def _wire_for(self, definition: Any) -> _WireUdf:
        key = id(definition)
        with self._lock:
            wire = self._wire.get(key)
            if wire is not None and wire.definition is definition:
                return wire
        try:
            blob: Optional[bytes] = pickle.dumps(definition)
        except (pickle.PickleError, TypeError, AttributeError,
                ValueError) as exc:
            blob = None
            self._record(
                "unpicklable", getattr(definition, "name", None),
                detail=repr(exc),
            )
            if OBS.metrics:
                METRICS.counter("repro_worker_unpicklable_total").inc()
        with self._lock:
            version = self._next_version
            self._next_version += 1
            wire = _WireUdf(definition, version, blob)
            self._wire[key] = wire
        return wire

    def _acquire(self, context: Optional[QueryContext]) -> _WorkerHandle:
        """Claim an idle worker slot, cooperatively interruptible."""
        with self._cond:
            self.queue_depth += 1
            try:
                if OBS.metrics:
                    METRICS.histogram(
                        "repro_worker_queue_depth",
                        (0, 1, 2, 4, 8, 16, 32),
                    ).observe(self.queue_depth - 1)
                while True:
                    if self._closed:
                        raise WorkerError("worker pool is shut down")
                    for worker in self._workers:
                        if not worker.busy:
                            worker.busy = True
                            return worker
                    self._cond.wait(0.05)
                    if context is not None:
                        context.check()
            finally:
                self.queue_depth -= 1

    def _release(self, worker: _WorkerHandle) -> None:
        with self._cond:
            worker.busy = False
            self._cond.notify()

    def _slack(self, context: Optional[QueryContext]) -> Tuple[
            Optional[float], Optional[float]]:
        """(kill_after, worker_deadline): the parent-side hang-kill
        budget and the deadline slack propagated into the worker."""
        candidates = []
        worker_deadline = None
        if self.batch_timeout_s is not None:
            candidates.append(self.batch_timeout_s)
        if context is not None:
            remaining = context.remaining()
            if remaining is not None:
                remaining = max(0.0, remaining)
                candidates.append(remaining)
                worker_deadline = remaining
            if context.udf_batch_timeout_s is not None:
                candidates.append(context.udf_batch_timeout_s)
        kill_after = min(candidates) if candidates else None
        return kill_after, worker_deadline

    def _injected_fault(self, name: str,
                        fused_from: Tuple[str, ...] = ()) -> Optional[dict]:
        if FAULTS.armed and FAULTS.injector is not None:
            hook = getattr(FAULTS.injector, "worker_fault", None)
            if hook is not None:
                return hook((name,) + tuple(fused_from))
        return None

    def _account_bytes(self, sent: int, received: int) -> None:
        with self._lock:
            self.bytes_sent += sent
            self.bytes_received += received
            self.last_batch_bytes = {"sent": sent, "received": received}
        if OBS.metrics:
            METRICS.histogram(
                "repro_worker_boundary_bytes", DEFAULT_BYTES_BUCKETS,
                direction="send",
            ).observe(sent)
            METRICS.histogram(
                "repro_worker_boundary_bytes", DEFAULT_BYTES_BUCKETS,
                direction="recv",
            ).observe(received)

    def _dispatch_once(
        self,
        wire: _WireUdf,
        name: str,
        kind: str,
        args_blob: bytes,
        context: Optional[QueryContext],
    ) -> Any:
        worker = self._acquire(context)
        try:
            with worker.lock:
                if not worker.alive():
                    self._start_worker(worker)
                try:
                    self._install_on(worker, name, wire)
                    kill_after, worker_deadline = self._slack(context)
                    fault = self._injected_fault(
                        name, tuple(getattr(wire.definition,
                                            "fused_from", ()) or ()),
                    )
                    worker.conn.send((
                        "call", name, wire.version, kind, args_blob,
                        worker_deadline, fault,
                    ))
                    reply = self._await_reply(worker, kill_after, context,
                                              name)
                except (OSError, EOFError, BrokenPipeError) as exc:
                    raise self._crash(worker, name, "crash", exc)
                except WorkerCrashError:
                    raise
                except BaseException:
                    # Anything else unwinding mid-call (a governance
                    # interrupt landing on this thread, an unexpected
                    # protocol error) leaves the worker's state unknown:
                    # kill it so a stale reply can never desynchronize
                    # the next batch.  Restart is lazy.
                    worker.kill()
                    worker.consecutive_failures += 1
                    raise
            worker.consecutive_failures = 0
            worker.last_seen = time.monotonic()
            result = self._decode_reply(reply, name)
            # Only an ``("ok", blob)`` reply decodes without raising.
            self._account_bytes(len(args_blob), len(reply[1]))
            return result
        finally:
            self._release(worker)

    def _install_on(self, worker: _WorkerHandle, name: str,
                    wire: _WireUdf) -> None:
        if worker.installed.get(name) == wire.version:
            return
        worker.conn.send(("install", name, wire.version, wire.blob))
        if not worker.conn.poll(10.0):
            raise OSError("install timed out")
        reply = worker.conn.recv()
        if reply[0] != "installed":
            self._decode_reply(reply, name)  # raises
            raise WorkerError(f"unexpected install reply {reply!r}")
        worker.installed[name] = wire.version

    def _await_reply(self, worker: _WorkerHandle,
                     kill_after: Optional[float],
                     context: Optional[QueryContext],
                     name: str) -> tuple:
        deadline = (
            time.monotonic() + kill_after if kill_after is not None else None
        )
        while True:
            if self._closed:
                raise self._crash(
                    worker, name, "crash",
                    WorkerError("pool shut down mid-batch"),
                )
            slice_s = _POLL_SLICE_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise self._crash(
                        worker, name, "hang",
                        TimeoutError(
                            f"batch exceeded {kill_after:.3g}s deadline "
                            f"slack"
                        ),
                    )
                slice_s = min(slice_s, remaining)
            if worker.conn.poll(max(slice_s, 0.001)):
                return worker.conn.recv()
            if context is not None:
                context.check()  # cancellation interrupts the wait

    def _crash(self, worker: _WorkerHandle, name: str, kind: str,
               cause: BaseException) -> WorkerCrashError:
        pid = worker.process.pid if worker.process is not None else None
        exitcode = worker.kill()
        worker.consecutive_failures += 1
        if kind == "crash" and exitcode == OOM_EXITCODE:
            kind = "oom"
        error = WorkerCrashError(
            udf_name=name, kind=kind, exitcode=exitcode, pid=pid,
        )
        error.__cause__ = cause
        return error

    def _decode_reply(self, reply: tuple, name: str) -> Any:
        tag = reply[0]
        if tag == "ok":
            return pickle.loads(reply[1])
        if tag == "err":
            raise pickle.loads(reply[1])
        if tag == "err_repr":
            _, type_name, detail = reply
            raise WorkerError(
                f"UDF {name!r} failed in worker with unpicklable "
                f"{type_name}: {detail}"
            )
        raise WorkerError(f"unexpected worker reply {reply!r}")
