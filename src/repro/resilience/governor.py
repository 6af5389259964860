"""Query lifecycle governance: deadlines, cancellation, and the watchdog.

One :class:`QueryContext` travels with a query from its
``EngineAdapter.execute_*`` entry point down through executors, JIT batch
wrappers, and the out-of-process channel.  It carries

* a **deadline** (``timeout_s``, armed when the context first activates),
* a **cancellation token** another thread may trigger at any time,
* a **row budget** charged by executor checkpoints, and
* the **per-batch UDF wall-clock cap** (``udf_batch_timeout_s``).

Enforcement is two-layered:

*Cooperative* — operator loops and generated batch loops call
:func:`checkpoint` (or iterate through :func:`guarded_iter`) every
``stride`` rows; an expired/cancelled context raises the matching
:class:`~repro.errors.QueryInterrupt` at the next checkpoint.

*Preemptive* — a singleton :class:`Watchdog` thread watches every
registered (thread, context) pair and, when a deadline or per-batch cap
passes, delivers the interrupt *asynchronously* into the running thread
via ``PyThreadState_SetAsyncExc`` — this is what terminates a UDF stuck
in a pure-Python infinite loop that never reaches a checkpoint.  The
async exception is raised bare (CPython only accepts a class); the
governance boundaries (:func:`govern`, :class:`udf_batch_guard`) annotate
it with the adapter, query, and offending UDF on the way out.

Thread model: the active context stack is **thread-local**; worker
threads (``engine.parallel``) adopt the parent's context explicitly via
:func:`activate`, each registering its own watchdog entry so runaway
work on any worker is interruptible.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import (
    AdmissionTimeoutError,
    QueryBudgetExceededError,
    QueryCancelledError,
    QueryInterrupt,
    QueryTimeoutError,
)
from ..obs import DEFAULT_WAIT_BUCKETS, METRICS, OBS
from ..obs import tracer as _obs_tracer

__all__ = [
    "CancellationToken",
    "QueryContext",
    "Watchdog",
    "WATCHDOG",
    "AdmissionGate",
    "current",
    "activate",
    "govern",
    "udf_batch_guard",
    "checkpoint",
    "cooperative_sleep",
    "guarded_iter",
    "spawn_shield",
    "interrupt_shield",
]

#: Default cooperative-checkpoint stride (rows between checks).
CHECK_STRIDE = 256


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------


class CancellationToken:
    """A thread-safe cancellation flag shared by everyone holding it."""

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        # Reason before flag: a reader that sees the flag sees the reason.
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class QueryContext:
    """Deadline + cancellation token + budgets for one query."""

    def __init__(
        self,
        *,
        timeout_s: Optional[float] = None,
        udf_batch_timeout_s: Optional[float] = None,
        row_budget: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        query: Optional[str] = None,
        tenant: Optional[str] = None,
    ):
        self.timeout_s = timeout_s
        self.udf_batch_timeout_s = udf_batch_timeout_s
        self.row_budget = row_budget
        self.token = token if token is not None else CancellationToken()
        self.query = query
        #: Owning tenant when the query arrived through the multi-tenant
        #: service front-end (repro.service); labels traces and metrics.
        self.tenant = tenant
        self.adapter: Optional[str] = None
        #: Armed on first activation so the clock starts when execution
        #: does, not when the context object is built.
        self.deadline: Optional[float] = None
        self.rows_charged = 0
        #: Set by the watchdog when it fires, for boundary annotation.
        self.timed_out_udf: Optional[str] = None
        self.timeout_kind: Optional[str] = None
        self._rows_lock = threading.Lock()
        #: Observability: the active QueryTrace (attached by govern()
        #: when tracing is on) so cross-thread governance machinery —
        #: the watchdog, breakers — can annotate the query's trace; and
        #: the per-query QFusorReport, so concurrent queries never read
        #: a neighbour's report through shared adapter state.
        self.trace = None
        self.report = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self.deadline is None and self.timeout_s is not None:
            self.deadline = time.monotonic() + self.timeout_s

    def cancel(self, reason: str = "cancelled") -> None:
        self.token.cancel(reason)

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    # -- enforcement ---------------------------------------------------

    def check(self) -> None:
        """The cooperative checkpoint: raise if cancelled or expired."""
        if self.token.cancelled:
            raise QueryCancelledError(
                reason=self.token.reason, adapter=self.adapter,
                query=self.query,
            )
        if self.expired:
            raise QueryTimeoutError(
                timeout_s=self.timeout_s,
                kind=self.timeout_kind or "query",
                udf_name=self.timed_out_udf,
                adapter=self.adapter, query=self.query,
            )

    def charge_rows(self, rows: int) -> None:
        if self.row_budget is None:
            return
        with self._rows_lock:
            self.rows_charged += rows
            charged = self.rows_charged
        if charged > self.row_budget:
            raise QueryBudgetExceededError(
                rows=charged, budget=self.row_budget,
                adapter=self.adapter, query=self.query,
            )

    def annotate(self, exc: QueryInterrupt,
                 udf_name: Optional[str] = None) -> QueryInterrupt:
        """Fill missing detail on an interrupt (bare async-raised ones)."""
        if exc.adapter is None:
            exc.adapter = self.adapter
        if exc.query is None:
            exc.query = self.query
        if isinstance(exc, QueryTimeoutError):
            if exc.udf_name is None:
                exc.udf_name = self.timed_out_udf or udf_name
            if exc.timeout_s is None:
                exc.timeout_s = (
                    self.udf_batch_timeout_s
                    if self.timeout_kind == "udf_batch" else self.timeout_s
                )
            if self.timeout_kind is not None and exc.kind == "query":
                exc.kind = self.timeout_kind
        if isinstance(exc, QueryCancelledError) and exc.reason is None:
            exc.reason = self.token.reason
        return exc


# ----------------------------------------------------------------------
# Thread-local context stack
# ----------------------------------------------------------------------


class _Local(threading.local):
    def __init__(self):
        self.stack: List[QueryContext] = []
        self.entries: List["_WatchEntry"] = []


_LOCAL = _Local()


def current() -> Optional[QueryContext]:
    """The governed context active on *this* thread, if any."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


def _current_entry() -> Optional["_WatchEntry"]:
    entries = _LOCAL.entries
    return entries[-1] if entries else None


@contextlib.contextmanager
def activate(context: QueryContext) -> Iterator[QueryContext]:
    """Make ``context`` the governed context of this thread.

    Arms the deadline (first activation only), registers this thread with
    the watchdog, and on exit absorbs any async interrupt that fired but
    had not landed yet, so a timeout can never leak into unrelated code
    running later on the same thread.
    """
    # Registration and teardown must be async-interrupt-safe: the
    # watchdog may fire into this thread the moment the entry is
    # registered (a pre-cancelled token, an already-past deadline), and
    # the raise can land on ANY bytecode boundary — including between
    # ``register`` and the ``try``.  So all bookkeeping after ``register``
    # happens inside the ``try``, and teardown re-derives the entry by
    # (thread, context) instead of trusting local control flow; a leaked
    # registration would otherwise refire interrupts into this thread
    # (e.g. a service worker running other tenants' queries) forever.
    ident = threading.get_ident()
    context.start()
    completed = False
    try:
        entry = WATCHDOG.register(ident, context)
        _LOCAL.stack.append(context)
        _LOCAL.entries.append(entry)
        yield context
        completed = True
    except QueryInterrupt as exc:
        raise context.annotate(exc)
    finally:
        # The async interrupt can land on any bytecode of this teardown,
        # which would abort it and leak the registration — the watchdog
        # would then refire into this thread every ``refire_s`` forever.
        # Retry until the unregistration is through: at most one async
        # interrupt is pending at a time and refires are ``refire_s``
        # apart, while this cleanup takes microseconds, so a second
        # landing inside the retry is not a practical concern.
        fired = False
        cleaned = False
        while not cleaned:
            try:
                if _LOCAL.stack and _LOCAL.stack[-1] is context:
                    _LOCAL.stack.pop()
                entries = _LOCAL.entries
                if entries and entries[-1].context is context:
                    entries.pop()
                fired = WATCHDOG.unregister_context(ident, context) or fired
                cleaned = True
            except QueryInterrupt:
                continue
        if fired:
            if completed:
                _absorb_pending(context)
            # Double delivery: the cooperative checkpoint raised
            # synchronously while the watchdog's async raise was still
            # in flight (or a completed block's straggler never landed
            # during the park above).  Discard it — after this point a
            # stray interrupt would land in unrelated code on this
            # thread, e.g. the next tenant's query on a service worker.
            _clear_pending_interrupt()


class _Discarded(BaseException):
    """Stands in for a pending async interrupt so it can land and die."""


def _clear_pending_interrupt() -> None:
    """Discard a fired-but-unlanded async interrupt aimed at this thread.

    Overwrites the thread's pending async-exception slot with the private
    :class:`_Discarded` and lets it land here.  Clearing the slot with
    ``PyThreadState_SetAsyncExc(ident, NULL)`` instead would leave
    CPython 3.11's eval-breaker flag raised with nothing left to lower
    it, after which any frame run under ``sys.setprofile`` spins
    forever.  A no-op on non-CPython runtimes.
    """
    set_async = getattr(ctypes.pythonapi, "PyThreadState_SetAsyncExc", None)
    if set_async is None:
        return
    try:
        set_async(
            ctypes.c_ulong(threading.get_ident()),
            ctypes.py_object(_Discarded),
        )
        for _ in range(8):  # landing strip: a backward jump checks the flag
            pass
    except (_Discarded, QueryInterrupt):
        pass  # ours, or the stale interrupt landing before the swap


def _absorb_pending(context: QueryContext, wait_s: float = 0.2) -> None:
    """Give a fired-but-unlanded async interrupt a place to land.

    The watchdog only fires while an entry is registered, but the raise
    is asynchronous: it lands at an arbitrary later bytecode boundary.
    If the guarded block finished normally first, we park here — the
    sleep loop's bytecodes are the landing strip — and convert the stray
    interrupt into the annotated error it was meant to be.
    """
    try:
        deadline = time.monotonic() + wait_s
        while time.monotonic() < deadline:
            time.sleep(0.001)
    except QueryInterrupt as exc:
        raise context.annotate(exc)


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------


class _WatchEntry:
    __slots__ = ("ident", "context", "udf", "udf_chain", "batch_deadline",
                 "fired", "fired_at", "cooperative_at", "shielded")

    def __init__(self, ident: int, context: QueryContext):
        self.ident = ident
        self.context = context
        #: Name of the UDF currently executing on this thread (set by
        #: udf_batch_guard; plain attribute writes are GIL-atomic).
        self.udf: Optional[str] = None
        self.udf_chain: tuple = ()
        #: Wall-clock cap for the current UDF batch, monotonic seconds.
        self.batch_deadline: Optional[float] = None
        self.fired = False
        self.fired_at = 0.0
        #: When a cooperative checkpoint on this thread last *raised*
        #: the interrupt itself.  Delivery accomplished — the watchdog
        #: holds its async raise for ``refire_s`` so it doesn't land a
        #: duplicate in the code unwinding (or handling) the first one.
        self.cooperative_at = 0.0
        #: True while the thread is inside ``spawn_shield()`` — starting
        #: new threads, whose half-born state would absorb an async
        #: raise aimed at this ident (see ``spawn_shield``) — or
        #: ``interrupt_shield()``.
        self.shielded = False


def _async_raise(ident: int, exc_class: type) -> bool:
    """Deliver ``exc_class`` asynchronously into thread ``ident``."""
    set_async = getattr(ctypes.pythonapi, "PyThreadState_SetAsyncExc", None)
    if set_async is None:  # non-CPython: cooperative checkpoints only
        return False
    affected = set_async(ctypes.c_ulong(ident), ctypes.py_object(exc_class))
    if affected > 1:  # invalid ident matched several states: undo
        set_async(ctypes.c_ulong(ident), None)
        return False
    return affected == 1


class Watchdog:
    """Singleton monitor enforcing deadlines and per-batch UDF caps.

    One daemon thread scans the registered (thread, context) entries
    every ``tick_s``.  When an entry's query deadline or batch cap has
    passed (or its token is cancelled), the watchdog records the
    attribution on the context and async-raises the interrupt class into
    the thread.  A fired entry is re-raised after ``refire_s`` while it
    stays registered, in case the first delivery was swallowed by C code.
    """

    def __init__(self, tick_s: float = 0.02, refire_s: float = 0.25):
        self.tick_s = tick_s
        self.refire_s = refire_s
        self._lock = threading.Lock()
        self._entries: Dict[int, List[_WatchEntry]] = {}
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        #: Total async interrupts delivered (for tests/inspection).
        self.fired_count = 0

    def register(self, ident: int, context: QueryContext) -> _WatchEntry:
        entry = _WatchEntry(ident, context)
        with self._lock:
            self._entries.setdefault(ident, []).append(entry)
            self._ensure_thread_locked()
            # Wake the watchdog while still holding ``_lock``: it cannot
            # fire into this thread until the lock is released.  Outside
            # it, an async raise for an already-cancelled context can
            # land inside ``Event.set`` — after its pure-Python
            # ``Condition.__enter__`` took the event's lock but before
            # the ``with`` is armed — leaking that lock and wedging
            # every later ``register`` in the process.
            self._wake.set()
        return entry

    def unregister_context(self, ident: int, context: QueryContext) -> bool:
        """Remove thread ``ident``'s entry for ``context``; returns
        whether the watchdog ever fired it.

        Keyed lookup rather than an entry handle: ``activate``'s teardown
        must work even when an async interrupt landed before the caller
        finished its registration bookkeeping, so the handle may never
        have been stored.
        """
        with self._lock:
            stack = self._entries.get(ident)
            if not stack:
                return False
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].context is context:
                    entry = stack.pop(i)
                    if not stack:
                        del self._entries[ident]
                    return entry.fired
            return False

    def unregister(self, entry: _WatchEntry) -> None:
        with self._lock:
            stack = self._entries.get(entry.ident)
            if stack is not None:
                try:
                    stack.remove(entry)
                except ValueError:
                    pass
                if not stack:
                    del self._entries[entry.ident]

    def _ensure_thread_locked(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-governor-watchdog", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            with self._lock:
                idle = not self._entries
            # Sleep until woken when idle; otherwise scan every tick.
            self._wake.wait(timeout=None if idle else self.tick_s)
            self._wake.clear()
            with self._lock:
                entries = [
                    entry for stack in self._entries.values()
                    for entry in stack[-1:]  # innermost context per thread
                ]
                now = time.monotonic()
                for entry in entries:
                    self._inspect_locked(entry, now)

    def _inspect_locked(self, entry: _WatchEntry, now: float) -> None:
        context = entry.context
        exc_class: Optional[type] = None
        if context.token.cancelled:
            exc_class = QueryCancelledError
        elif (
            entry.batch_deadline is not None and now >= entry.batch_deadline
        ):
            context.timed_out_udf = entry.udf
            context.timeout_kind = "udf_batch"
            exc_class = QueryTimeoutError
        elif context.deadline is not None and now >= context.deadline:
            if context.timed_out_udf is None:
                context.timed_out_udf = entry.udf
            if context.timeout_kind is None:
                context.timeout_kind = "query"
            exc_class = QueryTimeoutError
        if exc_class is None:
            return
        if entry.shielded:
            # The thread is mid-``Thread.start``: CPython stamps a new
            # thread's state with the spawner's ident until the child
            # rebinds it, so an async raise now could land in the
            # half-born child — killing it before it signals
            # ``_started`` and deadlocking the spawner in the handshake
            # wait.  ``spawn_shield`` delivers cooperatively on exit.
            # (Or it is inside ``interrupt_shield``, reaping a child.)
            return
        if entry.fired and now - entry.fired_at < self.refire_s:
            return
        if entry.cooperative_at and now - entry.cooperative_at < self.refire_s:
            # A checkpoint on the thread raised this interrupt
            # synchronously moments ago: it is already propagating (or
            # being handled), so an async raise now would just land a
            # duplicate at some arbitrary bytecode of the unwind.
            return
        if _async_raise(entry.ident, exc_class):
            refire = entry.fired
            entry.fired = True
            entry.fired_at = now
            self.fired_count += 1
            if OBS.metrics:
                METRICS.counter("repro_watchdog_interrupts_total").inc()
            trace = context.trace
            if trace is not None and not refire:
                trace.add_event(
                    "watchdog_interrupt",
                    kind=exc_class.__name__,
                    udf=entry.udf,
                    timeout_kind=context.timeout_kind,
                )


#: The process-wide watchdog used by all governed executions.
WATCHDOG = Watchdog()


# ----------------------------------------------------------------------
# Governance boundaries
# ----------------------------------------------------------------------


@contextlib.contextmanager
def govern(adapter_name: str, context: Optional[QueryContext],
           query: Optional[str] = None) -> Iterator[Optional[QueryContext]]:
    """The adapter entry-point boundary.

    Resolves an explicit ``context`` or the ambient thread-local one; when
    neither exists the block runs ungoverned (zero-overhead legacy path).
    A nested call with the already-active context (QFusor activating
    before dispatching into the adapter) just checkpoints.
    """
    ambient = current()
    ctx = context if context is not None else ambient
    if ctx is None:
        yield None
        return
    if ctx.adapter is None:
        ctx.adapter = adapter_name
    if ctx.query is None and query is not None:
        ctx.query = query
    if OBS.tracing and ctx.trace is None:
        ctx.trace = _obs_tracer.current_trace()
    if ctx is ambient:
        _check_delivering(ctx)
        try:
            yield ctx
        except QueryInterrupt as exc:
            raise ctx.annotate(exc)
        return
    with activate(ctx):
        _check_delivering(ctx)
        yield ctx


class udf_batch_guard:
    """The UDF invocation boundary (registry ``call_*`` / sqlite bridge).

    Publishes the running UDF's name to this thread's watchdog entry and
    arms the per-batch wall-clock cap; converts a bare async interrupt
    into a fully annotated one naming the UDF.  A plain class (not a
    generator contextmanager) because tuple-at-a-time engines enter it
    once per row.

    ``arm_cap=False`` publishes the UDF for attribution but leaves the
    per-batch deadline disarmed — used when the batch runs on a
    process-isolated worker, where the pool enforces the cap itself by
    killing the worker (the watchdog async-raising into the parent
    thread mid-wait would race that kill-and-retry path).
    """

    __slots__ = ("name", "fused_from", "arm_cap", "_entry", "_prev")

    def __init__(self, name: str, fused_from: tuple = (),
                 arm_cap: bool = True):
        self.name = name
        self.fused_from = fused_from
        self.arm_cap = arm_cap
        self._entry: Optional[_WatchEntry] = None
        self._prev = (None, (), None)

    def __enter__(self):
        entry = _current_entry()
        self._entry = entry
        if entry is None:
            return self
        self._prev = (entry.udf, entry.udf_chain, entry.batch_deadline)
        context = entry.context
        entry.udf = self.name
        entry.udf_chain = self.fused_from
        cap = context.udf_batch_timeout_s if self.arm_cap else None
        if cap is not None:
            batch_deadline = time.monotonic() + cap
            if context.deadline is not None:
                batch_deadline = min(batch_deadline, context.deadline)
            entry.batch_deadline = batch_deadline
        return self

    def __exit__(self, exc_type, exc, tb):
        entry = self._entry
        if entry is None:
            return False
        entry.udf, entry.udf_chain, entry.batch_deadline = self._prev
        if exc is not None and isinstance(exc, QueryInterrupt):
            entry.context.annotate(exc, udf_name=self.name)
            if isinstance(exc, QueryTimeoutError) and not exc.udf_chain:
                exc.udf_chain = tuple(self.fused_from)
        return False


# ----------------------------------------------------------------------
# Cooperative checkpoints
# ----------------------------------------------------------------------


def _check_delivering(context: QueryContext) -> None:
    """Run ``context.check()``, stamping the thread's watchdog entry
    when it raises — the synchronous raise IS the delivery, so the
    watchdog must not async-fire a duplicate into the unwind."""
    try:
        context.check()
    except QueryInterrupt:
        entry = _current_entry()
        if entry is not None and entry.context is context:
            entry.cooperative_at = time.monotonic()
        raise


def checkpoint() -> None:
    """Raise the governed interrupt if this thread's context demands it.

    Bound into generated wrapper namespaces as ``_gov_check``; safe (and
    nearly free) when no context is active.
    """
    stack = _LOCAL.stack
    if stack:
        _check_delivering(stack[-1])


@contextlib.contextmanager
def spawn_shield() -> Iterator[None]:
    """Hold the watchdog's async raise while this thread starts threads.

    CPython stamps a new thread's state with the *spawner's* ident until
    the child rebinds it inside ``_bootstrap``, so an async interrupt
    aimed at a governed spawner during ``Thread.start`` can land in the
    half-born child instead — killing it before it signals ``_started``
    and deadlocking the spawner in the handshake wait forever (no
    bytecode runs there, so even refires never land).  Any code that
    spawns threads (lazily-populating pools included) under an active
    governed context must wrap the spawning in this shield; the missed
    interrupt, if any, is delivered cooperatively on clean exit.

    No-op on ungoverned threads.
    """
    entry = _current_entry()
    if entry is None:
        yield
        return
    with interrupt_shield():
        yield
    _check_delivering(entry.context)


@contextlib.contextmanager
def interrupt_shield() -> Iterator[None]:
    """Hold the watchdog's async raise across a section it must not tear.

    Reaping a child is one: an interrupt landing between ``os.waitpid``
    returning and ``multiprocessing`` storing the exit status leaves the
    dead child reported alive for the life of the process.  Nothing is
    delivered on exit — the section may itself be an interrupt's unwind —
    so the watchdog fires at its next tick if the entry is still due.

    No-op on ungoverned threads.
    """
    entry = _current_entry()
    if entry is None:
        yield
        return
    held, entry.shielded = entry.shielded, True
    try:
        yield
    finally:
        entry.shielded = held


def cooperative_sleep(duration: float, slice_s: float = 0.01) -> None:
    """Sleep ``duration`` seconds in checkpointed slices.

    A retry backoff (channel transfer, worker restart) must not hold a
    cancelled or deadlined query hostage: each slice re-runs
    :func:`checkpoint`, so the governed interrupt fires at most
    ``slice_s`` after it is due.  Plain ``time.sleep`` when ungoverned
    and the duration fits one slice.
    """
    if duration <= 0:
        return
    checkpoint()
    if duration <= slice_s and not _LOCAL.stack:
        time.sleep(duration)
        return
    deadline = time.monotonic() + duration
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(remaining, slice_s))
        checkpoint()


def guarded_iter(iterable: Iterable, stride: int = CHECK_STRIDE) -> Iterator:
    """Iterate ``iterable``, checkpointing and charging the row budget
    every ``stride`` items.  Pass-through when ungoverned."""
    ctx = current()
    if ctx is None:
        yield from iterable
        return
    check = ctx.check
    charge = ctx.charge_rows
    count = 0
    charged = 0
    for item in iterable:
        if count % stride == 0:
            check()
            if count:
                charge(stride)
                charged = count
        count += 1
        yield item
    if count > charged:
        charge(count - charged)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class AdmissionGate:
    """Bounded admission: at most ``max_concurrent`` queries execute;
    excess arrivals wait up to ``queue_timeout_s`` then shed with
    :class:`~repro.errors.AdmissionTimeoutError`.

    Queue-wait time is first-class: every arrival — admitted *or* shed —
    records its wait into the gate's aggregate stats and the
    ``repro_admission_wait_seconds`` histogram, so fairness and shed
    latency are measurable rather than inferred.  ``waiting`` counts
    arrivals currently blocked in the queue (the live queue depth).
    """

    def __init__(self, max_concurrent: int,
                 queue_timeout_s: Optional[float] = None):
        self.max_concurrent = max(1, int(max_concurrent))
        self.queue_timeout_s = queue_timeout_s
        self._semaphore = threading.BoundedSemaphore(self.max_concurrent)
        self._stats_lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0
        self.active = 0
        self.peak_active = 0
        self.waiting = 0
        self.peak_waiting = 0
        self.queue_wait_total_s = 0.0
        self.queue_wait_count = 0
        self.max_wait_s = 0.0

    # -- stats ---------------------------------------------------------

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
        """A point-in-time snapshot of the gate's counters and waits."""
        with self._stats_lock:
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

    # -- admission -----------------------------------------------------

    @contextlib.contextmanager
    def admit(self) -> Iterator[None]:
        waited = time.monotonic()
        with self._stats_lock:
            self.waiting += 1
            self.peak_waiting = max(self.peak_waiting, self.waiting)
        try:
            if self.queue_timeout_s is None:
                acquired = self._semaphore.acquire()
            else:
                acquired = self._semaphore.acquire(
                    timeout=self.queue_timeout_s
                )
        finally:
            waited_s = time.monotonic() - waited
            with self._stats_lock:
                self.waiting -= 1
                depth_behind = self.waiting
                self._note_wait_locked(waited_s)
        if not acquired:
            with self._stats_lock:
                self.rejected += 1
            self._observe_wait(waited_s, "shed")
            if OBS.metrics:
                METRICS.counter("repro_admission_rejected_total").inc()
            raise AdmissionTimeoutError(
                waited_s=waited_s,
                max_concurrent=self.max_concurrent,
                queue_depth=depth_behind,
            )
        with self._stats_lock:
            self.admitted += 1
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)
        self._observe_wait(waited_s, "admitted")
        if OBS.tracing:
            _obs_tracer.add_event("admission_wait", waited_s=waited_s)
        try:
            yield
        finally:
            with self._stats_lock:
                self.active -= 1
            self._semaphore.release()
