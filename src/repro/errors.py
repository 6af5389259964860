"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Sub-hierarchies mirror the major subsystems: SQL frontend,
engine, UDF runtime, JIT, and the QFusor optimizer itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SqlError(ReproError):
    """Base class for SQL frontend errors."""


class LexError(SqlError):
    """Raised when the lexer meets an unrecognized character sequence."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the tokens."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class TypeMismatchError(ReproError):
    """Raised when a value does not match its declared SQL type."""


class CatalogError(ReproError):
    """Raised for unknown tables/columns or duplicate registrations."""


class CsvFormatError(ReproError):
    """A malformed cell or row in a CSV file being loaded.

    Carries the file, the 1-based physical line number, the column name,
    and the offending text, so a bad cell in a million-row ingest is
    locatable without re-parsing the file by hand.
    """

    def __init__(self, message: str, *, path: "str | None" = None,
                 line: "int | None" = None, column: "str | None" = None,
                 text: "str | None" = None):
        detail = [message]
        if path is not None:
            detail.append(f"in {path!r}")
        if line is not None:
            detail.append(f"at line {line}")
        if column is not None:
            detail.append(f"column {column!r}")
        if text is not None:
            detail.append(f"value {text!r}")
        super().__init__(" ".join(detail))
        self.path = path
        self.line = line
        self.column = column
        self.text = text


class DurabilityError(ReproError):
    """Base class for WAL / checkpoint / recovery failures."""


class WalCorruptionError(DurabilityError):
    """A WAL frame failed validation somewhere other than the tail.

    Torn *tails* are expected after a crash and are truncated silently;
    a bad frame followed by good frames, or a bad file header, means the
    log itself is damaged and recovery must not guess.
    """

    def __init__(self, message: str, *, path: "str | None" = None,
                 offset: "int | None" = None):
        detail = [message]
        if path is not None:
            detail.append(f"in {path!r}")
        if offset is not None:
            detail.append(f"at offset {offset}")
        super().__init__(" ".join(detail))
        self.path = path
        self.offset = offset


class CheckpointError(DurabilityError):
    """A checkpoint file failed validation (magic or checksum).

    Checkpoints are installed with an atomic temp-file + ``os.replace``
    protocol, so a corrupt checkpoint indicates external damage, not a
    crash window — recovery refuses rather than silently starting empty.
    """


class RecoveryError(DurabilityError):
    """Recovery could not restore a consistent database state."""


class WalPoisonedError(DurabilityError):
    """The WAL is fail-stopped after an I/O error tore the log.

    An ``OSError`` escaping mid-append (ENOSPC, EIO, a yanked disk)
    leaves a torn frame at the log tail; any *later* append that
    succeeded would be truncated by the next recovery's torn-tail scan —
    an acknowledged write that silently never happened.  The first I/O
    failure therefore poisons the log: every subsequent append or
    checkpoint fails fast with this error until the process restarts and
    recovery re-seals the file.
    """

    def __init__(self, message: str = "write-ahead log is poisoned", *,
                 path: "str | None" = None,
                 cause: "BaseException | None" = None):
        detail = [message]
        if path is not None:
            detail.append(f"in {path!r}")
        if cause is not None:
            detail.append(f"after {type(cause).__name__}: {cause}")
        super().__init__(" ".join(detail))
        self.path = path
        self.cause = cause


class ReplicationError(DurabilityError):
    """Base class for hot-standby replication failures."""


class ReplicationProtocolError(ReplicationError):
    """A replication peer violated the wire protocol (bad magic, CRC
    mismatch on a shipped frame, LSN gap, undecodable handshake)."""


class NodeFencedError(ReplicationError):
    """This node presented a stale fencing term and has been fenced.

    Raised by the replication handshake when a peer holds a strictly
    higher promotion term, and by every subsequent local write on the
    fenced node — a revived old primary can neither ship frames nor
    acknowledge new writes, which is what makes split-brain structurally
    impossible rather than merely unlikely.
    """

    def __init__(self, message: str = "node is fenced", *,
                 local_term: "int | None" = None,
                 remote_term: "int | None" = None):
        detail = [message]
        if local_term is not None:
            detail.append(f"local term {local_term}")
        if remote_term is not None:
            detail.append(f"fenced by term {remote_term}")
        super().__init__(" ".join(detail))
        self.local_term = local_term
        self.remote_term = remote_term


class SimulatedCrash(BaseException):
    """An injected process death for the in-process crash harness.

    Derives from :class:`BaseException` so no recovery handler on the
    write path can absorb it — exactly like a real ``SIGKILL``, the
    "process" ends mid-operation and only the bytes already handed to
    the OS survive.  Raised by durability fault points
    (:meth:`repro.testing.faults.FaultInjector.durability_crash`).
    """


class PlanError(ReproError):
    """Raised when a logical plan cannot be built or is malformed."""


class ExecutionError(ReproError):
    """Raised when query execution fails."""


class UdfError(ReproError):
    """Base class for UDF runtime errors."""


class UdfRegistrationError(UdfError):
    """Raised when a UDF cannot be registered (bad signature, duplicate)."""


#: Sentinel distinguishing "no offending value" from "the value was None".
_UNSET = object()


class UdfExecutionError(UdfError):
    """Raised when a UDF raises during execution.

    Wrapper functions catch arbitrary exceptions from user code and re-raise
    them as this type, preserving the original as ``__cause__`` (the paper's
    try/except wrapper robustness requirement, section 5.3.2).

    ``row``/``value``/``phase`` localize the failure when the wrapper knows
    them: the batch row index, the offending input value(s), and the
    aggregate phase (``"step"``/``"final"``) respectively.
    """

    def __init__(
        self,
        udf_name: str,
        original: BaseException,
        *,
        row: "int | None" = None,
        value: object = _UNSET,
        phase: "str | None" = None,
    ):
        parts = [f"UDF {udf_name!r} failed"]
        if phase is not None:
            parts.append(f"in {phase}()")
        if row is not None:
            parts.append(f"at row {row}")
        if value is not _UNSET:
            parts.append(f"on value {value!r}")
        super().__init__(" ".join(parts) + f": {original!r}")
        self.udf_name = udf_name
        self.original = original
        self.row = row
        self.value = None if value is _UNSET else value
        self.has_value = value is not _UNSET
        self.phase = phase


#: The concrete exception set one UDF invocation is expected to produce:
#: user-code failures that the row-level policies (reinterpret / null /
#: skip / raise) may absorb.  Deliberately excludes the library's own
#: infrastructure failures (:class:`WorkerError`,
#: :class:`GovernanceError`) and the ``BaseException``-derived
#: :class:`QueryInterrupt` family — those must unwind to their own
#: boundaries, never be swallowed as a bad row.  :class:`UdfExecutionError`
#: is included because nested invocation paths re-raise already-wrapped
#: failures through the same handlers (which pass them through unchanged).
UDF_INVOCATION_ERRORS = (
    TypeError,
    ValueError,
    ArithmeticError,
    LookupError,
    AttributeError,
    RuntimeError,
    UnicodeError,
    OSError,
    StopIteration,
    UdfExecutionError,
)


class QueryInterrupt(BaseException):
    """Base class of the query-governance interrupts.

    Deliberately derives from :class:`BaseException` (the
    ``asyncio.CancelledError`` precedent): the broad ``except Exception``
    recovery paths inside generated wrappers and row-level policies must
    never swallow a cancellation or deadline — an interrupt always unwinds
    to the governance boundary, which annotates it with the adapter and
    query before re-raising.

    All subclasses are zero-argument constructible because the watchdog
    delivers them asynchronously via ``PyThreadState_SetAsyncExc`` (which
    instantiates the class itself); details are attached afterwards at the
    governance boundaries through the mutable attributes.
    """

    def __init__(self, message: str = "", *, adapter: "str | None" = None,
                 query: "str | None" = None):
        super().__init__(message)
        self.adapter = adapter
        self.query = query

    def _detail(self) -> "list[str]":
        parts = []
        if self.adapter is not None:
            parts.append(f"adapter={self.adapter!r}")
        if self.query is not None:
            query = self.query
            if len(query) > 120:
                query = query[:117] + "..."
            parts.append(f"query={query!r}")
        return parts

    def __str__(self) -> str:
        base = super().__str__() or self.__class__.__name__
        detail = self._detail()
        return f"{base} [{', '.join(detail)}]" if detail else base


class QueryCancelledError(QueryInterrupt):
    """The query's cancellation token was triggered."""

    def __init__(self, message: str = "query cancelled", *,
                 reason: "str | None" = None, adapter: "str | None" = None,
                 query: "str | None" = None):
        super().__init__(message, adapter=adapter, query=query)
        self.reason = reason

    def _detail(self) -> "list[str]":
        parts = []
        if self.reason is not None:
            parts.append(f"reason={self.reason!r}")
        return parts + super()._detail()


class QueryTimeoutError(QueryInterrupt):
    """A query deadline or per-batch UDF wall-clock cap was exceeded.

    ``kind`` distinguishes the whole-query deadline (``"query"``) from
    the per-batch UDF cap (``"udf_batch"``); ``udf_name`` names the UDF
    that was running when the watchdog fired (for fused traces this is
    the fused name, with constituents in ``udf_chain``).
    """

    def __init__(self, message: str = "query timed out", *,
                 timeout_s: "float | None" = None, kind: str = "query",
                 udf_name: "str | None" = None,
                 udf_chain: "tuple[str, ...]" = (),
                 adapter: "str | None" = None, query: "str | None" = None):
        super().__init__(message, adapter=adapter, query=query)
        self.timeout_s = timeout_s
        self.kind = kind
        self.udf_name = udf_name
        self.udf_chain = tuple(udf_chain)

    def _detail(self) -> "list[str]":
        parts = []
        if self.timeout_s is not None:
            parts.append(f"after {self.timeout_s:.3g}s")
        if self.kind != "query":
            parts.append(f"kind={self.kind!r}")
        if self.udf_name is not None:
            parts.append(f"udf={self.udf_name!r}")
        if self.udf_chain:
            parts.append(f"chain={list(self.udf_chain)!r}")
        return parts + super()._detail()


class QueryBudgetExceededError(QueryInterrupt):
    """The query consumed more than its row budget."""

    def __init__(self, message: str = "query row budget exceeded", *,
                 rows: "int | None" = None, budget: "int | None" = None,
                 adapter: "str | None" = None, query: "str | None" = None):
        super().__init__(message, adapter=adapter, query=query)
        self.rows = rows
        self.budget = budget

    def _detail(self) -> "list[str]":
        parts = []
        if self.rows is not None and self.budget is not None:
            parts.append(f"rows={self.rows} budget={self.budget}")
        return parts + super()._detail()


class GovernanceError(ReproError):
    """Base class for synchronous admission refusals.

    Unlike :class:`QueryInterrupt` these are ordinary exceptions: they
    are raised before any query work starts, so there is no in-flight
    state a broad handler could corrupt by swallowing them.
    """


class ServiceError(ReproError):
    """Base class for multi-tenant query-service errors."""


class UnknownTenantError(ServiceError):
    """A query referenced a tenant the service has no session for."""

    def __init__(self, tenant: str):
        super().__init__(f"unknown tenant {tenant!r}")
        self.tenant = tenant


class ServiceOverloadError(GovernanceError):
    """The service shed a query to protect itself (typed, never silent).

    ``reason`` localizes the watermark that tripped: ``"queue_full"``
    (global queue-depth watermark), ``"tenant_queue_full"`` (per-tenant
    pending cap), ``"latency"`` (p95 service latency above watermark),
    or ``"queue_timeout"`` (queued but not dispatched in time).
    ``retry_after_s`` is the service's backoff hint — clients honoring
    it (see :class:`repro.service.retry.RetryPolicy`) spread the retry
    storm instead of hammering an overloaded gate.
    """

    def __init__(self, message: str = "service overloaded", *,
                 tenant: "str | None" = None, reason: str = "overload",
                 queue_depth: "int | None" = None,
                 waited_s: "float | None" = None,
                 retry_after_s: "float | None" = None):
        detail = [message, f"reason={reason!r}"]
        if tenant is not None:
            detail.append(f"tenant={tenant!r}")
        if queue_depth is not None:
            detail.append(f"queue_depth={queue_depth}")
        if waited_s is not None:
            detail.append(f"after waiting {waited_s:.3g}s")
        if retry_after_s is not None:
            detail.append(f"retry after {retry_after_s:.3g}s")
        super().__init__(" ".join(detail))
        self.tenant = tenant
        self.reason = reason
        self.queue_depth = queue_depth
        self.waited_s = waited_s
        self.retry_after_s = retry_after_s


class TenantRecoveryError(ServiceError):
    """One tenant's directory failed to recover during a warm restart.

    Carries the tenant id and the underlying durability failure so a
    fleet restart can surface exactly which tenant is damaged while the
    remaining tenants recover and serve — one corrupt directory must
    never take down the whole service.
    """

    def __init__(self, tenant: str, cause: BaseException):
        super().__init__(
            f"tenant {tenant!r} failed to recover: "
            f"{type(cause).__name__}: {cause}"
        )
        self.tenant = tenant
        self.cause = cause


class RetryBudgetExhaustedError(ServiceError):
    """A client retry policy ran out of attempts or wall-clock budget.

    Wraps the final refusal as ``__cause__``/``last_error`` so callers
    still see the service's diagnostics (reason, queue depth, hints).
    """

    def __init__(self, message: str = "retry budget exhausted", *,
                 attempts: "int | None" = None,
                 elapsed_s: "float | None" = None,
                 last_error: "BaseException | None" = None):
        detail = [message]
        if attempts is not None:
            detail.append(f"after {attempts} attempts")
        if elapsed_s is not None:
            detail.append(f"over {elapsed_s:.3g}s")
        if last_error is not None:
            detail.append(f"last: {last_error}")
        super().__init__(" ".join(detail))
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.last_error = last_error


class WorkerError(ReproError):
    """Base class for UDF worker-pool failures (process isolation)."""


class WorkerCrashError(WorkerError):
    """A worker process died while (or before) executing a UDF batch.

    ``kind`` localizes the death: ``"crash"`` (the process exited — a
    signal, ``os._exit``, or an interpreter abort), ``"hang"`` (the batch
    exceeded its governance-derived deadline slack and the supervisor
    killed the worker), or ``"oom"`` (the worker's ``RLIMIT_AS`` memory
    cap was hit).  ``exitcode`` is the process exit status when known
    (negative values are ``-signum``, POSIX convention).
    """

    def __init__(self, message: str = "UDF worker crashed", *,
                 udf_name: "str | None" = None, kind: str = "crash",
                 exitcode: "int | None" = None, pid: "int | None" = None,
                 attempt: int = 0):
        detail = [message]
        if udf_name is not None:
            detail.append(f"udf={udf_name!r}")
        if kind != "crash":
            detail.append(f"kind={kind!r}")
        if exitcode is not None:
            detail.append(f"exitcode={exitcode}")
        if pid is not None:
            detail.append(f"pid={pid}")
        super().__init__(" ".join(detail))
        self.udf_name = udf_name
        self.kind = kind
        self.exitcode = exitcode
        self.pid = pid
        self.attempt = attempt


class WorkerRestartBudgetError(WorkerError):
    """The pool's max-restart budget is exhausted; supervision gave up."""

    def __init__(self, message: str = "worker restart budget exhausted", *,
                 restarts: "int | None" = None,
                 budget: "int | None" = None):
        if restarts is not None and budget is not None:
            message += f" ({restarts}/{budget} restarts)"
        super().__init__(message)
        self.restarts = restarts
        self.budget = budget


class BatchQuarantinedError(WorkerError):
    """A batch crashed its worker repeatedly and policy is fail-fast.

    Raised when the same batch (same UDF, same inputs) has killed
    ``max_batch_retries`` workers and the pool's quarantine policy is
    ``"fail"``; with the default ``"degrade"`` policy the batch runs
    in-process instead and no error surfaces.
    """

    def __init__(self, message: str = "batch quarantined", *,
                 udf_name: "str | None" = None, crashes: "int | None" = None,
                 fingerprint: "str | None" = None):
        detail = [message]
        if udf_name is not None:
            detail.append(f"udf={udf_name!r}")
        if crashes is not None:
            detail.append(f"after {crashes} worker crashes")
        super().__init__(" ".join(detail))
        self.udf_name = udf_name
        self.crashes = crashes
        self.fingerprint = fingerprint


class JitError(ReproError):
    """Raised when trace code generation or compilation fails."""


class FusionError(ReproError):
    """Raised when the fusion optimizer produces an invalid section."""


class DialectError(ReproError):
    """Raised for unsupported engine dialect operations."""
