"""The UDF registry — the engine-facing half of the registration mechanism.

Registering a UDF (a) builds its wrapper via :mod:`repro.udf.wrappers`,
(b) stores the definition for name resolution during planning, and (c)
produces the engine-specific ``CREATE FUNCTION`` statement through the
dialect layer (section 5.5).  Invocation goes through the registry so that
execution statistics are recorded into the stateful
:class:`~repro.udf.state.StatsStore` (section 5.2.2).

QFusor registers its runtime-generated *fused* UDFs through exactly the
same path (section 5.3), so the registry is also the fused-UDF registry.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    QueryBudgetExceededError,
    QueryCancelledError,
    UDF_INVOCATION_ERRORS,
    UdfRegistrationError,
)
from ..obs import DEFAULT_BYTES_BUCKETS, DEFAULT_SIZE_BUCKETS, METRICS, OBS
from ..obs import tracer as obs_tracer
from ..cache.fingerprint import definition_fingerprint
from ..resilience.breaker import BreakerBoard
from ..resilience.governor import udf_batch_guard
from ..storage.column import Column
from ..types import SqlType
from . import boundary
from .definition import UdfDefinition, UdfKind
from .state import StatsStore
from .wrappers import GeneratedWrapper, build_wrapper

__all__ = ["UdfRegistry", "RegisteredUdf"]


class RegisteredUdf:
    """A UDF plus its compiled wrapper and the registry that owns it."""

    __slots__ = (
        "definition", "wrapper", "_registry",
        "_obs_calls", "_obs_latency", "_obs_rows",
    )

    def __init__(self, definition: UdfDefinition, wrapper: GeneratedWrapper, registry):
        self.definition = definition
        self.wrapper = wrapper
        self._registry = registry
        # Lazily-bound metric instruments (one dict lookup saved per call).
        self._obs_calls = None
        self._obs_latency = None
        self._obs_rows = None

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def kind(self) -> UdfKind:
        return self.definition.kind

    @property
    def version(self) -> int:
        """The definition version (bumped on changed re-registration)."""
        return self._registry.version_of(self.definition.name)

    # ------------------------------------------------------------------
    # Engine-facing invocation (columns in, columns out).  All stats
    # observation happens here — this is the "stateful" part.
    # ------------------------------------------------------------------

    def _cross(self, payload):
        """Round-trip a payload through the out-of-process channel."""
        channel = self._registry.channel
        return payload if channel is None else channel.transfer(payload)

    def _kernel_policy(self):
        """The columnar policy when a batch may run on the typed-buffer
        kernels: the plane is attached and there is no worker pool or
        modeled channel whose boundary a kernel would skip."""
        registry = self._registry
        if registry.workers is None and registry.channel is None:
            return registry.columnar
        return None

    def _invoke_batch(self, kind: str, entry: Callable[..., Any],
                      inputs: Sequence[Column], size: int,
                      *extra: Any) -> Tuple[Any, float]:
        """Take one batch across the UDF boundary; ``(c_result, seconds)``.

        Columns become C buffers and ``entry`` (a wrapper entry point)
        runs on them under governance.  With a process-isolation pool
        attached the batch executes in a real worker process (the pipe
        *is* the serialization boundary, and the pool enforces its own
        batch cap), so the modeled pickle channel is crossed only on the
        pool's in-process degrade path.  Without one, inputs and outputs
        round-trip the channel, when the registry models one.
        """
        raw = [boundary.column_to_c(col) for col in inputs]

        def in_process(c_inputs):
            return self._cross(entry(c_inputs, size, *extra))

        pool = self._registry.workers
        if pool is None:
            c_inputs = self._cross(raw)
            return self._guarded(lambda: in_process(c_inputs), size)
        return self._guarded(
            lambda: pool.run_batch(
                self.definition, kind, (raw, size, *extra),
                fallback=lambda: in_process(self._cross(raw)),
                size=size,
            ),
            size,
            arm_cap=False,
        )

    def _guarded(self, runner: Callable[[], Any], size: int,
                 arm_cap: bool = True) -> Tuple[Any, float]:
        """Run one boundary invocation under governance.

        Publishes the UDF to the watchdog (arming the per-batch deadline
        when one is configured), times the call, and feeds the outcome to
        the per-UDF circuit breaker.  Cancellation and budget interrupts
        are *not* charged as breaker failures — the UDF did nothing
        wrong — but batch timeouts and ordinary exceptions are.
        """
        board = self._registry.breakers
        # Spans cover vectorized batches only (size > 1): the
        # tuple-at-a-time path crosses this boundary once per row, which
        # would bloat traces by orders of magnitude — per-row calls are
        # aggregated into the metrics instead.
        sp = (
            obs_tracer.span_start(f"udf:{self.name}", "udf_batch", rows=size)
            if OBS.tracing and size > 1 else None
        )
        start = time.perf_counter()
        try:
            with udf_batch_guard(self.name, self.definition.fused_from,
                                 arm_cap=arm_cap):
                result = runner()
        except BaseException as exc:
            elapsed = time.perf_counter() - start
            if not isinstance(exc, (QueryCancelledError, QueryBudgetExceededError)):
                board.record_failure(
                    self.name,
                    elapsed,
                    tuples=size,
                    fused_from=self.definition.fused_from,
                )
            self._observe(elapsed, size, error=type(exc).__name__)
            if sp is not None:
                obs_tracer.span_end(sp, error=type(exc).__name__)
            raise
        elapsed = time.perf_counter() - start
        board.record_success(self.name, elapsed, tuples=size,
                             fused_from=self.definition.fused_from)
        self._observe(elapsed, size)
        if sp is not None:
            obs_tracer.span_end(sp)
        return result, elapsed

    def _observe(self, elapsed: float, size: int,
                 error: Optional[str] = None) -> None:
        """Record one boundary invocation into the metrics registry."""
        if not OBS.metrics:
            return
        if self._obs_calls is None:
            self._obs_calls = METRICS.counter(
                "repro_udf_calls_total", udf=self.name
            )
            self._obs_latency = METRICS.histogram(
                "repro_udf_call_seconds", udf=self.name
            )
            self._obs_rows = METRICS.histogram(
                "repro_udf_batch_rows", DEFAULT_SIZE_BUCKETS, udf=self.name
            )
        self._obs_calls.inc()
        self._obs_latency.observe(elapsed)
        self._obs_rows.observe(size)
        if error is not None:
            METRICS.counter(
                "repro_udf_errors_total", udf=self.name, error=error
            ).inc()

    def call_scalar(self, inputs: Sequence[Column], size: int) -> Column:
        """Run a scalar UDF over aligned input columns."""
        memo = self._registry.memo
        memo_key = None
        if memo is not None:
            memo_key = memo.batch_key(self, inputs, size)
            if memo_key is not None:
                hit, cached = memo.lookup(memo_key)
                if hit:
                    return cached
        policy = self._kernel_policy()
        if policy is not None:
            from ..columnar import kernels

            if kernels.eligible(self.definition):
                column, elapsed = self._guarded(
                    lambda: kernels.scalar_batch(
                        self.definition, inputs, size,
                        chunk=policy.morsel_size,
                    ),
                    size,
                )
                if column is not None:
                    self._registry.stats.observe(self.name, size, size, elapsed)
                    if memo_key is not None:
                        memo.put(memo_key, column)
                    return column
                # Kernel deopt: re-run the batch on the classic path below
                # (row-error policies and exact error semantics live there).
        c_result, elapsed = self._invoke_batch(
            "scalar", self.wrapper.entry, inputs, size
        )
        self._registry.stats.observe(self.name, size, size, elapsed)
        column = boundary.c_values_to_column(
            self.name, self.definition.signature.return_types[0], c_result
        )
        if memo_key is not None:
            memo.put(memo_key, column)
        return column

    def call_scalar_value(self, args: Sequence[Any]) -> Any:
        """Run a scalar UDF once on already-converted Python values.

        This is the tuple-at-a-time invocation path: the caller performs
        the per-value boundary crossings, so each row pays the full FFI
        round trip (the SQLite-style overhead the paper measures).
        """
        from ..resilience import runtime

        memo = self._registry.memo
        memo_key = None
        if memo is not None:
            memo_key = memo.value_key(self, args)
            if memo_key is not None:
                hit, cached = memo.lookup(memo_key)
                if hit:
                    return cached
        pool = self._registry.workers

        def invoke() -> Any:
            if pool is not None:
                return pool.run_batch(
                    self.definition, "value", tuple(args),
                    fallback=lambda: self.definition.func(*args),
                )
            return self.definition.func(*args)

        def run() -> Any:
            try:
                if runtime.FAULTS.armed:
                    runtime.FAULTS.injector.fire_row(
                        (self.name,) + tuple(self.definition.fused_from),
                        None,
                        "fused" if self.definition.is_fused else "interp",
                    )
                return invoke()
            except UDF_INVOCATION_ERRORS as exc:
                return runtime.handle_value_error(
                    self.name,
                    runtime.policy(),
                    exc,
                    lambda: self.definition.func(*args),
                    args,
                )

        result, elapsed = self._guarded(run, 1, arm_cap=pool is None)
        self._registry.stats.observe(self.name, 1, 1, elapsed)
        if memo_key is not None:
            memo.put(memo_key, result)
        return result

    def call_aggregate(
        self,
        inputs: Sequence[Column],
        size: int,
        group_ids: Sequence[int],
        num_groups: int,
    ) -> List[Any]:
        """Run an aggregate UDF over grouped input columns.

        Returns one engine-side value per group.
        """
        policy = self._kernel_policy()
        if policy is not None:
            from ..columnar import kernels

            if kernels.aggregate_eligible(self.definition):
                values, elapsed = self._guarded(
                    lambda: kernels.aggregate_batch(
                        self.definition, inputs, size, group_ids,
                        num_groups, chunk=policy.morsel_size,
                    ),
                    size,
                )
                if values is not None:
                    self._registry.stats.observe(
                        self.name, size, num_groups, elapsed
                    )
                    return values
                # Kernel deopt: classic path below owns error semantics.
        c_result, elapsed = self._invoke_batch(
            "aggregate", self.wrapper.entry, inputs, size,
            group_ids, num_groups,
        )
        self._registry.stats.observe(self.name, size, num_groups, elapsed)
        out_type = self.definition.signature.return_types[0]
        return [boundary.c_to_engine(v, out_type) for v in c_result]

    def call_table(
        self, inputs: Sequence[Column], size: int, const_args: Sequence[Any] = ()
    ) -> List[Column]:
        """Run a table UDF in relation mode; returns its output columns."""
        c_columns, elapsed = self._invoke_batch(
            "table", self.wrapper.entry, inputs, size,
            tuple(col.sql_type for col in inputs), tuple(const_args),
        )
        out_rows = len(c_columns[0]) if c_columns else 0
        self._registry.stats.observe(self.name, size, out_rows, elapsed)
        return self._out_columns(c_columns)

    def call_table_expand(
        self, inputs: Sequence[Column], size: int, const_args: Sequence[Any] = ()
    ) -> Tuple[List[int], List[Column]]:
        """Run a table UDF in expand mode; returns (row lineage, columns)."""
        (lineage, c_columns), elapsed = self._invoke_batch(
            "table_expand", self.wrapper.expand_entry, inputs, size,
            tuple(col.sql_type for col in inputs), tuple(const_args),
        )
        self._registry.stats.observe(self.name, size, len(lineage), elapsed)
        return list(lineage), self._out_columns(c_columns)

    def _out_columns(self, c_columns: Sequence[Any]) -> List[Column]:
        """A table UDF's C result buffers as engine columns."""
        return [
            boundary.c_values_to_column(name, sql_type, values)
            for name, sql_type, values in zip(
                self.definition.out_columns,
                self.definition.signature.return_types,
                c_columns,
            )
        ]


class ProcessChannel:
    """Models an out-of-process UDF boundary (PostgreSQL PL/Python style).

    Every batch of arguments and results crosses a serialized channel —
    a real ``pickle`` round trip — reproducing the inter-process
    communication overhead the paper measures on engines that run UDFs
    in separate processes.  It is a metered cost model, not a transport:
    nothing in it can fail short of the payload not pickling, and real
    process failures live in :class:`~repro.resilience.workers.WorkerPool`.
    """

    def __init__(self):
        self.crossings = 0

    def transfer(self, payload: Any) -> Any:
        self.crossings += 1
        blob = pickle.dumps(payload)
        if OBS.metrics:
            METRICS.histogram(
                "repro_boundary_bytes", DEFAULT_BYTES_BUCKETS, channel="pickle"
            ).observe(len(blob))
        return pickle.loads(blob)


class UdfRegistry:
    """Registry of user and fused UDFs for one engine connection.

    ``channel`` (optional) models an out-of-process execution boundary:
    when set, every UDF invocation's inputs and outputs take a serialized
    round trip through it.
    """

    def __init__(
        self,
        stats: Optional[StatsStore] = None,
        channel: Optional[ProcessChannel] = None,
        workers: Optional[Any] = None,
    ):
        self._udfs: Dict[str, RegisteredUdf] = {}
        self.stats = stats if stats is not None else StatsStore()
        self.channel = channel
        #: Definition versions: bumped when a re-registration changes the
        #: definition's content fingerprint (body, signature, flags).
        #: Versions survive drops so a drop+re-add of a *changed* body
        #: still rotates memo/result cache keys.
        self._versions: Dict[str, int] = {}
        self._def_fps: Dict[str, str] = {}
        self._version_listeners: List[Callable[[str, int], None]] = []
        #: UDF memoization cache (:class:`repro.cache.memo.UdfMemoCache`),
        #: attached by the CacheManager when the tier is enabled.
        self.memo: Optional[Any] = None
        #: Process-isolation worker pool
        #: (:class:`repro.resilience.workers.WorkerPool`); when set, UDF
        #: batches execute in supervised worker processes instead of
        #: round-tripping the modeled pickle channel.
        self.workers = workers
        #: Columnar-plane policy (:class:`repro.columnar.ColumnarPolicy`);
        #: when attached, eligible scalar batches run on the
        #: batch-at-a-time kernel path instead of the per-row wrapper.
        self.columnar: Optional[Any] = None
        #: Per-UDF circuit breakers (disabled until ``breakers.configure``).
        self.breakers = BreakerBoard()
        #: CREATE FUNCTION statements issued so far (for inspection).
        self.create_statements: List[str] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        udf: Any,
        *,
        replace: bool = False,
        dialect: Optional[Any] = None,
        deterministic: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> RegisteredUdf:
        """Register a decorated UDF (or a raw :class:`UdfDefinition`).

        Accepts the object produced by the ``@scalar_udf`` /
        ``@aggregate_udf`` / ``@table_udf`` decorators.  Builds the
        wrapper, records the CREATE FUNCTION statement, and makes the UDF
        resolvable by the planner.

        ``deterministic`` overrides the decorator's annotation at
        registration time (the CREATE FUNCTION ... DETERMINISTIC clause);
        passing it counts as an explicit annotation for cache
        eligibility.  ``version`` pins the definition version; without
        it, versions advance automatically whenever a re-registration
        changes the definition's content fingerprint.
        """
        definition = self._definition_of(udf)
        if deterministic is not None:
            definition = dataclasses.replace(
                definition,
                deterministic=bool(deterministic),
                deterministic_annotated=bool(deterministic),
            )
        key = definition.name
        if key in self._udfs and not replace:
            raise UdfRegistrationError(f"UDF {definition.name!r} already registered")
        wrapper = build_wrapper(definition)
        registered = RegisteredUdf(definition, wrapper, self)
        self._udfs[key] = registered
        self._advance_version(key, definition, version)
        if dialect is not None:
            self.create_statements.append(dialect.create_function_sql(definition))
        else:
            self.create_statements.append(_generic_create_function(definition))
        return registered

    def register_many(self, udfs: Sequence[Any], *, replace: bool = False) -> None:
        """Register several decorated UDFs."""
        for udf in udfs:
            self.register(udf, replace=replace)

    # ------------------------------------------------------------------
    # Definition versioning
    # ------------------------------------------------------------------

    def _advance_version(
        self, key: str, definition: UdfDefinition, pinned: Optional[int]
    ) -> None:
        fp = definition_fingerprint(definition)
        old_fp = self._def_fps.get(key)
        old_version = self._versions.get(key)
        if pinned is not None:
            new_version = pinned
        elif old_version is None:
            new_version = 1
        elif fp != old_fp:
            new_version = old_version + 1
        else:
            new_version = old_version
        self._def_fps[key] = fp
        if new_version != old_version:
            self._versions[key] = new_version
            for listener in self._version_listeners:
                listener(key, new_version)

    def version_of(self, name: str) -> int:
        """The current definition version (0 for never-registered names)."""
        return self._versions.get(name.lower(), 0)

    def add_version_listener(self, callback: Callable[[str, int], None]) -> None:
        """Subscribe to version bumps: ``callback(name, new_version)``."""
        self._version_listeners.append(callback)

    def remove_version_listener(
        self, callback: Callable[[str, int], None]
    ) -> None:
        """Unsubscribe ``callback`` (no-op when it is not subscribed).

        Copy-on-write, so a version bump iterating the list on another
        thread finishes over the list it started with."""
        self._version_listeners = [
            cb for cb in self._version_listeners if cb != callback
        ]

    def fingerprint_of(self, name: str) -> Optional[str]:
        """The current definition content fingerprint, or None."""
        return self._def_fps.get(name.lower())

    def restore_version(self, name: str, version: int, fingerprint: str) -> None:
        """Install a recovered definition version without firing
        listeners (recovery replays history, it doesn't make new).

        Re-registering the same body afterwards keeps the restored
        version (fingerprints match); re-registering a *changed* body
        advances past it — exactly the pre-crash behaviour, so cache
        keys never regress across a restart.
        """
        key = name.lower()
        if version > self._versions.get(key, 0):
            self._versions[key] = version
            self._def_fps[key] = fingerprint

    @staticmethod
    def _definition_of(udf: Any) -> UdfDefinition:
        if isinstance(udf, UdfDefinition):
            return udf
        definition = getattr(udf, "__udf__", None)
        if definition is None:
            raise UdfRegistrationError(
                f"{udf!r} is not a decorated UDF (use @scalar_udf / "
                f"@aggregate_udf / @table_udf)"
            )
        return definition

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> RegisteredUdf:
        try:
            return self._udfs[name.lower()]
        except KeyError:
            raise UdfRegistrationError(f"unknown UDF {name!r}") from None

    def lookup(self, name: str) -> Optional[RegisteredUdf]:
        return self._udfs.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._udfs

    def __iter__(self) -> Iterator[RegisteredUdf]:
        return iter(self._udfs.values())

    def names(self) -> List[str]:
        return list(self._udfs)

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._udfs:
            raise UdfRegistrationError(f"unknown UDF {name!r}")
        del self._udfs[key]


def _generic_create_function(definition: UdfDefinition) -> str:
    """A generic CREATE FUNCTION rendering used when no dialect is bound."""
    args = ", ".join(
        f"{name} {sql_type}"
        for name, sql_type in zip(
            definition.signature.arg_names, definition.signature.arg_types
        )
    )
    if definition.kind is UdfKind.TABLE:
        returns = "TABLE (" + ", ".join(
            f"{name} {sql_type}"
            for name, sql_type in zip(
                definition.out_columns, definition.signature.return_types
            )
        ) + ")"
    else:
        returns = str(definition.signature.return_types[0])
    return (
        f"CREATE FUNCTION {definition.name}({args}) RETURNS {returns} "
        f"LANGUAGE C AS 'qfusor_wrapper_{definition.name}'"
    )
