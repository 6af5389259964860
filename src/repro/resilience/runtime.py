"""Resilience runtime: row-level policies, events, and fault hooks.

The batch loops that :mod:`repro.jit.codegen` generates — a fused
trace's own entries and a registered UDF's wrapper alike — call into
this module when a row raises.  What happens next depends on the active
:class:`ResilienceContext`'s policy:

``raise``
    Re-raise as :class:`~repro.errors.UdfExecutionError` naming the UDF
    and the row.  This is also the behaviour when *no* context is active
    (plain adapter execution outside QFusor keeps its historical
    semantics).
``reinterpret`` (default)
    Re-execute just the failed row through the interpreted per-UDF
    chain — the fused trace may be at fault (a poisoned cache entry, an
    inlining bug) while the constituent UDFs are fine.  If the
    interpreted replay fails too, the error is genuine and re-raises.
``null``
    Substitute SQL NULL for the failed row's output.
``skip``
    Drop the failed row (expand/table pipelines only; scalar pipelines
    treat ``skip`` as ``null`` since the output column must stay aligned
    with its input).

Aggregate steps never recover at row level — a failed ``step()`` leaves
partial state that cannot be reconciled — so aggregate wrappers always
raise and leave recovery to the query-level de-optimization guard in
:class:`repro.core.qfusor.QFusor`.

The module also hosts :data:`FAULTS`, the process-wide fault-injection
hook.  Generated batch loops check ``FAULTS.armed`` (a single attribute
load when disarmed) and forward to the armed
:class:`~repro.testing.faults.FaultInjector` — the deterministic harness
used by ``tests/resilience``.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import UdfExecutionError

__all__ = [
    "ROW_ERROR_POLICIES",
    "RowEvent",
    "DeoptEvent",
    "ResilienceContext",
    "activate",
    "active",
    "policy",
    "FaultHook",
    "FAULTS",
    "handle_scalar_row_error",
    "handle_expand_row_error",
    "handle_value_error",
]

ROW_ERROR_POLICIES = ("raise", "null", "skip", "reinterpret")


@dataclass
class RowEvent:
    """One row-level exception handled inside a fused batch wrapper."""

    udf: str
    row: Optional[int]
    action: str  # "reinterpreted" | "nulled" | "skipped"
    error: str


@dataclass
class DeoptEvent:
    """One query-level de-optimization (fused -> unfused re-execution)."""

    udf_names: Tuple[str, ...]
    error: str
    invalidated: Tuple[str, ...] = ()
    blocklisted: int = 0
    recovered: bool = True


@dataclass
class ResilienceContext:
    """Active-policy carrier for one guarded (fused) execution."""

    row_error_policy: str = "reinterpret"
    row_events: List[RowEvent] = field(default_factory=list)

    def record(self, udf: str, row: Optional[int], action: str,
               error: BaseException) -> None:
        self.row_events.append(RowEvent(udf, row, action, repr(error)))


class _ContextStack(threading.local):
    """Per-thread context stack: concurrent queries must not observe
    (or pop) each other's row-error policies."""

    def __init__(self):
        self.items: List[ResilienceContext] = []


_STACK = _ContextStack()


def active() -> Optional[ResilienceContext]:
    items = _STACK.items
    return items[-1] if items else None


def policy() -> str:
    """The row-error policy in effect; ``raise`` outside guarded runs."""
    ctx = active()
    return ctx.row_error_policy if ctx is not None else "raise"


@contextlib.contextmanager
def activate(context: ResilienceContext):
    _STACK.items.append(context)
    try:
        yield context
    finally:
        _STACK.items.pop()


class FaultHook:
    """Process-wide fault-injection switch checked by generated wrappers.

    Disarmed in production: the per-row cost is one attribute load.
    """

    __slots__ = ("armed", "injector")

    def __init__(self):
        self.armed = False
        self.injector: Any = None

    def arm(self, injector: Any) -> None:
        self.injector = injector
        self.armed = True

    def disarm(self) -> None:
        self.armed = False
        self.injector = None


#: The singleton bound into every generated wrapper namespace.
FAULTS = FaultHook()


def _record(udf: str, row: Optional[int], action: str,
            error: BaseException) -> None:
    ctx = active()
    if ctx is not None:
        ctx.record(udf, row, action, error)


def handle_scalar_row_error(
    udf: str,
    policy_name: str,
    exc: BaseException,
    row: Optional[int],
    reinterp: Optional[Callable[[], Any]],
    value: object = None,
) -> Any:
    """Resolve one failed scalar row; returns the substitute output.

    ``reinterp`` replays the row through the interpreted per-UDF chain;
    ``value`` is the offending input (for the error message).
    """
    if isinstance(exc, UdfExecutionError):
        raise exc
    if policy_name == "reinterpret" and reinterp is not None:
        try:
            result = reinterp()
        except Exception as replay_exc:
            raise UdfExecutionError(
                udf, replay_exc, row=row
            ) from replay_exc
        _record(udf, row, "reinterpreted", exc)
        return result
    if policy_name in ("null", "skip"):
        _record(udf, row, "nulled", exc)
        return None
    raise UdfExecutionError(udf, exc, row=row) from exc


def handle_expand_row_error(
    udf: str,
    policy_name: str,
    exc: BaseException,
    row: Optional[int],
    reinterp: Optional[Callable[[], Sequence[Tuple]]],
) -> Sequence[Tuple]:
    """Resolve one failed expand-mode row; returns replacement out-rows."""
    if isinstance(exc, UdfExecutionError):
        raise exc
    if policy_name == "reinterpret" and reinterp is not None:
        try:
            rows = list(reinterp())
        except Exception as replay_exc:
            raise UdfExecutionError(
                udf, replay_exc, row=row
            ) from replay_exc
        _record(udf, row, "reinterpreted", exc)
        return rows
    if policy_name == "skip":
        _record(udf, row, "skipped", exc)
        return ()
    if policy_name == "null":
        _record(udf, row, "nulled", exc)
        return None  # caller emits one all-NULL row
    raise UdfExecutionError(udf, exc, row=row) from exc


def handle_value_error(
    udf: str,
    policy_name: str,
    exc: BaseException,
    retry: Optional[Callable[[], Any]],
    args: Sequence[Any],
) -> Any:
    """Resolve one failed tuple-at-a-time scalar call."""
    if isinstance(exc, UdfExecutionError):
        raise exc
    value = args[0] if len(args) == 1 else tuple(args)
    if policy_name == "reinterpret" and retry is not None:
        try:
            result = retry()
        except Exception as replay_exc:
            raise UdfExecutionError(
                udf, replay_exc, value=value
            ) from replay_exc
        _record(udf, None, "reinterpreted", exc)
        return result
    if policy_name in ("null", "skip"):
        _record(udf, None, "nulled", exc)
        return None
    raise UdfExecutionError(udf, exc, value=value) from exc
