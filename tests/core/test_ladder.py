"""The fallback ladder as a table: (starting rung) x (fault).

Every row starts a query on one rung — freshly prepared, or served by
the plan cache — injects one fault, and asserts the whole walk: which
rungs ran, that an answered query returns exactly the rows of the
``QFusorConfig.disabled()`` run, the ``DeoptEvent`` fields, the
translation events, the blocklist / poison / plan-cache state left
behind, and which typed error escapes.

UDF rungs are faulted through :class:`repro.testing.FaultInjector`; a
translated statement runs no UDF at all, so its dispatch is faulted at
the adapter instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter, SqliteAdapter
from repro.errors import (
    QueryCancelledError, QueryTimeoutError, UdfExecutionError,
)
from repro.sql import ast
from repro.sql.translate import Untranslatable
from repro.storage import Table
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf import scalar_udf

#: Seconds ``l_add`` sleeps per call; only the whole-query-timeout
#: fault sets it, to burn a real deadline inside the fused trace.
STALL = [0.0]


@scalar_udf(name="l_add", deterministic=True)
def l_add(x: int) -> int:
    if STALL[0]:
        time.sleep(STALL[0])
    return x + 10


@scalar_udf(name="l_dbl", deterministic=True)
def l_dbl(x: int) -> int:
    return x * 2


# The translatable pair (l_add's stall keeps it out of the SQL subset).
@scalar_udf(name="t_add", deterministic=True)
def t_add(x: int) -> int:
    return x + 10


@scalar_udf(name="t_dbl", deterministic=True)
def t_dbl(x: int) -> int:
    return x * 2


@dataclass
class Start:
    """Where the walk begins."""

    id: str
    adapter: type
    config: Callable[..., QFusorConfig]
    udfs: tuple = ("l_add", "l_dbl")
    top: str = "fused"
    #: Run once clean first, so the faulted run is a plan-cache hit.
    cached: bool = False
    dml: bool = False

    @property
    def sql(self) -> str:
        add, dbl = self.udfs
        select = f"SELECT {dbl}({add}(v)) AS o FROM t"
        return f"INSERT INTO sink {select}" if self.dml else select


def _plan_cached(**kw):
    return QFusorConfig(plan_cache=True, **kw)


def _translated_cached(**kw):
    return QFusorConfig.translated(plan_cache=True, **kw)


STARTS = [
    Start("translated", MiniDbAdapter, QFusorConfig.translated,
          udfs=("t_add", "t_dbl"), top="translated"),
    Start("fused-path2", MiniDbAdapter, QFusorConfig),
    Start("rewritten-path1", SqliteAdapter, QFusorConfig),
    Start("dml", MiniDbAdapter, QFusorConfig, dml=True),
    Start("hit-translated", MiniDbAdapter, _translated_cached,
          udfs=("t_add", "t_dbl"), top="translated", cached=True),
    Start("hit-plan", MiniDbAdapter, _plan_cached, cached=True),
    Start("hit-sql", SqliteAdapter, _plan_cached, cached=True),
]


@dataclass
class Fault:
    """What goes wrong, and what the ladder must make of it."""

    id: str
    #: The exception delivered to the top rung.
    exc: Optional[Callable[[], BaseException]] = None
    #: Also fault every rung below (a genuinely broken UDF).
    every_rung: bool = False
    config: dict = field(default_factory=dict)
    timeout_s: Optional[float] = None
    stall: float = 0.0
    #: Per top-rung kind: the rungs that run, in order ...
    walk: dict = field(default_factory=dict)
    #: ... and the error type that escapes (None: the query answers).
    escapes: dict = field(default_factory=dict)


FAULTS = [
    Fault(
        "udf-error",
        exc=lambda: RuntimeError("boom"),
        walk={"fused": ["fused", "unfused"],
              "translated": ["translated", "fused"]},
    ),
    Fault(
        "udf-error-deopt-off",
        exc=lambda: RuntimeError("boom"),
        config={"deopt": False},
        walk={"fused": ["fused"], "translated": ["translated"]},
        escapes={"fused": UdfExecutionError, "translated": RuntimeError},
    ),
    Fault(
        "fails-unfused-too",
        exc=lambda: RuntimeError("boom"),
        every_rung=True,
        walk={"fused": ["fused", "unfused"],
              "translated": ["translated", "fused", "unfused"]},
        escapes={"fused": UdfExecutionError,
                 "translated": UdfExecutionError},
    ),
    Fault(
        # The per-batch cap fires inside the fused trace while the query
        # deadline has slack: the one retry lower down is allowed.  A
        # translated statement has no UDF boundary to blame.
        "batch-timeout-with-slack",
        exc=lambda: QueryTimeoutError(kind="udf_batch"),
        timeout_s=30.0,
        walk={"fused": ["fused", "unfused"], "translated": ["translated"]},
        escapes={"translated": QueryTimeoutError},
    ),
    Fault(
        # A real deadline burnt inside the top rung: the time is gone.
        "query-timeout",
        exc=lambda: QueryTimeoutError(kind="query"),
        timeout_s=0.15,
        stall=0.3,
        walk={"fused": ["fused"], "translated": ["translated"]},
        escapes={"fused": QueryTimeoutError,
                 "translated": QueryTimeoutError},
    ),
    Fault(
        "cancelled",
        exc=lambda: QueryCancelledError("cancelled"),
        walk={"fused": ["fused"], "translated": ["translated"]},
        escapes={"fused": QueryCancelledError,
                 "translated": QueryCancelledError},
    ),
]


def _adapter(start: Start):
    adapter = start.adapter()
    adapter.register_table(Table.from_rows(
        "t", [("v", SqlType.INT)], [(1,), (-2,), (None,), (5,), (0,)]
    ))
    if start.dml:
        adapter.register_table(Table.from_rows("sink", [("o", SqlType.INT)], []))
    for udf in (l_add, l_dbl, t_add, t_dbl):
        adapter.register_udf(udf)
    return adapter


def _answer(qfusor: QFusor, start: Start):
    """What the query left behind: its rows, or the sink's for DML."""
    result = qfusor.execute(start.sql)
    if start.dml:
        result = qfusor.execute("SELECT o FROM sink")
    return sorted(map(repr, result.to_rows()))


def _fault_translated_dispatch(qfusor: QFusor, make_exc) -> None:
    """Raise from the adapter the first time a statement is dispatched —
    on these starts, the translated rewrite."""
    original = qfusor.adapter.execute_sql
    fired = []

    def faulting(arg, *args, **kwargs):
        if not fired and isinstance(arg, ast.Statement):
            fired.append(arg)
            raise make_exc()
        return original(arg, *args, **kwargs)

    qfusor.adapter.execute_sql = faulting


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.id)
@pytest.mark.parametrize("start", STARTS, ids=lambda s: s.id)
def test_ladder(start: Start, fault: Fault):
    reference = _answer(
        QFusor(_adapter(start), QFusorConfig.disabled()), start
    )
    # Row faults must surface as query-level faults, not be absorbed by
    # the fused wrappers' row-level reinterpretation.
    qfusor = QFusor(
        _adapter(start),
        start.config(row_error_policy="raise", **fault.config),
    )
    if start.cached:
        assert _answer(qfusor, start) == reference
        assert len(qfusor.caches.plan) == 1

    walk = []
    run_rung = qfusor._run_rung

    def spy(rung, report):
        walk.append(rung.name)
        return run_rung(rung, report)

    qfusor._run_rung = spy

    add = start.udfs[0]
    injector = FaultInjector()
    if start.top == "translated":
        _fault_translated_dispatch(qfusor, fault.exc)
    elif not fault.stall:
        injector.udf_exception(add, times=1, exc=fault.exc())
    if fault.every_rung:
        injector.udf_exception(add, scope="any", times=1000)
    escapes = fault.escapes.get(start.top)
    STALL[0] = fault.stall
    try:
        with inject(injector):
            if escapes is None:
                rows = qfusor.execute(start.sql, timeout_s=fault.timeout_s)
            else:
                with pytest.raises(escapes):
                    qfusor.execute(start.sql, timeout_s=fault.timeout_s)
    finally:
        STALL[0] = 0.0
    report = qfusor.last_report
    del qfusor._run_rung  # the sink read-back below is not part of the walk

    # -- the walk, and the answer ----------------------------------------
    assert walk == fault.walk[start.top]
    if escapes is None:
        if start.dml:
            rows = qfusor.execute("SELECT o FROM sink")
        assert sorted(map(repr, rows.to_rows())) == reference

    # -- DeoptEvents: one per rung the walk fell off ---------------------
    events = list(report.deopt_events)
    fell_off = walk[:-1]
    assert len(events) == len(fell_off)
    blocked = 0
    for rung, event in zip(fell_off, events):
        if rung == "translated":
            assert event.udf_names == tuple(sorted(start.udfs))
            assert (event.invalidated, event.blocklisted) == ((), 0)
        else:
            (fused_name,) = report.fused_names
            assert event.udf_names == (fused_name,)
            assert event.invalidated == (fused_name,)
            assert event.blocklisted == 1
            assert fused_name not in qfusor.adapter.registry
            blocked += 1
    # Only the event of the last rung left is marked by a failing floor.
    assert [e.recovered for e in events] == (
        [True] * len(events) if escapes is None
        else [True] * (len(events) - 1) + [False] * bool(events)
    )
    assert report.deopted == bool(events)

    # -- translation events and the state left behind --------------------
    outcomes = [e.outcome for e in report.translate_events]
    if start.top == "translated":
        assert outcomes == (["hit", "deopt"] if events else ["hit"])
        assert report.translate_events[0].reason == (
            "plan-cache" if start.cached else ""
        )
        assert report.translated == ([] if events else sorted(start.udfs))
        poisoned = isinstance(qfusor.translator.translate(add), Untranslatable)
        assert poisoned == bool(events)
    else:
        assert outcomes == []
    assert len(qfusor.heuristics.blocklist) == blocked
    if start.cached:
        # A de-optimized walk disproves the entry that served it; an
        # error that merely passes through leaves it alone.
        assert len(qfusor.caches.plan) == (0 if events else 1)
        actions = [e.action for e in report.cache_events if e.tier == "plan"]
        assert actions == (["hit", "invalidate"] if events else ["hit"])
