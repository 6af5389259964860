"""Benchmark harness: builds the systems each figure compares.

``build_engine_systems`` returns SQL-capable systems (engine adapters,
optionally wrapped in QFusor); ``build_pipeline_systems`` the non-SQL
baselines.  Every system exposes ``run(query_id) -> rows`` so figure
benches iterate uniformly, skipping unsupported (query, system) pairs —
the paper's "n/a" cells.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..baselines import (
    PandasLike, PySparkLike, TuplexLike, UdoLike, WeldLike, programs,
)
from ..core import QFusor, QFusorConfig
from ..engines import (
    DuckDbLikeAdapter, MiniDbAdapter, ParallelDbAdapter, RowStoreAdapter,
    TupleDbAdapter,
)
from ..workloads import udfbench, udo_wl, weld_wl, zillow

__all__ = [
    "SystemUnderTest", "build_engine_systems", "build_pipeline_systems",
    "time_call", "bench_scale", "ALL_SQL", "setup_adapter",
]

#: All benchmark queries by id.
ALL_SQL: Dict[str, str] = {}
for _workload in (udfbench, zillow, weld_wl, udo_wl):
    ALL_SQL.update(_workload.QUERIES)


def bench_scale(default: str = "small") -> str:
    """The benchmark scale, overridable via ``REPRO_BENCH_SCALE``."""
    return os.environ.get("REPRO_BENCH_SCALE", default)


def setup_adapter(adapter, scale: str):
    """Load every workload into an adapter."""
    udfbench.setup(adapter, scale)
    zillow.setup(adapter, scale)
    weld_wl.setup(adapter, scale)
    udo_wl.setup(adapter, scale)
    return adapter


class SystemUnderTest:
    """A named system with a uniform run(query_id) interface."""

    def __init__(
        self,
        name: str,
        runner: Callable[[str], Any],
        supports: Callable[[str], bool] = lambda _q: True,
    ):
        self.name = name
        self._runner = runner
        self._supports = supports

    def supports(self, query_id: str) -> bool:
        return self._supports(query_id)

    def run(self, query_id: str):
        return self._runner(query_id)


def _sql_system(name: str, adapter, qfusor: Optional[QFusor]) -> SystemUnderTest:
    if qfusor is not None:
        return SystemUnderTest(name, lambda q: qfusor.execute(ALL_SQL[q]))
    return SystemUnderTest(name, lambda q: adapter.execute_sql(ALL_SQL[q]))


#: SQL-engine systems: name -> (adapter factory, ``QFusorConfig`` factory
#: for the QFusor wrapped around it, or ``None`` to run natively).
ENGINE_SYSTEMS: Dict[str, Tuple[Callable[[], Any], Optional[Callable]]] = {
    # QFusor (full) on the vectorized column store
    "qfusor": (MiniDbAdapter, QFusorConfig),
    # QFusor restricted to the YeSQL profile
    "yesql": (MiniDbAdapter, QFusorConfig.yesql_like),
    # the vectorized engine natively (MonetDB-with-Python-UDF)
    "minidb": (MiniDbAdapter, None),
    # in-process tuple-at-a-time (SQLite model)
    "tupledb": (TupleDbAdapter, None),
    # tuple-at-a-time + out-of-process UDFs (PostgreSQL model)
    "rowstore": (RowStoreAdapter, None),
    # vectorized, no UDF JIT (DuckDB model)
    "duckdb": (DuckDbLikeAdapter, None),
    # vectorized + 4-thread-parallel relational ops (commercial)
    "dbx": (ParallelDbAdapter, None),
}


def build_engine_systems(
    scale: str, names: Sequence[str] = tuple(ENGINE_SYSTEMS)
) -> Dict[str, SystemUnderTest]:
    """SQL-engine systems for the cross-system figures."""
    systems: Dict[str, SystemUnderTest] = {}
    for name in names:
        if name not in ENGINE_SYSTEMS:
            raise ValueError(f"unknown engine system {name!r}")
        make_adapter, make_config = ENGINE_SYSTEMS[name]
        adapter = setup_adapter(make_adapter(), scale)
        qfusor = QFusor(adapter, make_config()) if make_config else None
        systems[name] = _sql_system(name, adapter, qfusor)
    return systems


def build_pipeline_systems(
    scale: str,
    names: Sequence[str] = ("tuplex", "udo", "weld", "pandas", "pyspark"),
    threads: int = 1,
) -> Dict[str, SystemUnderTest]:
    """The non-SQL pipeline baselines."""
    source = setup_adapter(MiniDbAdapter(), scale)
    tables = {t.name: t for t in source.database.catalog}

    def supports(system_name):
        return lambda q: system_name in programs.SUPPORT.get(q, frozenset())

    systems: Dict[str, SystemUnderTest] = {}
    for name in names:
        if name == "tuplex":
            system = TuplexLike(tables, threads=threads)
        elif name == "udo":
            system = UdoLike(tables)
        elif name == "udo-fused":
            system = UdoLike(tables, fused=True)
            systems[name] = SystemUnderTest(
                name,
                lambda q, s=system: s.run(programs.build_program(q)),
                supports("udo"),
            )
            continue
        elif name == "weld":
            system = WeldLike(tables)
        elif name == "pandas":
            system = PandasLike(tables)
        elif name == "pyspark":
            system = PySparkLike(tables, partitions=4)
        else:
            raise ValueError(f"unknown pipeline system {name!r}")
        systems[name] = SystemUnderTest(
            name,
            lambda q, s=system: s.run(programs.build_program(q)),
            supports(name),
        )
    return systems


def time_call(fn: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Best-of-N wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result

