"""Executes one differential case across every engine configuration.

A case runs on each of the five engine adapters both unfused
(``adapter.execute_sql``) and through ``QFusor.execute`` twice — cold on
the floor rung, then prepared — plus the cached and translated lanes,
and on stdlib sqlite3 as the ground-truth oracle (when the query is
expressible there).  All results must normalize to the same multiset of
rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import QFusor
from repro.core.config import QFusorConfig
from repro.engines import (
    DuckDbLikeAdapter, MiniDbAdapter, ParallelDbAdapter, RowStoreAdapter,
    SqliteAdapter, TupleDbAdapter,
)

from .generator import DIFF_UDFS, ORACLE_UDFS, DiffCase, normalize

__all__ = ["DifferentialRunner", "Mismatch"]

_ADAPTERS = (
    ("minidb", MiniDbAdapter, {}),
    ("tupledb", TupleDbAdapter, {}),
    ("rowstore", RowStoreAdapter, {}),
    ("duckdb", DuckDbLikeAdapter, {}),
    ("dbx", ParallelDbAdapter, {"threads": 2}),
)

#: Opt-in (slow) configuration: the row store routing UDF batches
#: through the supervised process-isolated worker pool.
_PROCESS_ADAPTERS = (
    ("rowstore-proc", RowStoreAdapter, {"isolation": "process"}),
)

#: Engines that additionally run with every cache tier enabled (plan +
#: UDF memo + result).  Each case executes twice on these — cold and
#: immediately warm — and both results join the cross-system comparison,
#: so a stale cache entry (missed epoch bump, bad key) shows up as a
#: mismatch against the oracle.
_CACHED_ADAPTERS = (
    ("minidb-cached", MiniDbAdapter, {}),
    ("rowstore-cached", RowStoreAdapter, {}),
    ("dbx-cached", ParallelDbAdapter, {"threads": 2}),
)

#: Engines that additionally run with Froid-style UDF-to-SQL translation
#: enabled.  Translatable UDF references compile to plain SQL (no UDF
#: boundary); everything else falls back through fusion — either way the
#: result joins the cross-system comparison, so a mistranslation (sign
#: of %, division truncation, NULL logic, slicing off-by-one) shows up
#: as a mismatch against the oracle.
_TRANSLATED_ADAPTERS = (
    ("minidb-translated", MiniDbAdapter, {}),
    ("rowstore-translated", RowStoreAdapter, {}),
)


class Mismatch(Exception):
    """Raised when two systems disagree on a case."""

    def __init__(self, description: str, results: Dict[str, object]):
        super().__init__(description)
        self.description = description
        self.results = results


class DifferentialRunner:
    """Long-lived engines that differential cases run against.

    Engines (and their QFusor wrappers, trace caches, and registered
    UDFs) persist across cases; only tables change, and only when a new
    chunk's table differs from the registered one.
    """

    def __init__(self, *, include_process_isolation: bool = False):
        self.engines: List[Tuple[str, object, QFusor]] = []
        configs = _ADAPTERS
        if include_process_isolation:
            configs = configs + _PROCESS_ADAPTERS
        for name, make, kwargs in configs:
            adapter = make(**kwargs)
            for udf in DIFF_UDFS:
                adapter.register_udf(udf)
            self.engines.append((name, adapter, QFusor(adapter)))
        self.cached_engines: List[Tuple[str, object, QFusor]] = []
        for name, make, kwargs in _CACHED_ADAPTERS:
            adapter = make(**kwargs)
            for udf in DIFF_UDFS:
                # The differential UDFs are pure: annotate so the memo
                # and result tiers actually engage.
                adapter.register_udf(udf, deterministic=True)
            self.cached_engines.append(
                (name, adapter, QFusor(adapter, QFusorConfig.cached()))
            )
        self.translated_engines: List[Tuple[str, object, QFusor]] = []
        for name, make, kwargs in _TRANSLATED_ADAPTERS:
            adapter = make(**kwargs)
            for udf in DIFF_UDFS:
                # Translation requires the deterministic annotation
                # (unannotated UDFs are never translated, satellite rule).
                adapter.register_udf(udf, deterministic=True)
            self.translated_engines.append(
                (name, adapter, QFusor(adapter, QFusorConfig.translated()))
            )
        # The sqlite lane isolates translation itself: fusion/JIT are
        # disabled, so every case is either translated or passed through
        # to sqlite untouched — differences are the translator's fault.
        sqlite_translated = SqliteAdapter()
        for udf in ORACLE_UDFS:
            sqlite_translated.register_udf(udf, deterministic=True)
        self.translated_engines.append(
            (
                "sqlite-translated",
                sqlite_translated,
                QFusor(
                    sqlite_translated,
                    QFusorConfig.translated(
                        jit=False, fuse_udfs=False, offload_relational=False,
                        offload_aggregations=False, reorder=False,
                        inline=False,
                    ),
                ),
            )
        )
        self.oracle = SqliteAdapter()
        for udf in ORACLE_UDFS:
            self.oracle.register_udf(udf)
        self._registered_table: Optional[object] = None

    def close(self) -> None:
        """Release engine resources (worker pools, in particular)."""
        engines = self.engines + self.cached_engines + self.translated_engines
        for _name, adapter, _qf in engines:
            closer = getattr(adapter, "close", None)
            if closer is not None:
                closer()

    # ------------------------------------------------------------------

    def _ensure_table(self, case: DiffCase) -> None:
        if self._registered_table is case.table:
            return
        engines = self.engines + self.cached_engines + self.translated_engines
        for _name, adapter, _qf in engines:
            adapter.register_table(case.table, replace=True)
        self.oracle.register_table(case.table, replace=True)
        self._registered_table = case.table

    def results(self, case: DiffCase) -> Dict[str, List[tuple]]:
        """Normalized result rows per system name (errors as strings)."""
        self._ensure_table(case)
        out: Dict[str, object] = {}
        # Every QFusor lane runs the query twice: on first sight QFusor's
        # tier gate keeps a small statement cold on the floor rung, and
        # the second sighting prepares it (translate / fuse / JIT).
        for name, adapter, qfusor in self.engines:
            out[f"{name}/unfused"] = self._run(
                lambda: adapter.execute_sql(case.sql)
            )
            out[f"{name}/cold"] = self._run(lambda: qfusor.execute(case.sql))
            out[f"{name}/fused"] = self._run(lambda: qfusor.execute(case.sql))
        for name, _adapter, qfusor in self.cached_engines:
            out[f"{name}/cold"] = self._run(lambda: qfusor.execute(case.sql))
            # The floor run's stored result would answer the second run
            # before the ladder: drop it so that run prepares.
            qfusor.caches.results.clear()
            out[f"{name}/prepared"] = self._run(
                lambda: qfusor.execute(case.sql)
            )
            out[f"{name}/warm"] = self._run(lambda: qfusor.execute(case.sql))
        for name, _adapter, qfusor in self.translated_engines:
            if name.startswith("sqlite") and not case.oracle_ok:
                continue  # table-UDF shapes the sqlite adapter can't run
            out[f"{name}/cold"] = self._run(lambda: qfusor.execute(case.sql))
            out[f"{name}/translated"] = self._run(
                lambda: qfusor.execute(case.sql)
            )
        if case.oracle_ok:
            out["sqlite-oracle"] = self._run(
                lambda: self.oracle.execute_sql(case.sql)
            )
        return out

    @staticmethod
    def _run(fn):
        try:
            return normalize(fn())
        except Exception as exc:  # surfaced in the mismatch report
            return f"ERROR {type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------

    def check(self, case: DiffCase) -> Optional[Mismatch]:
        """None when every system agrees, else the mismatch found."""
        results = self.results(case)
        reference_name = (
            "sqlite-oracle" if "sqlite-oracle" in results
            else "minidb/unfused"
        )
        reference = results[reference_name]
        for name, rows in results.items():
            if rows != reference:
                return Mismatch(
                    f"{name} disagrees with {reference_name} on "
                    f"seed {case.seed}: {case.sql}",
                    results,
                )
        return None
