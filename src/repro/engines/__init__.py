"""Engine adapters — the pluggable integrations of QFusor (section 5.5).

Each adapter exposes the same narrow interface
(:class:`~repro.engines.base.EngineAdapter`): an EXPLAIN probe returning
a structured plan, UDF registration, and execution — either of a
rewritten plan (path 2) or of rewritten SQL text (path 1).

Two integrations exist.  :class:`~repro.engines.sqlite_adapter.
SqliteAdapter` drives Python's real stdlib ``sqlite3`` through
``create_function`` (genuine third-party pluggability, SQL-rewrite path
only).  Everything else is one adapter over our own engine,
:class:`~repro.engines.minidb.DatabaseAdapter`, declared as five
profiles (``name`` keys :data:`repro.core.dialect.DIALECTS`; "pushdown"
is the optimizer's ``push_filter_below_udf_project``):

===================== ========== =========== ====== ======== ===========
profile               name       database    model  pushdown models
===================== ========== =========== ====== ======== ===========
``MiniDbAdapter``     minidb     minidb      vector yes      MonetDB
``RowStoreAdapter``   minidb_row minidb_row  tuple  no       PostgreSQL
``TupleDbAdapter``    sqlite     tupledb     tuple  yes      SQLite
``DuckDbLikeAdapter`` duckdb     duckdb_like vector yes      DuckDB
``ParallelDbAdapter`` dbx        dbx         vector yes      "dbX"
===================== ========== =========== ====== ======== ===========

and what each adds: ``MiniDbAdapter`` (the default host) adopts an
existing ``database``, recovers a ``durability_dir`` and can start
``columnar``; ``RowStoreAdapter`` puts a pickle ``ProcessChannel`` on the
UDF boundary (``isolation="process"``: real worker processes, which
ship each batch as the same pickle) and takes a ``durability_dir``;
``ParallelDbAdapter`` gives the database a threaded ``own_scheduler``
(``threads``).  Worker pools, WAL settings and the
columnar plane are configured on their owners:
``adapter.enable_process_isolation(...)`` /
``adapter.workers.configure(...)``,
:func:`repro.storage.durability.attach_to_adapter`,
``adapter.enable_columnar(...)``.
"""

from .base import EngineAdapter
from .minidb import (
    DuckDbLikeAdapter, MiniDbAdapter, ParallelDbAdapter, RowStoreAdapter,
    TupleDbAdapter,
)
from .sqlite_adapter import SqliteAdapter

__all__ = [
    "EngineAdapter", "MiniDbAdapter", "RowStoreAdapter", "TupleDbAdapter",
    "SqliteAdapter", "ParallelDbAdapter", "DuckDbLikeAdapter",
]
