"""The per-QFusor statement cache: one parse per SQL text.

``QFusor.statements`` maps exact SQL text to a
:class:`~repro.core.qfusor.ParsedStatement` (the parsed statement, its
fingerprint, the tables it reads and writes, its function calls).  These
tests pin that serving a statement from it changes no answer and no
decision: registry membership, UDF versions and table epochs are still
read on every execute, and a cached statement is never mutated.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import QFusor, QFusorConfig
from repro.core import qfusor as qfusor_module
from repro.core.qfusor import STATEMENT_CACHE_CAPACITY
from repro.engines import MiniDbAdapter, SqliteAdapter, TupleDbAdapter
from repro.errors import ParseError, ReproError, UdfRegistrationError
from repro.sql import parser as parser_module
from repro.sql import printer as printer_module
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.storage import Table
from repro.types import SqlType
from repro.udf import scalar_udf
from repro.workloads import udfbench, udo_wl, weld_wl, zillow

SUITES = (udfbench, zillow, weld_wl, udo_wl)

#: The 17 paper queries.
PAPER_QUERIES = [sql for suite in SUITES for sql in suite.QUERIES.values()]

#: The service workload's 24 read templates over udfbench plus ``notes``.
SERVICE_READS = (
    [f"SELECT cleandate(pubdate) AS d FROM pubs "
     f"WHERE pubid >= {a} AND pubid < {a + 250}" for a in (0, 500, 1000, 1500)]
    + [f"SELECT extractyear(pubdate) AS y, count(*) AS n FROM pubs "
       f"WHERE pubid < {b} GROUP BY y" for b in (600, 1200, 2000)]
    + [f"SELECT normalize(lower(payload)) AS p FROM artifacts "
       f"WHERE aid >= {c} AND aid < {c + 200}" for c in (400, 1000, 1600)]
    + [f"SELECT extractmonth(pubdate) AS m FROM pubs "
       f"WHERE pubid >= {d} AND pubid < {d + 300}" for d in (300, 900)]
    + [
        "SELECT grp, avglen(lower(name)) AS al FROM artifacts GROUP BY grp",
        "SELECT lower(venue) AS v, count(*) AS n FROM pubs GROUP BY v",
        "SELECT jsoncount(jpack(abstract)) AS n FROM pubs WHERE pubid < 150",
        "SELECT extractfunder(project) AS f, count(*) AS n FROM pubs "
        "WHERE pubid < 800 GROUP BY f",
        "SELECT lower(venue) AS v, count(*) AS n FROM notes GROUP BY v",
        "SELECT normalize(title) AS t FROM notes WHERE id < 100",
        "SELECT sum(score) AS s, count(*) AS n FROM notes "
        "WHERE lower(venue) LIKE '%db%'",
        "SELECT id, removeshortterms_text(title) AS t FROM notes "
        "WHERE id >= 200 AND id < 300",
        "SELECT lower(n.venue) AS v, count(*) AS c FROM notes AS n "
        "INNER JOIN pubs AS p ON n.id = p.pubid WHERE p.pubid < 300 GROUP BY v",
        "SELECT max(score) AS m FROM notes WHERE lower(venue) = 'vldb'",
        "SELECT normalize(lower(title)) AS t FROM notes "
        "WHERE id >= 400 AND id < 500",
        "SELECT count(*) AS n FROM notes WHERE length(normalize(title)) > 20",
    ]
)

ADAPTERS = {
    "minidb_columnar": lambda: MiniDbAdapter(columnar=True),
    "minidb": MiniDbAdapter,
    "tupledb": TupleDbAdapter,
    "sqlite": SqliteAdapter,
}

ROWS = 1000


def _load(adapter) -> None:
    tables = []
    udfs = []
    for index, suite in enumerate(SUITES):
        tables.extend(suite.build_tables(ROWS, 7 + 101 * index))
        udfs.extend(getattr(suite, "ALL_UDFS", None) or suite.udfs.ALL_UDFS)
    pubs = next(t for t in tables if t.name == "pubs")
    titles = pubs.column("title").to_list()
    tables.append(Table.from_dict("notes", {
        "id": (SqlType.INT, pubs.column("pubid").to_list()),
        "venue": (SqlType.TEXT, pubs.column("venue").to_list()),
        "title": (SqlType.TEXT, titles),
        "score": (SqlType.INT, [len(t) for t in titles]),
    }))
    for table in tables:
        adapter.register_table(table, replace=True)
    for udf in udfs:
        try:
            adapter.register_udf(udf, replace=True)
        except UdfRegistrationError:
            pass  # stdlib sqlite3 cannot host table UDFs


def _outcome(qf: QFusor, sql: str):
    """Rows (order-free, floats rounded) or the error class name (stdlib
    sqlite3 raises its own for the table UDFs it cannot host)."""
    try:
        rows = qf.execute(sql).rows()
    except Exception as exc:
        return type(exc).__name__
    return sorted(
        (tuple(round(v, 6) if isinstance(v, float) else v for v in row)
         for row in rows),
        key=repr,
    )


@pytest.mark.parametrize("config", [QFusorConfig(), QFusorConfig.cached()],
                         ids=["uncached", "cached"])
@pytest.mark.parametrize("engine", sorted(ADAPTERS))
def test_second_run_from_cache_matches_first(engine, config):
    adapter = ADAPTERS[engine]()
    _load(adapter)
    qf = QFusor(adapter, config)
    texts = PAPER_QUERIES + SERVICE_READS
    first = {sql: _outcome(qf, sql) for sql in texts}
    records = {sql: qf.statements.peek(sql) for sql in texts}
    second = {sql: _outcome(qf, sql) for sql in texts}
    assert second == first
    for sql in texts:
        fresh = parse(sql)
        cached = qf.statements.peek(sql)
        assert cached is records[sql]  # served, not re-parsed
        assert cached.statement == fresh
        assert to_sql(cached.statement) == to_sql(fresh)
    adapter.close()


@scalar_udf(name="sc_twice", deterministic=True)
def sc_twice(x: int) -> int:
    return x * 2


@scalar_udf(name="sc_twice", deterministic=True)
def sc_thrice(x: int) -> int:
    return x * 3


SQL = "SELECT sc_twice(a) AS d FROM sc_t"


def _engine(config: QFusorConfig = None) -> QFusor:
    adapter = MiniDbAdapter()
    adapter.register_table(
        Table.from_dict("sc_t", {"a": (SqlType.INT, [1, 2, 3])})
    )
    return QFusor(adapter, config)


def test_udf_registered_after_caching_takes_udf_path():
    qf = _engine()
    with pytest.raises(ReproError):
        qf.execute(SQL)  # sc_twice is not registered yet
    assert SQL in qf.statements
    qf.register_udf(sc_twice)
    assert sorted(qf.execute(SQL).to_rows()) == [(2,), (4,), (6,)]
    assert qf.last_report.is_udf_query
    assert qf.last_report.udfs == ["sc_twice"]


def test_new_udf_version_misses_result_cache():
    qf = _engine(QFusorConfig(result_cache=True))
    qf.register_udf(sc_twice)
    qf.execute(SQL)
    qf.execute(SQL)
    assert qf.last_report.cache_outcome("result") == "hit"
    qf.register_udf(sc_thrice, replace=True)
    assert sorted(qf.execute(SQL).to_rows()) == [(3,), (6,), (9,)]
    assert qf.last_report.cache_outcome("result") != "hit"


def test_syntax_error_raises_every_time_and_caches_nothing():
    qf = _engine()
    messages = []
    for _ in range(3):
        with pytest.raises(ParseError) as info:
            qf.execute("SELEC a FROM sc_t")
        messages.append((str(info.value), info.value.position))
    assert len(set(messages)) == 1
    assert len(qf.statements) == 0


def test_distinct_dml_texts_stay_bounded():
    qf = _engine()
    for i in range(10_000):
        qf.execute(f"INSERT INTO sc_t VALUES ({i})")
    assert len(qf.statements) == STATEMENT_CACHE_CAPACITY
    assert qf.execute("SELECT count(*) FROM sc_t").to_rows() == [(10_003,)]


def test_result_hit_neither_parses_nor_prints(monkeypatch):
    """Structural: a result-cache hit on a text seen before does no
    parse and no re-print (``sql_fingerprint``'s ``to_sql``)."""
    qf = _engine(QFusorConfig(result_cache=True))
    qf.register_udf(sc_twice)
    qf.execute(SQL)
    calls = {"parse": 0, "to_sql": 0}

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted

    # QFusor's own imports, and the modules fingerprint.py imports from.
    for module in (qfusor_module, parser_module):
        monkeypatch.setattr(module, "parse", counting("parse", parse))
    for module in (qfusor_module, printer_module):
        monkeypatch.setattr(module, "to_sql", counting("to_sql", to_sql))
    assert sorted(qf.execute(SQL).to_rows()) == [(2,), (4,), (6,)]
    assert qf.last_report.cache_outcome("result") == "hit"
    assert calls == {"parse": 0, "to_sql": 0}


def test_threads_share_one_cache():
    """More threads than cores race one QFusor's cold statement cache
    under a short switch interval: every answer matches a serial run,
    and each text ends with one record equal to a fresh parse."""
    texts = [f"SELECT sc_twice(a) AS d FROM sc_t WHERE a >= {k}"
             for k in range(4)]
    serial = _engine()
    serial.register_udf(sc_twice)
    expected = {sql: sorted(serial.execute(sql).to_rows()) for sql in texts}
    qf = _engine(QFusorConfig(result_cache=True))
    qf.register_udf(sc_twice)
    failures = []

    def worker(offset: int) -> None:
        for i in range(50):
            sql = texts[(offset + i) % len(texts)]
            try:
                rows = sorted(qf.execute(sql).to_rows())
            except Exception as exc:  # reported below, not lost in a thread
                failures.append(repr(exc))
                return
            if rows != expected[sql]:
                failures.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(qf.statements) == len(texts)
    for sql in texts:
        assert qf.statements.peek(sql).statement == parse(sql)
