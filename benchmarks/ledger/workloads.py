"""The four ledger workloads: what is loaded, which statements run, and
how one timed pass is driven through the entry point a user calls.

The seed reaches only the ``repro.workloads`` generators and the service
op script; the engine sees generated tables and SQL text.

* ``udf_analytics`` / ``short_cold`` share the 17 paper queries and
  differ in scale and in whether the optimizer state is warm.
* ``scan_cheap_udf`` runs trivial UDF bodies over a large scan.
* ``service_mixed_rw`` replays a read/write script through
  ``QueryService`` with the WAL on.
"""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.obs import QueryReport
from repro.obs import tracer as obs_tracer
from repro.service import QueryService, TenantQuota
from repro.storage import Table
from repro.types import SqlType
from repro.udf import scalar_udf
from repro.workloads import udfbench, udo_wl, weld_wl, zillow

from harness import (
    Knobs, Pass, QuietGate, SpanRecorder, Tally, normalize, timed_passes,
)

#: The ``full`` profile every end-to-end number is measured on.
FULL_ADAPTER = {"columnar": True, "morsel_threads": 2}
FULL_CONFIG = {"translate_enabled": True, "plan_cache": True, "udf_memo": True}

#: Tracer stage -> ledger layer name.
STAGE_LAYERS = {
    "parse": "sql.parse", "plan": "engine.plan", "fuse": "core.fuse",
    "jit_compile": "jit.compile", "execute": "engine.execute",
}

# ----------------------------------------------------------------------
# Generated data, and loading it
# ----------------------------------------------------------------------


class Dataset(NamedTuple):
    """What the seed generates: tables and the UDFs the statements call.
    Generating it and registering it are separate costs: the cold
    workload pays registration on every pass and generation never."""

    tables: List[Table]
    udfs: List[Any]


def register(target: Any, data: Dataset) -> None:
    """Load a dataset into an adapter or a tenant session."""
    for table in data.tables:
        target.register_table(table, replace=True)
    for udf in data.udfs:
        target.register_udf(udf, replace=True)


# ----------------------------------------------------------------------
# Paper query set (udf_analytics, short_cold)
# ----------------------------------------------------------------------

PAPER_SUITES = (udfbench, zillow, weld_wl, udo_wl)


def paper_statements() -> Dict[str, str]:
    statements: Dict[str, str] = {}
    for suite in PAPER_SUITES:
        statements.update(suite.QUERIES)
    return statements


def paper_data(scale: Any, seed: int) -> Dataset:
    tables: List[Table] = []
    udfs: List[Any] = []
    for index, suite in enumerate(PAPER_SUITES):
        tables.extend(suite.build_tables(scale, seed + 101 * index))
        udfs.extend(getattr(suite, "ALL_UDFS", None) or suite.udfs.ALL_UDFS)
    return Dataset(tables, udfs)


# ----------------------------------------------------------------------
# scan_cheap_udf: trivial bodies, half inside the Python∩SQL
# intersection (translatable), half outside it
# ----------------------------------------------------------------------


@scalar_udf(deterministic=True)
def bump(x: int) -> int:
    return x + 1


@scalar_udf(deterministic=True)
def clip(x: int) -> int:
    if x < 1000:
        return 1000
    if x > 30000:
        return 30000
    return x


@scalar_udf(deterministic=True)
def initial(s: str) -> str:
    return s[:1] + "."


_VENUE_TAGS = {
    "EDBT": "conf", "VLDB": "conf", "SIGMOD": "conf", "ICDE": "conf",
    "CIDR": "conf", "TKDE": "journal", "PVLDB": "journal",
}


@scalar_udf(deterministic=True)
def venue_tag(s: str) -> str:
    return _VENUE_TAGS.get(s, "other")


@scalar_udf(deterministic=True)
def title_case(s: str) -> str:
    return s.title()


CHEAP_UDFS = [bump, clip, initial, venue_tag, title_case]

CHEAP_STATEMENTS = {
    "proj_in": "SELECT bump(pubid) AS b FROM pubs",
    "filter_in": "SELECT pubid FROM pubs WHERE clip(pubid) >= 30000",
    "group_in": "SELECT initial(venue) AS i, count(*) AS n FROM pubs GROUP BY i",
    "proj_out": "SELECT venue_tag(venue) AS t FROM pubs",
    "group_out": "SELECT venue_tag(venue) AS t, count(*) AS n FROM pubs GROUP BY t",
    "chain_out": "SELECT title_case(venue_tag(venue)) AS c FROM pubs",
}


def cheap_data(scale: Any, seed: int) -> Dataset:
    return Dataset([udfbench.data.build_pubs(scale, seed)], CHEAP_UDFS)


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def new_engine(knobs: Knobs, data: Dataset, adapter_knobs: Dict[str, Any],
               config: QFusorConfig) -> QFusor:
    """A fresh adapter loaded with ``data`` and a fresh QFusor on it."""
    adapter = knobs.build(MiniDbAdapter, **adapter_knobs)
    register(adapter, data)
    return QFusor(adapter, config)


class BatchEnv:
    """Generated data and one loaded engine on the ``full`` profile."""

    def __init__(self, workload: "BatchWorkload", seed: int, scale: Any,
                 knobs: Knobs):
        self.knobs = knobs
        self.cold = workload.cold
        self.data = workload.generate(scale, seed)
        self.config = knobs.build(QFusorConfig, **FULL_CONFIG)
        start = time.perf_counter()
        self.qfusor = new_engine(knobs, self.data, FULL_ADAPTER, self.config)
        self.load_s = time.perf_counter() - start
        self._retired: List[Any] = []
        #: Plain-engine reference rows per statement, filled by ``verify``.
        self.reference: Dict[str, List[Tuple]] = {}
        self.expected_rows: Dict[str, int] = {}

    @property
    def adapter(self) -> Any:
        return self.qfusor.adapter

    def engine(self) -> QFusor:
        """The QFusor one pass runs on.  Warm workloads keep theirs.  The
        cold workload gets a fresh adapter and a fresh QFusor per pass:
        registration, planning and compilation are paid again, data
        generation is not.  (A fresh QFusor on the *same* adapter would
        not be stationary: every QFusor leaves a version listener and its
        fused UDFs on the adapter's registry, and a pass got ~0.4 % slower
        per instance, 4x over 700 passes.)"""
        if self.cold:
            self._retired.append(self.qfusor.adapter)
            self.qfusor = new_engine(
                self.knobs, self.data, FULL_ADAPTER, self.config
            )
        return self.qfusor

    def between_passes(self) -> None:
        """Outside the pass clock: close retired adapters, collect."""
        while self._retired:
            self._retired.pop().close()
        gc.collect()

    def close(self) -> None:
        self.between_passes()
        self.adapter.close()


class BatchWorkload:
    kind = "batch"

    def __init__(self, name: str, generate: Callable[[Any, int], Dataset],
                 statements: Dict[str, str], scale: Any, quick_scale: Any,
                 cold: bool = False, warm_passes: int = 3):
        self.name = name
        self.generate = generate
        self.statements = statements
        self.scale = scale
        self.quick_scale = quick_scale
        self.cold = cold
        self.warm_passes = warm_passes

    def setup(self, seed: int, quick: bool, knobs: Knobs) -> BatchEnv:
        scale = self.quick_scale if quick else self.scale
        return BatchEnv(self, seed, scale, knobs)

    def verify(self, env: BatchEnv, tally: Tally) -> Dict[str, float]:
        """Before timing: every statement's rows through the full profile
        must equal the same statement on a plain engine with no QFusor.
        Returns the plain engine's pass seconds."""
        plain = MiniDbAdapter()
        register(plain, env.data)
        tables = {}
        start = time.perf_counter()
        for sid, sql in self.statements.items():
            tables[sid] = plain.execute_sql(sql)
        native_s = time.perf_counter() - start
        plain.close()
        for sid, table in tables.items():
            env.reference[sid] = normalize(table)
            env.expected_rows[sid] = table.num_rows
        self.verify_after(env, tally)
        return {"engine.native_pass_s": native_s}

    def verify_after(self, env: BatchEnv, tally: Tally) -> None:
        """Full row comparison of every statement against the reference
        (also run after timing, on the state the passes left behind)."""
        qfusor = env.engine()
        for sid, sql in self.statements.items():
            try:
                result = qfusor.execute(sql)
            except Exception as exc:  # counted, the run goes on
                tally.fail(f"{sid}: {type(exc).__name__}: {exc}")
                continue
            tally.check_rows(sid, result, env.reference[sid])

    def one_pass(self, env: BatchEnv, tally: Tally, current: Pass) -> None:
        execute = env.engine().execute
        for sid, sql in self.statements.items():
            start = time.perf_counter()
            try:
                rows = execute(sql).num_rows
            except Exception as exc:  # counted, the run goes on
                tally.fail(f"{sid}: {type(exc).__name__}: {exc}")
                continue
            current.reads.append((sid, time.perf_counter() - start))
            if rows == env.expected_rows[sid]:
                tally.ok()
            else:
                tally.fail(f"{sid}: {rows} rows, reference has "
                           f"{env.expected_rows[sid]}")

    def warm(self, env: BatchEnv, tally: Tally) -> None:
        for _ in range(self.warm_passes):
            env.between_passes()
            self.one_pass(env, tally, Pass())

    def measure(self, env: BatchEnv, seconds: float, tally: Tally,
                gate: Optional[QuietGate] = None) -> Dict[str, Any]:
        passes = timed_passes(
            lambda current: self.one_pass(env, tally, current),
            seconds, 5, before=env.between_passes, gate=gate,
        )
        return {"passes": passes, "n_clients": 1}

    def traced_pass(self, env: BatchEnv, tally: Tally, recorder: SpanRecorder,
                    index: int) -> Dict[str, float]:
        """One pass with the shipped tracer on and the per-statement
        report read back; returns the pass's stage seconds and counts."""
        out = new_stage_totals()
        out.update(rows_out=0, fused=0, deopts=0, translated=0)
        start = time.perf_counter()
        qfusor = env.engine()
        for sid, sql in self.statements.items():
            try:
                with recorder.span("statement", f"{index}:{sid}") as parent:
                    with obs_tracer.trace_query(sid) as trace:
                        result = qfusor.execute(sql)
            except Exception as exc:  # counted, the run goes on
                tally.fail(f"{sid}: {type(exc).__name__}: {exc}")
                continue
            tally.ok()
            report = qfusor.last_report
            out["rows_out"] += result.num_rows
            out["fused"] += len(report.fused)
            out["deopts"] += len(report.deopt_events)
            out["translated"] += report.translate_outcome() == "hit"
            fold_stages(trace, recorder, parent, out)
        out["wall"] = time.perf_counter() - start
        return out


def new_stage_totals() -> Dict[str, float]:
    totals = {layer: 0.0 for layer in STAGE_LAYERS.values()}
    totals["stage_sum"] = 0.0
    return totals


def fold_stages(trace: Any, recorder: SpanRecorder, parent: int,
                out: Dict[str, float]) -> None:
    """Copy the tracer's stage spans under the statement span and add
    their seconds (``jit_compile`` taken out of ``fuse``, as
    ``QueryReport.stage_seconds`` reports them) into ``out``."""
    for sp in trace.spans():
        layer = STAGE_LAYERS.get(sp.name)
        if layer is not None and sp.end is not None:
            recorder.open(layer, sp.start, end=sp.end, parent=parent)
    stages = QueryReport.from_trace(trace).stage_seconds()
    for stage, layer in STAGE_LAYERS.items():
        out[layer] += stages[stage]
        out["stage_sum"] += stages[stage]


# ----------------------------------------------------------------------
# service_mixed_rw
# ----------------------------------------------------------------------

TENANTS = ("acme", "beta")
NOTES_ROWS = 600
BLOCK_READS, BLOCK_WRITES = 80, 20
ZIPF_S = 1.1
INSERT_BASE = 1_000_000

_STATIC_READS = (
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
    ]
)

_SIDE_READS = [
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


def read_templates() -> List[Tuple[str, bool]]:
    """The 24 read templates in popularity order as (sql, touches the
    written table); every third rank reads ``notes``, so hot and cold
    templates alike are invalidated by writes."""
    static, side = list(_STATIC_READS), list(_SIDE_READS)
    return [
        (side.pop(0), True) if rank % 3 == 1 else (static.pop(0), False)
        for rank in range(len(_STATIC_READS) + len(_SIDE_READS))
    ]


def build_notes(pubs: Table, rows: int) -> Table:
    """The written side table: the first ``rows`` publications."""
    take = min(rows, pubs.num_rows)
    titles = pubs.column("title").to_list()[:take]
    return Table.from_dict("notes", {
        "id": (SqlType.INT, pubs.column("pubid").to_list()[:take]),
        "venue": (SqlType.TEXT, pubs.column("venue").to_list()[:take]),
        "title": (SqlType.TEXT, titles),
        "score": (SqlType.INT, [len(t) for t in titles]),
    })


def tenant_data(scale: Any, seed: int) -> Dataset:
    """UDFBench plus the ``notes`` side table."""
    tables = udfbench.build_tables(scale, seed)
    pubs = next(t for t in tables if t.name == "pubs")
    return Dataset(tables + [build_notes(pubs, NOTES_ROWS)],
                   udfbench.udfs.ALL_UDFS)


def write_statement(counter: int, rng: random.Random, pubs_rows: int) -> str:
    """The ``counter``-th write of a tenant's script: INSERT..SELECT with
    a UDF, UPDATE, then the DELETE that removes what the INSERT added, so
    ``notes`` stays within 10 rows of its loaded size."""
    block, step = divmod(counter, 3)
    first_id = INSERT_BASE + block * 10
    if step == 0:
        src = (block * 10) % max(pubs_rows - 10, 1)
        return (
            f"INSERT INTO notes SELECT pubid - {src} + {first_id}, "
            f"lower(venue), title, length(title) FROM pubs "
            f"WHERE pubid >= {src} AND pubid < {src + 10}"
        )
    if step == 1:
        at = rng.randrange(NOTES_ROWS - 10)
        return (
            f"UPDATE notes SET venue = lower(venue), score = score + 1 "
            f"WHERE id >= {at} AND id < {at + 10}"
        )
    return f"DELETE FROM notes WHERE id >= {first_id} AND id < {first_id + 10}"


def op_blocks(seed: int,
              pubs_rows: int) -> Iterator[List[Tuple[Optional[int], str]]]:
    """A tenant's endless script in blocks of 80 reads + 20 writes in a
    seeded order, each op a ``(read template rank | None for a write,
    sql)`` pair.  Reads are drawn Zipf(1.1) over the template ranks;
    writes follow ``write_statement`` order across blocks."""
    rng = random.Random(seed)
    templates = read_templates()
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(templates))]
    writes = 0
    while True:
        kinds = [True] * BLOCK_READS + [False] * BLOCK_WRITES
        rng.shuffle(kinds)
        ranks = iter(rng.choices(range(len(templates)), weights, k=BLOCK_READS))
        block: List[Tuple[Optional[int], str]] = []
        for is_read in kinds:
            if is_read:
                rank = next(ranks)
                block.append((rank, templates[rank][0]))
            else:
                block.append((None, write_statement(writes, rng, pubs_rows)))
                writes += 1
        yield block


class ServiceEnv:
    """A ``QueryService`` with both tenants loaded on the ``full``
    profile plus the result cache; WAL'd under ``root`` when given."""

    def __init__(self, quick: bool, seed: int, knobs: Knobs,
                 root: Optional[Any]):
        self.knobs = knobs
        self.root = root
        self.quick = quick
        self.scale = scale = (
            ServiceWorkload.quick_scale if quick else ServiceWorkload.scale
        )
        self.seed = seed
        config = knobs.build(QFusorConfig, result_cache=True, **FULL_CONFIG)
        durability = {} if root is None else {"durability_root": Path(root)}
        self.service = knobs.build(
            QueryService,
            lambda: knobs.build(MiniDbAdapter, **FULL_ADAPTER),
            capacity=2, config=config, **durability,
        )
        self.load_s = 0.0
        for tenant in TENANTS:
            session = self.service.add_tenant(
                tenant, knobs.build(TenantQuota, weight=1.0)
            )
            data = tenant_data(scale, tenant_seed(seed, tenant))
            start = time.perf_counter()
            register(session, data)
            self.load_s += time.perf_counter() - start
        self.pubs_rows = self.service.session(
            TENANTS[0]).adapter.database.catalog.get("pubs").num_rows
        #: Reference row count per (tenant, static read template), filled
        #: by verify.
        self.expected_rows: Dict[Tuple[str, int], int] = {}
        #: Acknowledged writes per tenant, in script order.
        self.acked: Dict[str, List[str]] = {tenant: [] for tenant in TENANTS}
        self.blocks = {
            tenant: op_blocks(tenant_seed(seed, tenant), self.pubs_rows)
            for tenant in TENANTS
        }

    def close(self) -> None:
        self.service.shutdown()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def tenant_seed(seed: int, tenant: str) -> int:
    return seed + 7 * TENANTS.index(tenant)


class ServiceWorkload:
    kind = "service"
    name = "service_mixed_rw"
    scale = "small"
    quick_scale = 300

    def __init__(self, work_dir: Callable[[], Any]):
        #: Makes a fresh empty directory inside the checkout.
        self._work_dir = work_dir
        self.statements = {
            f"r{rank:02d}": sql for rank, (sql, _) in enumerate(read_templates())
        }

    def setup(self, seed: int, quick: bool, knobs: Knobs,
              durable: bool = True) -> ServiceEnv:
        return ServiceEnv(quick, seed, knobs,
                          self._work_dir() if durable else None)

    # -- oracle ---------------------------------------------------------

    def _plain_twin(self, env: ServiceEnv, tenant: str) -> MiniDbAdapter:
        """A plain engine holding the tenant's data as loaded (generated
        again: the tenant's own copy of ``notes`` has been written to)."""
        adapter = MiniDbAdapter()
        register(adapter, tenant_data(env.scale, tenant_seed(env.seed, tenant)))
        return adapter

    def verify(self, env: ServiceEnv, tally: Tally) -> Dict[str, float]:
        """Before timing: one write cycle and every read template equal a
        plain engine, on each tenant.  The cycle leaves ``notes`` at its
        loaded size, on both sides alike."""
        probe_rng = random.Random(0)
        cycle = [
            write_statement(step, probe_rng, env.pubs_rows) for step in range(3)
        ]
        for tenant in TENANTS:
            twin = self._plain_twin(env, tenant)
            for sql in cycle:
                twin.execute_sql(sql)
                outcome = env.service.execute(tenant, sql)
                if outcome.ok:
                    env.acked[tenant].append(sql)
                    tally.ok()
                else:
                    tally.fail(f"{tenant} write: {outcome.status}")
            self._check_reads(env.service, tenant, twin, tally)
            # Static templates never see a write, so their row counts
            # hold for the whole run and are checked on every timed read.
            for rank, (sql, side) in enumerate(read_templates()):
                if not side:
                    env.expected_rows[tenant, rank] = \
                        twin.execute_sql(sql).num_rows
            twin.close()
        return {}

    def _check_reads(self, service: QueryService, tenant: str,
                     twin: MiniDbAdapter, tally: Tally) -> None:
        for sql in list(self.statements.values()) + ["SELECT * FROM notes"]:
            outcome = service.execute(tenant, sql)
            if not outcome.ok:
                tally.fail(f"{tenant} read: {outcome.status}: {outcome.error}")
                continue
            tally.check_rows(f"{tenant}: {sql[:50]}", outcome.result,
                             normalize(twin.execute_sql(sql)))

    def verify_after(self, env: ServiceEnv, tally: Tally) -> None:
        """After the run: crash the service (abandon the WALs without
        checkpoint or close), recover the durability root in a second
        one, and require every acknowledged write readable: ``notes`` and
        all read templates equal a replay of the acked writes on a plain
        engine."""
        if env.root is None:
            return
        for tenant in TENANTS:
            manager = env.service.session(tenant).adapter.durability
            if manager is not None and hasattr(manager, "abandon"):
                manager.abandon()
        recovered = QueryService(capacity=2, durability_root=env.root)
        try:
            reports = recovered.recover_tenants()
            for tenant in TENANTS:
                if tenant not in reports:
                    tally.fail(f"{tenant}: not recovered")
                    continue
                # Tables come back from the WAL; UDF bodies are code.
                for udf in udfbench.udfs.ALL_UDFS:
                    recovered.session(tenant).register_udf(udf, replace=True)
                twin = self._plain_twin(env, tenant)
                for sql in env.acked[tenant]:
                    twin.execute_sql(sql)
                self._check_reads(recovered, tenant, twin, tally)
                twin.close()
        finally:
            recovered.shutdown()

    # -- driving ----------------------------------------------------------

    def warm(self, env: ServiceEnv, tally: Tally) -> None:
        self.measure(env, 0.0, tally, min_rounds=2)

    def measure(self, env: ServiceEnv, seconds: float, tally: Tally,
                gate: Optional[QuietGate] = None, min_rounds: int = 5,
                recorder: Optional[SpanRecorder] = None) -> Dict[str, Any]:
        """Two closed-loop clients, one per tenant, each replaying its
        script block by block (a block is this workload's pass) until
        ``seconds`` have passed.  The clients start every block together:
        between rounds, with both of them parked, one thread does the
        bookkeeping and the quiet-core check that a client thread could
        not do while the other holds the GIL.  With a ``recorder`` every
        op runs under the shipped tracer."""
        gc.collect()
        clients = [
            _Client(env, tenant, recorder is not None) for tenant in TENANTS
        ]
        rounds = _Rounds(clients, seconds, min_rounds, gate)
        barrier = threading.Barrier(len(clients), action=rounds.between)
        threads = [
            threading.Thread(
                target=client.run, args=(barrier, rounds),
                name=f"ledger-client-{client.tenant}",
            )
            for client in clients
        ]
        # Tracing is switched on around both clients at once:
        # trace_query restores the *previous* global flag on exit, which
        # races when two threads enter and leave it independently.
        scope = (
            obs_tracer.enabled_scope(tracing=True, metrics=False)
            if recorder is not None else contextlib.nullcontext()
        )
        with scope:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if barrier.broken:
            raise RuntimeError("a service client thread died; see its traceback")
        passes: List[Pass] = []
        for client in clients:
            tally.merge(client.tally)
            passes.extend(client.passes)
            if recorder is not None:
                recorder.absorb(client.recorder)
        return {"passes": passes, "n_clients": len(clients), "clients": clients}


class _Rounds:
    """What happens between two rounds of blocks, run by one thread while
    every client waits at the barrier: keep or discard the round just
    finished, decide whether to stop, wait for a quiet core."""

    def __init__(self, clients: List["_Client"], seconds: float,
                 min_rounds: int, gate: Optional[QuietGate]):
        self.clients = clients
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.gate = gate
        self.stop = False
        self.kept = 0
        self.started: Optional[float] = None
        self.already = gate.spent if gate is not None else 0.0

    def between(self) -> None:
        now = time.perf_counter()
        gate = self.gate
        if self.started is None:
            self.started = now
        else:
            last = [client.current for client in self.clients]
            if gate is None or not gate.discard(max(p.seconds for p in last)):
                for client, done in zip(self.clients, last):
                    client.passes.append(done)
                self.kept += 1
        waited = gate.spent - self.already if gate is not None else 0.0
        elapsed = time.perf_counter() - self.started - waited
        self.stop = self.kept >= self.min_rounds and elapsed >= self.seconds
        if gate is not None and not self.stop:
            gate.wait()


class _Client:
    """One closed-loop client bound to one tenant."""

    def __init__(self, env: ServiceEnv, tenant: str, traced: bool):
        self.env = env
        self.tenant = tenant
        self.traced = traced
        self.tally = Tally()
        self.passes: List[Pass] = []
        self.current = Pass()
        # Traced runs only: per-block stage seconds, queue waits and
        # read latency split by result-cache outcome.
        self.recorder = SpanRecorder()
        self.block_stages: List[Dict[str, float]] = []
        self.hit_s: List[float] = []
        self.miss_s: List[float] = []
        self.wait_s: List[float] = []

    def run(self, barrier: threading.Barrier, rounds: _Rounds) -> None:
        blocks = self.env.blocks[self.tenant]
        run_block = self._run_block_traced if self.traced else self._run_block
        try:
            while True:
                barrier.wait()
                if rounds.stop:
                    return
                self.current = Pass()
                start = time.perf_counter()
                run_block(next(blocks), self.current)
                self.current.seconds = time.perf_counter() - start
        except BaseException:
            barrier.abort()  # release the other client
            raise

    def _run_block(self, block: List[Tuple[Optional[int], str]],
                   current: Pass) -> None:
        execute = self.env.service.execute
        tenant = self.tenant
        for rank, sql in block:
            start = time.perf_counter()
            outcome = execute(tenant, sql)
            self._account(rank, sql, outcome, time.perf_counter() - start,
                          current)

    def _account(self, rank: Optional[int], sql: str, outcome: Any,
                 elapsed: float, current: Pass) -> bool:
        if not outcome.ok:
            self.tally.fail(f"{self.tenant}: {outcome.status}: {outcome.error}")
            return False
        if rank is None:
            current.write_s.append(elapsed)
            self.env.acked[self.tenant].append(sql)
            self.tally.ok()
            return True
        current.reads.append((rank, elapsed))
        expected = self.env.expected_rows.get((self.tenant, rank))
        if expected is None or outcome.result.num_rows == expected:
            self.tally.ok()
        else:
            self.tally.fail(f"{self.tenant}: template {rank} returned "
                            f"{outcome.result.num_rows} rows, reference "
                            f"has {expected}")
        return True

    def _run_block_traced(self, block: List[Tuple[Optional[int], str]],
                          current: Pass) -> None:
        service = self.env.service
        qfusor = service.session(self.tenant).qfusor
        stages = new_stage_totals()
        index = len(self.block_stages)
        for position, (rank, sql) in enumerate(block):
            label = f"{index}:{self.tenant}:{position}"
            with self.recorder.span("statement", label) as parent:
                with obs_tracer.trace_query(label) as trace:
                    start = time.perf_counter()
                    outcome = service.execute(self.tenant, sql)
                    elapsed = time.perf_counter() - start
            fold_stages(trace, self.recorder, parent, stages)
            if not self._account(rank, sql, outcome, elapsed, current):
                continue
            self.wait_s.append(outcome.wait_s)
            if rank is not None:
                action = qfusor.last_report.cache_outcome("result")
                served = action in ("hit", "shared")
                (self.hit_s if served else self.miss_s).append(elapsed)
        self.block_stages.append(stages)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def make_workloads(work_dir: Callable[[], Any]) -> Dict[str, Any]:
    """The four workloads by name; ``work_dir`` makes a fresh directory
    inside the checkout for the service workload's WAL."""
    return {
        "udf_analytics": BatchWorkload(
            "udf_analytics", paper_data, paper_statements(),
            scale="medium", quick_scale=200,
        ),
        "scan_cheap_udf": BatchWorkload(
            "scan_cheap_udf", cheap_data, CHEAP_STATEMENTS,
            scale=40_000, quick_scale=2_000,
        ),
        "short_cold": BatchWorkload(
            "short_cold", paper_data, paper_statements(),
            scale=200, quick_scale=100, cold=True, warm_passes=2,
        ),
        "service_mixed_rw": ServiceWorkload(work_dir),
    }
