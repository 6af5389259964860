"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions from outside,
or reads a counter the layer already keeps.  A probe whose API is gone
reports ``null`` with the reason and the run goes on, so a later PR may
delete an executor or a knob without breaking the benchmark it is judged
by.  Module names are the layer names.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.sql import parse
from repro.storage.durability.wal import IO_CALLS

from harness import (
    Knobs, Pass, SpanRecorder, Tally, drift_pct, median, percentile,
    timed_passes,
)
from workloads import (
    TENANTS, BatchWorkload, ServiceWorkload, new_engine, register,
    write_statement,
)

#: The cumulative ladder below ``full``: adapter knobs, QFusorConfig
#: factory classmethod (None: the constructor), config knobs.
RUNGS = (
    ("unfused", {}, "disabled", {}),
    ("jit_only", {}, "jit_only", {}),
    ("fused", {}, None, {}),
    ("translate", {}, None, {"translate_enabled": True}),
    ("columnar", {"columnar": True}, None, {"translate_enabled": True}),
)

NOT_HERE = "not defined on this workload"


class Layers:
    """Collects per-layer values; a failing probe nulls its metrics."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.values: Dict[str, float] = {}
        self.nulls: Dict[str, str] = {}
        self.detail: Dict[str, Any] = {}

    def probe(self, metrics: Sequence[str], fn: Callable[[], Dict[str, float]]) -> None:
        try:
            with self.recorder.span(f"probe:{metrics[0]}"):
                self.values.update(fn())
        except Exception as exc:  # a probe must never end the run
            for name in metrics:
                self.nulls[name] = f"{type(exc).__name__}: {exc}"

    def skip(self, metrics: Iterable[str], reason: str = NOT_HERE) -> None:
        for name in metrics:
            self.nulls[name] = reason


# ----------------------------------------------------------------------
# Counters the layers already keep
# ----------------------------------------------------------------------


def cache_counters(qfusor: QFusor) -> Dict[str, int]:
    out = {"trace_hits": qfusor.cache.hits, "trace_misses": qfusor.cache.misses}
    for tier in ("plan", "memo", "results"):
        cache = getattr(qfusor.caches, tier)
        out[f"{tier}_hits"] = 0 if cache is None else cache.hits
        out[f"{tier}_misses"] = 0 if cache is None else cache.misses
    return out


def ratio(hits: float, misses: float) -> Optional[float]:
    return hits / (hits + misses) if hits + misses else None


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def io_calls() -> int:
    return sum(IO_CALLS.values())


# ----------------------------------------------------------------------
# Probes shared by batch and service
# ----------------------------------------------------------------------


def parse_probe(statements: Iterable[str]) -> Dict[str, float]:
    statements = list(statements)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for sql in statements:
            parse(sql)
        samples.append(time.perf_counter() - start)
    return {"sql.parse_s": median(samples), "sql.statements": len(statements)}


def translate_probe(adapter: Any, statements: Iterable[str]) -> Dict[str, float]:
    """A cold translator over one pass's statements: what a first
    execution pays for Froid-style translation."""
    from repro.sql.translate import UdfTranslator

    parsed = [parse(sql) for sql in statements]
    translator = UdfTranslator(
        adapter.registry, getattr(adapter, "translate_dialect", "python")
    )
    catalog = adapter.database.catalog
    start = time.perf_counter()
    for statement in parsed:
        translator.translate_statement(statement, catalog)
    return {"sql.translate_s": time.perf_counter() - start}


def plan_probe(adapter: Any, statements: Iterable[str]) -> Dict[str, float]:
    statements = list(statements)
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for sql in statements:
            adapter.explain_plan(sql)
        samples.append(time.perf_counter() - start)
    return {"engine.plan_s": median(samples)}


def dispatch_floor_probe(qfusor: QFusor, adapter: Any) -> Dict[str, float]:
    """A no-UDF one-row statement through ``QFusor.execute`` minus the
    same through ``adapter.execute_sql``: the ladder's fixed cost per
    query."""
    sql = "SELECT pubid FROM pubs LIMIT 1"
    through, direct = [], []
    for _ in range(200):
        start = time.perf_counter()
        qfusor.execute(sql)
        middle = time.perf_counter()
        adapter.execute_sql(sql)
        through.append(middle - start)
        direct.append(time.perf_counter() - middle)
    return {"core.dispatch_floor_s": median(through) - median(direct)}


# ----------------------------------------------------------------------
# udf.body_floor: bodies applied in a plain list comprehension
# ----------------------------------------------------------------------


def walk_nodes(node: Any, stop: Callable[[Any], bool]) -> Iterable[Any]:
    """Every dataclass node under ``node``; does not descend below a node
    for which ``stop`` is true (it is still yielded)."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        yield node
        if stop(node):
            return
        for field in dataclasses.fields(node):
            yield from walk_nodes(getattr(node, field.name), stop)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from walk_nodes(item, stop)


def body_floor_probe(adapter: Any, statements: Iterable[str]) -> Dict[str, float]:
    """Each scalar UDF call tree over plain columns, evaluated body by
    body with no engine, wrapper or buffer in between: the floor no data
    plane can beat.  Trees over derived columns are left out."""
    from repro.sql import ast_nodes as ast
    from repro.storage import serde
    from repro.types import SqlType
    from repro.udf import UdfKind

    registry = adapter.registry
    catalog = adapter.database.catalog

    def scalar(node: Any) -> bool:
        if not isinstance(node, ast.FunctionCall):
            return False
        registered = registry.lookup(node.name)
        return registered is not None and registered.kind is UdfKind.SCALAR

    def evaluate(node: Any, tables: List[Any]) -> Tuple[Optional[List[Any]], float]:
        """(values, body seconds) of a call tree; values None if some
        argument is neither a base column, a literal nor a scalar UDF."""
        if isinstance(node, ast.ColumnRef):
            for table in tables:
                if node.name in table.schema:
                    values = table.column(node.name).to_list()
                    if table.schema.type_of(node.name) is SqlType.JSON:
                        values = serde.deserialize_values(values)
                    return values, 0.0
            return None, 0.0
        if isinstance(node, ast.Literal):
            return node.value, 0.0
        if not scalar(node):
            return None, 0.0
        spent, args, size = 0.0, [], None
        for arg in node.args:
            values, seconds = evaluate(arg, tables)
            if values is None:
                return None, 0.0
            spent += seconds
            if isinstance(values, list):
                size = len(values)
            args.append(values)
        if size is None:
            return None, 0.0
        columns = [a if isinstance(a, list) else [a] * size for a in args]
        body = registry.lookup(node.name).definition.func
        start = time.perf_counter()
        out = [
            None if None in row else body(*row) for row in zip(*columns)
        ]
        return out, spent + time.perf_counter() - start

    total, trees = 0.0, 0
    for sql in statements:
        statement = parse(sql)
        nodes = list(walk_nodes(statement, scalar))
        tables = [
            catalog.get(n.name) for n in nodes
            if isinstance(n, ast.TableRef) and n.name in catalog
        ]
        for node in nodes:
            if scalar(node):
                values, seconds = evaluate(node, tables)
                if values is not None:
                    total += seconds
                    trees += 1
    if not trees:
        raise LookupError("no scalar UDF call over base columns")
    return {"udf.body_floor_s": total, "udf.body_trees": trees}


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def pass_of(adapter_or_qfusor: Any, statements: Dict[str, str]) -> Callable[[], None]:
    execute = getattr(adapter_or_qfusor, "execute", None) \
        or adapter_or_qfusor.execute_sql

    def one_pass() -> None:
        for sql in statements.values():
            execute(sql).num_rows
    return one_pass


def budgeted_median(one_pass: Callable[[], None], seconds: float,
                    warm: int = 1,
                    before: Callable[[], None] = gc.collect) -> Tuple[float, int]:
    """Median seconds of ``one_pass`` over as many passes as fit in
    ``seconds`` (at least one), after ``warm`` untimed passes."""
    for _ in range(warm):
        one_pass()
    passes = timed_passes(lambda _current: one_pass(), seconds, 1, before)
    return median([p.seconds for p in passes]), len(passes)


def rung_probe(workload: BatchWorkload, env: Any, knobs: Knobs, budget: float,
               adapter_knobs: Dict[str, Any], factory: Optional[str],
               config_knobs: Dict[str, Any]) -> Tuple[float, int]:
    """Median pass seconds of one ladder rung, and the passes it rests
    on.  Like the full profile, a warm workload keeps one engine and the
    cold one builds a fresh engine every pass."""
    make = QFusorConfig if factory is None else getattr(QFusorConfig, factory)
    config = knobs.build(make, **config_knobs)
    adapters: List[Any] = []

    def engine() -> QFusor:
        qfusor = new_engine(knobs, env.data, adapter_knobs, config)
        adapters.append(qfusor.adapter)
        return qfusor

    def close_adapters() -> None:
        while adapters:
            adapters.pop().close()
        gc.collect()

    if workload.cold:
        def one_pass() -> None:
            pass_of(engine(), workload.statements)()
        before = close_adapters
    else:
        one_pass = pass_of(engine(), workload.statements)
        before = gc.collect
    try:
        # A disabled QFusor passes statements through: nothing to warm.
        return budgeted_median(one_pass, budget,
                               0 if factory == "disabled" else 1, before)
    finally:
        close_adapters()


def morsel_counters(adapter: Any) -> Dict[str, int]:
    stats = adapter.columnar.scheduler.stats()
    return {"morsels": stats["morsels_run"], "steals": stats["steals"]}


def batch_layers(workload: BatchWorkload, env: Any, seconds: float,
                 tally: Tally, recorder: SpanRecorder,
                 pre: Dict[str, float]) -> Layers:
    layers = Layers(recorder)
    layers.values.update(pre)
    statements = workload.statements
    sqls = list(statements.values())
    knobs = Knobs()

    # -- alternating untraced / traced passes on the full profile --------
    def counters() -> Dict[str, int]:
        out = cache_counters(env.qfusor)
        try:
            out.update(morsel_counters(env.adapter))
        except (AttributeError, KeyError, TypeError):
            pass  # reported null below
        return out

    untraced: List[float] = []
    reads: List[float] = []
    traced: List[Dict[str, float]] = []
    counts: List[Dict[str, int]] = []
    io_before = io_calls()
    deadline = time.perf_counter() + 0.35 * seconds
    while len(traced) < 3 or time.perf_counter() < deadline:
        for run_traced in (False, True):
            env.between_passes()
            # A cold pass runs on a fresh engine: its counters start at 0.
            before = {} if env.cold else counters()
            if run_traced:
                traced.append(workload.traced_pass(env, tally, recorder, len(traced)))
            else:
                current = Pass()
                start = time.perf_counter()
                workload.one_pass(env, tally, current)
                untraced.append(time.perf_counter() - start)
                reads.extend(current.read_s)
            counts.append(delta(counters(), before))
    n_passes = len(counts)
    full_p50 = median(untraced)
    traced_p50 = median([t["wall"] for t in traced])
    total = {key: sum(c[key] for c in counts) for key in counts[0]}
    compiles = [c["trace_misses"] for c in counts]
    layers.detail.update(
        untraced_passes=len(untraced), traced_passes=len(traced),
        compiles_per_pass=compiles,
        compiles_identical=len(set(compiles)) == 1,
    )
    layers.values.update({
        "engine.execute_s": median([t["engine.execute"] for t in traced]),
        "core.fuse_s": median([t["core.fuse"] for t in traced]),
        "jit.compile_s": median([t["jit.compile"] for t in traced]),
        "engine.rows_out": median([t["rows_out"] for t in traced]),
        "core.fused_sections": median([t["fused"] for t in traced]),
        "core.deopts": sum(t["deopts"] for t in traced),
        "sql.translated_share":
            median([t["translated"] for t in traced]) / len(statements),
        "jit.compiles_per_pass": median(compiles),
        "rung.full_pass_s": full_p50,
        "obs.trace_overhead_pct": (traced_p50 - full_p50) / full_p50 * 100.0,
        "ledger.stage_sum_over_wall":
            median([t["stage_sum"] / t["wall"] for t in traced]),
        "ledger.drift_pct": drift_pct(untraced),
        "ledger.passes": len(untraced),
        "ledger.pass_s_p90": percentile(untraced, 0.90),
        "ledger.read_ms_p95": percentile(reads, 0.95) * 1e3,
        "storage.load_s": env.load_s,
        "storage.wal_io_calls": io_calls() - io_before,
    })
    for name, hits, misses in (
        ("jit.trace_cache_hit_ratio", "trace_hits", "trace_misses"),
        ("cache.plan_hit_ratio", "plan_hits", "plan_misses"),
        ("cache.memo_hit_ratio", "memo_hits", "memo_misses"),
    ):
        value = ratio(total[hits], total[misses])
        if value is None:
            layers.skip([name], "tier saw no lookups")
        else:
            layers.values[name] = value

    if "morsels" in total:
        layers.values["columnar.morsels"] = total["morsels"] / n_passes
        layers.values["columnar.steals"] = total["steals"] / n_passes
    else:
        layers.skip(("columnar.morsels", "columnar.steals"),
                    "adapter.columnar.scheduler.stats() is gone")

    # -- direct calls into sql / engine / core / udf ----------------------
    layers.probe(("sql.parse_s", "sql.statements"), lambda: parse_probe(sqls))
    layers.probe(("sql.translate_s",), lambda: translate_probe(env.adapter, sqls))
    layers.probe(("engine.plan_s",), lambda: plan_probe(env.adapter, sqls))
    layers.probe(("core.dispatch_floor_s",),
                 lambda: dispatch_floor_probe(env.qfusor, env.adapter))

    def body_floor() -> Dict[str, float]:
        out = body_floor_probe(env.adapter, sqls)
        layers.detail["udf.body_trees"] = out.pop("udf.body_trees")
        out["udf.overhead_x"] = full_p50 / out["udf.body_floor_s"]
        return out
    layers.probe(("udf.body_floor_s", "udf.overhead_x"), body_floor)

    # -- the ladder below full, and the columnar engine with no QFusor ----
    budget = 0.45 * seconds / len(RUNGS)
    for rung, adapter_knobs, factory, config_knobs in RUNGS:
        def rung_pass(rung=rung, adapter_knobs=adapter_knobs, factory=factory,
                      config_knobs=config_knobs) -> Dict[str, float]:
            value, n = rung_probe(workload, env, knobs, budget,
                                  adapter_knobs, factory, config_knobs)
            layers.detail[f"rung.{rung}_passes"] = n
            return {f"rung.{rung}_pass_s": value}
        layers.probe((f"rung.{rung}_pass_s",), rung_pass)

    def loaded(**adapter_knobs: Any) -> Any:
        adapter = knobs.build(MiniDbAdapter, **adapter_knobs)
        register(adapter, env.data)
        return adapter

    def columnar_native() -> Dict[str, float]:
        adapter = loaded(columnar=True)
        try:
            one_pass = pass_of(adapter, statements)
            one_thread, _ = budgeted_median(one_pass, 0.0)
            adapter.enable_columnar(threads=2)
            two_threads, _ = budgeted_median(one_pass, 0.0, warm=0)
        finally:
            adapter.close()
        return {
            "columnar.native_pass_s": one_thread,
            "columnar.speedup_x": pre["engine.native_pass_s"] / one_thread,
            "columnar.thread_scaling_x": one_thread / two_threads,
        }
    layers.probe(("columnar.native_pass_s", "columnar.speedup_x",
                  "columnar.thread_scaling_x"), columnar_native)

    def buffer_conversion() -> Dict[str, float]:
        from repro.columnar import page_from_values

        table = max(env.adapter.database.catalog, key=lambda t: t.num_rows)
        name, sql_type = next(iter(table.schema))
        values = table.column(name).to_list()
        start = time.perf_counter()
        page = page_from_values(name, sql_type, values)
        middle = time.perf_counter()
        page.values()
        return {"columnar.encode_s": middle - start,
                "columnar.decode_s": time.perf_counter() - middle}
    layers.probe(("columnar.encode_s", "columnar.decode_s"), buffer_conversion)

    # -- worker transport: off the end-to-end path today ------------------
    worker_metrics = ("resilience.worker_pass_s", "resilience.bytes_per_batch")
    if workload.name == "scan_cheap_udf":
        def worker_pass() -> Dict[str, float]:
            adapter = loaded()
            try:
                pool = adapter.enable_process_isolation(pool_size=2)
                value, _ = budgeted_median(pass_of(adapter, statements), 0.0)
                last = pool.last_batch_bytes
                return {
                    "resilience.worker_pass_s": value,
                    "resilience.bytes_per_batch": last["sent"] + last["received"],
                }
            finally:
                adapter.close()
        layers.probe(worker_metrics, worker_pass)
    else:
        layers.skip(worker_metrics, "measured on scan_cheap_udf only")

    layers.detail["config_applied"] = knobs.applied
    layers.detail["config_dropped"] = knobs.dropped
    layers.skip((
        "cache.result_hit_ratio", "cache.result_invalidations",
        "cache.hit_read_ms", "cache.miss_read_ms",
    ), "result cache is off on batch workloads")
    layers.skip((
        "service.queue_wait_ms_mean", "service.shed", "service.overhead_ms",
        "service.write_ms_p50", "service.write_ms_p95",
        "storage.wal_writes_per_write", "storage.wal_fsyncs_per_write",
        "storage.wal_bytes_per_write", "storage.checkpoints",
        "storage.wal_cost_ms",
    ))
    return layers


# ----------------------------------------------------------------------
# service_mixed_rw
# ----------------------------------------------------------------------


def service_layers(workload: ServiceWorkload, env: Any, seconds: float,
                   tally: Tally, recorder: SpanRecorder,
                   pre: Dict[str, float]) -> Layers:
    layers = Layers(recorder)
    sessions = [env.service.session(tenant) for tenant in TENANTS]
    managers = [session.adapter.durability for session in sessions]

    def snapshot() -> Dict[str, int]:
        out = {f"io_{key}": value for key, value in IO_CALLS.items()}
        out["checkpoints"] = sum(m.checkpoints for m in managers)
        for session in sessions:
            for key, value in cache_counters(session.qfusor).items():
                out[key] = out.get(key, 0) + value
        return out

    before = snapshot()
    plain = workload.measure(env, 0.3 * seconds, tally)
    traced = workload.measure(env, 0.4 * seconds, tally, recorder=recorder)
    moved = delta(snapshot(), before)
    clients = traced["clients"]
    plain_s = [p.seconds for p in plain["passes"]]
    traced_s = [p.seconds for p in traced["passes"]]
    plain_writes = [s for p in plain["passes"] for s in p.write_s]
    writes = len(plain_writes) + sum(len(p.write_s) for p in traced["passes"])
    hit_s = [s for c in clients for s in c.hit_s]
    miss_s = [s for c in clients for s in c.miss_s]
    wait_s = [s for c in clients for s in c.wait_s]
    blocks = [b for c in clients for b in c.block_stages]
    plain_p50, traced_p50 = median(plain_s), median(traced_s)
    stats = env.service.stats()
    layers.detail.update(
        untraced_passes=len(plain_s), traced_passes=len(traced_s),
        hit_reads=len(hit_s), miss_reads=len(miss_s), writes=writes,
    )
    layers.values.update({
        "engine.execute_s": median([b["engine.execute"] for b in blocks]),
        "core.fuse_s": median([b["core.fuse"] for b in blocks]),
        "jit.compile_s": median([b["jit.compile"] for b in blocks]),
        "jit.compiles_per_pass":
            moved["trace_misses"] / (len(plain_s) + len(traced_s)),
        "cache.result_invalidations": len(miss_s),
        "cache.hit_read_ms": median(hit_s) * 1e3,
        "cache.miss_read_ms": median(miss_s) * 1e3,
        "service.queue_wait_ms_mean": sum(wait_s) / len(wait_s) * 1e3,
        "service.shed": stats["shed_decisions"] + sum(
            t["shed"] for t in stats["tenants"].values()),
        "service.write_ms_p50": median(plain_writes) * 1e3,
        "service.write_ms_p95": percentile(plain_writes, 0.95) * 1e3,
        "storage.load_s": env.load_s,
        "storage.wal_io_calls": sum(
            v for k, v in moved.items() if k.startswith("io_")),
        "storage.wal_writes_per_write": moved["io_write"] / writes,
        "storage.wal_fsyncs_per_write": moved["io_fsync"] / writes,
        "storage.checkpoints": moved["checkpoints"],
        "rung.full_pass_s": plain_p50,
        "obs.trace_overhead_pct": (traced_p50 - plain_p50) / plain_p50 * 100.0,
        "ledger.stage_sum_over_wall": sum(b["stage_sum"] for b in blocks)
            / sum(traced_s),
        "ledger.drift_pct": drift_pct(plain_s),
        "ledger.passes": len(plain_s),
        "ledger.pass_s_p90": percentile(plain_s, 0.90),
        "ledger.read_ms_p95": percentile(
            [s for p in plain["passes"] for s in p.read_s], 0.95) * 1e3,
    })
    for name, hits, misses in (
        ("jit.trace_cache_hit_ratio", "trace_hits", "trace_misses"),
        ("cache.plan_hit_ratio", "plan_hits", "plan_misses"),
        ("cache.memo_hit_ratio", "memo_hits", "memo_misses"),
        ("cache.result_hit_ratio", "results_hits", "results_misses"),
    ):
        value = ratio(moved[hits], moved[misses])
        if value is None:
            layers.skip([name], "tier saw no lookups")
        else:
            layers.values[name] = value

    session = sessions[0]
    block = next(env.blocks[TENANTS[0]])
    reads = [sql for rank, sql in block if rank is not None]
    layers.probe(("sql.parse_s", "sql.statements"),
                 lambda: parse_probe(sql for _, sql in block))
    layers.probe(("sql.translate_s",),
                 lambda: translate_probe(session.adapter, set(reads)))
    layers.probe(("engine.plan_s",), lambda: plan_probe(session.adapter, reads))
    layers.probe(("core.dispatch_floor_s",),
                 lambda: dispatch_floor_probe(session.qfusor, session.adapter))

    def service_overhead() -> Dict[str, float]:
        """``QueryService.execute`` minus ``session.qfusor.execute`` on
        the hottest read, single-threaded (both are result-cache hits)."""
        sql = reads[0]
        through, direct = [], []
        for _ in range(200):
            start = time.perf_counter()
            env.service.execute(TENANTS[0], sql)
            middle = time.perf_counter()
            session.qfusor.execute(sql)
            through.append(middle - start)
            direct.append(time.perf_counter() - middle)
        return {"service.overhead_ms": (median(through) - median(direct)) * 1e3}
    layers.probe(("service.overhead_ms",), service_overhead)

    def wal_cost() -> Dict[str, float]:
        """The same 60-write script on a WAL'd tenant and on a twin
        service with no ``durability_root``, single-threaded."""
        import random

        def replay(target: Any, sized: Optional[Any]) -> Tuple[List[float], List[int]]:
            rng = random.Random(env.seed)
            seconds_, grown = [], []
            for counter in range(60):
                sql = write_statement(counter, rng, env.pubs_rows)
                size = sized.wal.size_bytes if sized is not None else 0
                start = time.perf_counter()
                outcome = target.service.execute(TENANTS[0], sql)
                seconds_.append(time.perf_counter() - start)
                if not outcome.ok:
                    raise RuntimeError(f"write ended {outcome.status}")
                if target is env:
                    env.acked[TENANTS[0]].append(sql)
                if sized is not None and sized.wal.size_bytes > size:
                    grown.append(sized.wal.size_bytes - size)
            return seconds_, grown

        twin = workload.setup(env.seed, env.quick, Knobs(), durable=False)
        try:
            volatile, _ = replay(twin, None)
        finally:
            twin.close()
        durable, grown = replay(env, managers[0])
        return {
            "storage.wal_cost_ms": (median(durable) - median(volatile)) * 1e3,
            "storage.wal_bytes_per_write": median(grown),
        }
    layers.probe(("storage.wal_cost_ms", "storage.wal_bytes_per_write"), wal_cost)

    layers.skip((
        "engine.native_pass_s", "engine.rows_out", "core.fused_sections",
        "core.deopts", "sql.translated_share", "udf.body_floor_s",
        "udf.overhead_x",
    ))
    layers.skip((
        "columnar.native_pass_s", "columnar.speedup_x",
        "columnar.thread_scaling_x", "columnar.morsels", "columnar.steals",
        "columnar.encode_s", "columnar.decode_s",
    ), "measured on the batch workloads")
    layers.skip(("resilience.worker_pass_s", "resilience.bytes_per_batch"),
                "measured on scan_cheap_udf only")
    layers.skip([f"rung.{rung[0]}_pass_s" for rung in RUNGS],
                "the ladder runs on the batch workloads")
    return layers
