"""Multi-tier cache benchmark: hot-query speedup and disabled overhead.

Two enforced bounds:

1. **Hot-query speedup** — with every tier enabled, the second
   execution of each UDFBench query is served from the result cache and
   must run at least ``SPEEDUP_FLOOR`` (2x) faster than the uncached
   engine's steady-state time for the same query.

2. **Disabled-path overhead** — with every tier disabled (the default
   config), the caching subsystem's entire cost is a handful of
   ``caches.active`` / ``registry.memo`` guard evaluations.  As in
   ``bench_obs_overhead``, the bound is structural: a conservative
   overcount of guard sites times the measured per-guard cost must stay
   under ``OVERHEAD_BUDGET`` (<3%) of each query's wall time.
"""

import timeit

import pytest

from repro.bench import FigureReport
from repro.bench.harness import setup_adapter, time_call
from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.workloads import udfbench

SPEEDUP_FLOOR = 2.0     # hot (result-cache hit) vs uncached steady state
OVERHEAD_BUDGET = 0.03  # the <3% disabled-path acceptance bound

#: Conservative overcount of cache-guard branches one query reaches with
#: every tier disabled: one ``caches.active`` in ``_execute_pipeline``,
#: one in ``_run_pipeline``, plus a ``registry.memo is None`` check
#: per UDF batch (UDFBench queries run a handful of batches at most).
GUARDS_PER_QUERY = 16

QUERY_IDS = sorted(udfbench.QUERIES)


def measure_guard_cost() -> float:
    """Seconds per disabled-path guard (``caches.active`` on a manager
    with every tier off)."""
    loops = 200_000
    total = min(
        timeit.repeat(
            "caches.active",
            setup=(
                "from repro.cache import CacheManager\n"
                "from repro.core.config import QFusorConfig\n"
                "from repro.engines import MiniDbAdapter\n"
                "caches = CacheManager(MiniDbAdapter(), QFusorConfig())"
            ),
            repeat=5, number=loops,
        )
    )
    return total / loops


def run_report(scale: str, repeats: int = 3) -> FigureReport:
    report = FigureReport(
        "cache",
        "Multi-tier cache: hot-query speedup and disabled-path overhead",
        unit="x",
    )
    # Separate adapters: the cached manager attaches a memo to its
    # adapter's registry, which must not leak into the baseline.
    plain = QFusor(setup_adapter(MiniDbAdapter(), scale))
    cached = QFusor(
        setup_adapter(MiniDbAdapter(), scale), QFusorConfig.cached()
    )
    guard_cost = measure_guard_cost()
    report.add("guard-ns", "cost", guard_cost * 1e9)
    for query_id in QUERY_IDS:
        sql = udfbench.QUERIES[query_id]
        plain.execute(sql)  # steady state: traces compiled
        base_wall, _ = time_call(lambda: plain.execute(sql), repeats=repeats)
        cold_wall, _ = time_call(lambda: cached.execute(sql), repeats=1)
        hot_wall, _ = time_call(lambda: cached.execute(sql), repeats=repeats)
        outcome = cached.last_report.cache_outcome("result")
        speedup = base_wall / hot_wall if hot_wall else float("inf")
        overhead = (
            GUARDS_PER_QUERY * guard_cost / base_wall if base_wall else 0.0
        )
        report.add("base-ms", query_id, base_wall * 1000)
        report.add("cold-ms", query_id, cold_wall * 1000)
        report.add("hot-ms", query_id, hot_wall * 1000)
        report.add("hot-hit", query_id, 1.0 if outcome == "hit" else 0.0)
        report.add("speedup", query_id, speedup)
        report.add("disabled-overhead-pct", query_id, overhead * 100)
    report.emit()
    return report


@pytest.mark.benchmark(group="cache")
def test_cache_hot_query_speedup_and_disabled_overhead(benchmark, bench_scale):
    report = benchmark.pedantic(
        lambda: run_report(bench_scale), rounds=1, iterations=1
    )
    for query_id in QUERY_IDS:
        assert report.value("hot-hit", query_id) == 1.0, (
            f"{query_id}: warm run was not served from the result cache"
        )
        speedup = report.value("speedup", query_id)
        assert speedup is not None and speedup >= SPEEDUP_FLOOR, (
            f"{query_id}: hot-query speedup {speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.0f}x floor"
        )
        pct = report.value("disabled-overhead-pct", query_id)
        assert pct is not None and pct < OVERHEAD_BUDGET * 100, (
            f"{query_id}: structural disabled-path overhead {pct:.3f}% "
            f"exceeds the {OVERHEAD_BUDGET:.0%} budget"
        )


if __name__ == "__main__":
    import os

    run_report(os.environ.get("REPRO_BENCH_SCALE", "small"))
