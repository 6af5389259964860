"""Ablation bench: the design choices DESIGN.md calls out, isolated.

Not a paper figure — a per-choice breakdown of where QFusor's speedup
comes from on the two headline queries (Q3, the running example; Q11,
the Zillow pipeline):

  * **trace cache** — compiled pipelines reused across repeat queries;
  * **reordering (F3)** — permutation search on fusible sections;
  * **cost-based decisions** — the F2 inequality vs heuristics only.

Each row reports hot runtime with the choice ON vs OFF.
"""

import pytest

from repro.bench import FigureReport, time_call
from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter
from repro.workloads import udfbench, zillow

ABLATIONS = {
    "trace-cache": {"trace_cache": False},
    "reorder-F3": {"reorder": False},
    "cost-based": {"cost_based": False},
}

QUERIES = {"Q3": ("udfbench", None), "Q11": ("zillow", None)}


def make_qfusor(config):
    adapter = MiniDbAdapter()
    udfbench.setup(adapter, "small")
    zillow.setup(adapter, "small")
    return QFusor(adapter, config)


def run_figure() -> FigureReport:
    report = FigureReport("ablation", "design-choice ablations (hot)")
    sqls = {"Q3": udfbench.QUERIES["Q3"], "Q11": zillow.QUERIES["Q11"]}

    full = make_qfusor(QFusorConfig())
    for query, sql in sqls.items():
        full.execute(sql)
        elapsed, _ = time_call(lambda: full.execute(sql), repeats=3)
        report.add("full", query, elapsed)

    for name, changes in ABLATIONS.items():
        ablated = make_qfusor(QFusorConfig().ablated(**changes))
        for query, sql in sqls.items():
            ablated.execute(sql)
            elapsed, _ = time_call(lambda: ablated.execute(sql), repeats=3)
            report.add(f"no-{name}", query, elapsed)
    report.emit()
    return report


@pytest.mark.benchmark(group="ablation")
def test_ablations(benchmark):
    report = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    # No single ablation may regress dramatically (each is an
    # optimization, not a correctness requirement) and the full
    # configuration is never the slowest by a wide margin.
    for query in ("Q3", "Q11"):
        full = report.value("full", query)
        for name in ABLATIONS:
            assert report.value(f"no-{name}", query) > full * 0.5
