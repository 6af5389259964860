"""The central correctness invariant: for every workload query, every
QFusor configuration, and every engine profile, the fused execution
returns the same rows as native execution."""

import pytest

from repro.core import QFusor, QFusorConfig
from repro.engines import MiniDbAdapter, RowStoreAdapter, TupleDbAdapter
from repro.jit import codegen
from repro.workloads import udfbench, udo_wl, weld_wl, zillow

ALL_SQL = {}
for _workload in (udfbench, zillow, weld_wl, udo_wl):
    ALL_SQL.update(_workload.QUERIES)
ALL_SQL["Q8"] = udfbench.q8_selectivity(2015)


def setup_all(adapter):
    udfbench.setup(adapter, "tiny")
    zillow.setup(adapter, "tiny")
    weld_wl.setup(adapter, "tiny")
    udo_wl.setup(adapter, "tiny")
    return adapter


@pytest.fixture(scope="module")
def reference():
    adapter = setup_all(MiniDbAdapter())
    return {
        name: sorted(map(repr, adapter.execute_sql(sql).to_rows()))
        for name, sql in ALL_SQL.items()
    }


CONFIGS = {
    "full": QFusorConfig(),
    "jit_only": QFusorConfig.jit_only(),
    "fusion_no_offload": QFusorConfig.fusion_no_offload(),
    "no_agg_offload": QFusorConfig.no_aggregation_offload(),
    "yesql": QFusorConfig.yesql_like(),
    "no_cache": QFusorConfig(trace_cache=False),
    # Inlining has no switch; this row makes the inliner refuse every
    # body, so each fused stage is a call.
    "no_inline": QFusorConfig(),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query_name", sorted(ALL_SQL))
def test_config_equivalence_on_minidb(
    reference, config_name, query_name, monkeypatch
):
    if config_name == "no_inline":
        monkeypatch.setattr(codegen, "try_inline", lambda func: None)
    qfusor = QFusor(setup_all(MiniDbAdapter()), CONFIGS[config_name])
    got = sorted(map(repr, qfusor.execute(ALL_SQL[query_name]).to_rows()))
    assert got == reference[query_name]


@pytest.mark.parametrize("adapter_factory", [RowStoreAdapter, TupleDbAdapter])
@pytest.mark.parametrize(
    "query_name", ["Q1", "Q3", "Q4", "Q7", "Q8", "Q11", "Q12", "Q17", "Q18"]
)
def test_engine_equivalence(reference, adapter_factory, query_name):
    qfusor = QFusor(setup_all(adapter_factory()))
    got = sorted(map(repr, qfusor.execute(ALL_SQL[query_name]).to_rows()))
    assert got == reference[query_name]


@pytest.mark.parametrize("query_name", sorted(ALL_SQL))
def test_repeated_execution_is_stable(query_name):
    """Trace caching and stateful statistics must not change results."""
    qfusor = QFusor(setup_all(MiniDbAdapter()))
    first = sorted(map(repr, qfusor.execute(ALL_SQL[query_name]).to_rows()))
    second = sorted(map(repr, qfusor.execute(ALL_SQL[query_name]).to_rows()))
    third = sorted(map(repr, qfusor.execute(ALL_SQL[query_name]).to_rows()))
    assert first == second == third
