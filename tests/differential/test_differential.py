"""Cross-engine differential test: fused == unfused == sqlite oracle.

Each seed deterministically generates a table and a SQL+UDF query; the
query runs on all five engine adapters both through QFusor (fused) and
directly (unfused), plus stdlib sqlite3 as the oracle where expressible.
Any disagreement is shrunk to a minimal failing case and reported as a
standalone repro snippet.

Seeds are batched (not one pytest param per seed) so the tier-1 run
stays a handful of test items; set ``RUN_SLOW=1`` for the extended
sweep.
"""

from __future__ import annotations

import os

import pytest

from .generator import JSON_QUERIES, make_case, make_json_case, repro_snippet
from .minimizer import minimize
from .runner import DifferentialRunner

#: Tier-1 coverage: seeds 0..199 in batches.
TIER1_SEEDS = 200
BATCH = 25
#: The extended sweep adds seeds 200..999.
SLOW_SEEDS = 1000


def _check_seed(runner, seed: int):
    case = make_case(seed)
    mismatch = runner.check(case)
    if mismatch is None:
        return

    def still_fails(candidate):
        # Shrunk cases re-run on fresh engines: a report is only useful
        # if it reproduces from a cold start.
        return DifferentialRunner().check(candidate) is not None

    shrunk = minimize(case, still_fails)
    final = DifferentialRunner().check(shrunk) or mismatch
    detail = "\n".join(
        f"  {name}: {rows}" for name, rows in final.results.items()
    )
    snippet = repro_snippet(shrunk, final.description)
    artifacts = os.environ.get("REPRO_DIFF_ARTIFACTS")
    if artifacts:
        # CI uploads this directory: a red differential run ships its
        # minimized standalone repros as build artifacts.
        os.makedirs(artifacts, exist_ok=True)
        path = os.path.join(artifacts, f"repro_seed_{seed}.py")
        with open(path, "w") as fh:
            fh.write(snippet + "\n")
    pytest.fail(
        f"{final.description}\n{detail}\n\n"
        f"--- standalone repro ---\n"
        f"{snippet}\n",
        pytrace=False,
    )


@pytest.mark.parametrize("start", range(0, TIER1_SEEDS, BATCH))
def test_differential_batch(diff_runner, start):
    for seed in range(start, min(start + BATCH, TIER1_SEEDS)):
        _check_seed(diff_runner, seed)


@pytest.mark.slow
@pytest.mark.parametrize("start", range(TIER1_SEEDS, SLOW_SEEDS, 100))
def test_differential_extended(diff_runner, start):
    for seed in range(start, min(start + 100, SLOW_SEEDS)):
        _check_seed(diff_runner, seed)


@pytest.mark.slow
def test_differential_with_process_isolation():
    """The process-isolated row store joins the differential sweep: the
    worker pool must be invisible in every result multiset."""
    import multiprocessing

    runner = DifferentialRunner(include_process_isolation=True)
    try:
        assert any(name == "rowstore-proc" for name, _a, _q in runner.engines)
        for seed in range(0, 60):
            _check_seed(runner, seed)
    finally:
        runner.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sql", JSON_QUERIES)
def test_json_table_agrees(diff_runner, sql):
    """Raw mixed JSON values load as text: every lane and the sqlite
    oracle give the same rows."""
    for seed in range(3):
        mismatch = diff_runner.check(make_json_case(seed, sql))
        if mismatch is not None:
            detail = "\n".join(
                f"  {name}: {rows}" for name, rows in mismatch.results.items()
            )
            pytest.fail(f"{mismatch.description}\n{detail}", pytrace=False)


def test_qfusor_lanes_reach_the_prepared_tiers(diff_runner):
    """The second run of a lane is prepared, not another floor run —
    otherwise every fused lane would silently test only the floor."""
    prepared = 0
    for seed in range(8):
        diff_runner.results(make_case(seed))
        for name, _adapter, qfusor in diff_runner.engines:
            report = qfusor.last_report
            if report.is_udf_query:
                assert report.tier.startswith("prepare: "), (name, report.tier)
                prepared += 1
    assert prepared


def test_generator_is_deterministic():
    first, second = make_case(17), make_case(17)
    assert first.sql == second.sql
    assert list(first.table.rows()) == list(second.table.rows())


def test_seed_env_override(diff_runner):
    """CI can re-run a single reported seed via REPRO_DIFF_SEED."""
    raw = os.environ.get("REPRO_DIFF_SEED")
    if raw is None:
        pytest.skip("REPRO_DIFF_SEED not set")
    _check_seed(diff_runner, int(raw))
