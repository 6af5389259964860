"""Pinned fault draws: the fault-point table and each round's RNG order.

Every crash and failover round draws its fault from
``faults.FAULT_POINTS`` through ``crash.draw_round``.  A reordered table
row, a changed draw rule or a moved coin flip reseeds every round
without failing any storm: the rounds still pass, on other faults.
``fault_draws.json`` holds the draws of seeds 0-199 for all four round
kinds, and the in-process crash verdicts they lead to, as the harnesses
produced them before the table existed.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.testing import crash, faults, run_inprocess_crash

PINNED = json.loads(
    (pathlib.Path(__file__).parent / "fault_draws.json").read_text()
)
SEEDS = range(200)


def test_stage_views_keep_their_order():
    assert faults.DURABILITY_STAGES == (
        "wal_append", "wal_fsync", "checkpoint_write", "checkpoint_replace",
        "checkpoint_reset", "wal_reset",
    )
    assert faults.REPLICATION_STAGES == (
        "repl_send", "repl_handshake", "repl_promote", "repl_install",
    )
    assert faults.PRIMARY_STAGES == (
        faults.DURABILITY_STAGES + ("repl_send", "repl_handshake")
    )
    assert faults.ALL_STAGES == (
        faults.DURABILITY_STAGES + faults.REPLICATION_STAGES
    )


@pytest.mark.parametrize("kind", sorted(crash.ROUNDS))
def test_round_draws_match_pinned(kind):
    """``(stage, at, cut)``, then the sync-ack coin of failover rounds and
    the drain-first coin of in-process failover rounds."""
    got = [list(crash.draw_round(kind, seed)) for seed in SEEDS]
    assert got == PINNED[kind]


def test_inprocess_crash_verdicts_match_pinned(tmp_path):
    got = []
    for seed in SEEDS:
        verdict = run_inprocess_crash(tmp_path, seed)
        got.append(
            [verdict.fired, verdict.stage, verdict.acked, verdict.matched_k]
        )
    assert got == PINNED["crash_verdicts"]
