"""Recovery integration: manager attach, replay, epochs, UDF versions,
generation advance, checkpoint threshold, adapter/service wiring."""

from __future__ import annotations

import os
import threading

import pytest

from repro.engines import MiniDbAdapter
from repro.errors import RecoveryError, SimulatedCrash
from repro.storage import Catalog, Column, Delta, Table
from repro.storage.durability import DurabilityManager, read_checkpoint
from repro.testing.faults import FaultInjector, inject
from repro.types import SqlType
from repro.udf import scalar_udf


def make_table(name="t", ints=(1, 2, 3)):
    return Table(
        name,
        [
            Column("a", SqlType.INT, list(ints)),
            Column("b", SqlType.TEXT, [f"s{i}" for i in ints]),
        ],
    )


def reopen(directory, registry=None, **knobs):
    catalog = Catalog()
    manager = DurabilityManager(directory, **knobs)
    report = manager.attach(catalog, registry)
    return catalog, manager, report


class TestBasicRecovery:
    def test_tables_and_epochs_survive_crash(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path)
        catalog.register(make_table("t", (1, 2)))
        catalog.register(make_table("t", (1, 2, 3)), replace=True)
        catalog.touch("external")
        epochs = (catalog.epoch("t"), catalog.epoch("external"))
        manager.abandon()  # crash: no checkpoint, no close

        recovered, manager2, report = reopen(tmp_path)
        assert report.records_replayed >= 3
        assert recovered.get("t").columns[0].to_list() == [1, 2, 3]
        assert (recovered.epoch("t"), recovered.epoch("external")) == epochs
        manager2.close()

    def test_drop_survives_crash(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path)
        catalog.register(make_table("t"))
        catalog.register(make_table("u"))
        catalog.drop("t")
        manager.abandon()
        recovered, manager2, _ = reopen(tmp_path)
        assert "t" not in recovered
        assert "u" in recovered
        assert recovered.epoch("t") == 2  # register + drop
        manager2.close()

    def test_generation_strictly_advances_every_recovery(self, tmp_path):
        generations = []
        for _ in range(4):
            catalog, manager, report = reopen(tmp_path)
            generations.append(report.generation)
            assert catalog.generation == report.generation
            manager.abandon()
        assert generations == sorted(set(generations))
        assert generations[0] >= 1

    def test_double_attach_is_refused(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path)
        with pytest.raises(RecoveryError):
            manager.attach(Catalog())
        manager.close()

    def test_replay_is_idempotent_across_repeated_recoveries(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path)
        catalog.register(make_table("t"))
        catalog.touch("t")
        state = (catalog.epoch("t"), catalog.get("t").num_rows)
        manager.abandon()
        for _ in range(3):
            recovered, manager2, _ = reopen(tmp_path)
            assert (
                recovered.epoch("t"), recovered.get("t").num_rows
            ) == state
            manager2.abandon()


class TestCheckpointing:
    def test_threshold_checkpoint_truncates_wal(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path, checkpoint_threshold=512)
        for i in range(20):
            catalog.register(make_table("t", tuple(range(i + 1))), replace=True)
        assert manager.checkpoints >= 1
        assert read_checkpoint(tmp_path) is not None
        # WAL holds only the post-checkpoint suffix.
        assert manager.wal.size_bytes < 512 + 4096
        manager.abandon()
        recovered, manager2, report = reopen(tmp_path)
        assert report.checkpoint_loaded
        assert recovered.epoch("t") == 20
        assert recovered.get("t").num_rows == 20
        manager2.close()

    def test_explicit_checkpoint_then_more_writes(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path)
        catalog.register(make_table("t"))
        assert manager.checkpoint()
        catalog.register(make_table("u"))
        manager.abandon()
        recovered, manager2, report = reopen(tmp_path)
        assert report.checkpoint_loaded and report.records_replayed >= 1
        assert "t" in recovered and "u" in recovered
        manager2.close()

    def test_delta_replay_is_gated_by_lsn_not_idempotence(self, tmp_path):
        """A delta applied twice would append its rows twice.  A crash
        after the checkpoint install but before the WAL reset leaves the
        folded-in delta frames on disk; replay must skip them by LSN."""
        catalog, manager, _ = reopen(tmp_path)
        catalog.register(make_table("t", (1, 2)))
        # The image goes into a checkpoint, so only deltas follow it.
        assert manager.checkpoint()
        insert = Delta("insert", columns={
            0: Column("a", SqlType.INT, [3]),
            1: Column("b", SqlType.TEXT, ["s3"]),
        })
        catalog.write("t", insert)
        catalog.write("t", Delta("delete", [0]))
        injector = FaultInjector().durability_crash(
            "checkpoint_reset", at=0, action="raise"
        )
        with inject(injector), pytest.raises(SimulatedCrash):
            manager.checkpoint()
        manager.abandon()
        recovered, manager2, report = reopen(tmp_path)
        assert report.checkpoint_loaded and report.records_replayed == 0
        assert recovered.get("t").columns[0].to_list() == [2, 3]
        assert recovered.epoch("t") == 3
        manager2.close()

    def test_interval_checkpointer_runs(self, tmp_path):
        catalog, manager, _ = reopen(
            tmp_path, checkpoint_interval_s=0.05
        )
        catalog.register(make_table("t"))
        deadline = threading.Event()
        for _ in range(100):
            if manager.checkpoints:
                break
            deadline.wait(0.05)
        assert manager.checkpoints >= 1
        manager.close()

    def test_snapshot_only_mode_persists_via_close(self, tmp_path):
        catalog, manager, _ = reopen(tmp_path, wal_enabled=False)
        catalog.register(make_table("t"))
        assert manager.wal.size_bytes == 0  # nothing logged
        manager.close()  # final checkpoint persists the state
        recovered, manager2, report = reopen(tmp_path, wal_enabled=False)
        assert report.checkpoint_loaded
        assert "t" in recovered
        manager2.close()

    def test_snapshot_only_generation_survives_crash(self, tmp_path):
        # The recovery-time bump must be persisted immediately — a crash
        # (abandon: no close()-time checkpoint) must not let the next
        # recovery recompute the same generation, or pre-crash cache
        # entries would become reachable again.
        generations = []
        for _ in range(3):
            catalog, manager, report = reopen(tmp_path, wal_enabled=False)
            generations.append(report.generation)
            manager.abandon()
        assert generations == sorted(set(generations))


class TestTornWalReset:
    def test_acked_write_after_torn_reset_survives_next_restart(self, tmp_path):
        from repro.errors import SimulatedCrash
        from repro.testing import faults

        catalog, manager, _ = reopen(tmp_path, checkpoint_threshold=64)
        # cut=0: crash after the truncate, before any of the new header
        # reaches the file — the log's base_lsn is lost.
        injector = faults.FaultInjector().durability_crash(
            "wal_reset", at=0, cut=0, action="raise"
        )
        with pytest.raises(SimulatedCrash):
            with faults.inject(injector):
                # Crosses the tiny threshold: the checkpoint installs,
                # then its WAL reset crashes mid-window.
                catalog.register(make_table("t"))
        manager.abandon()

        # First restart: the checkpoint has the table; recovery must
        # also restore WAL LSN monotonicity past the checkpoint LSN.
        recovered, manager2, report = reopen(
            tmp_path, checkpoint_threshold=1 << 20
        )
        assert report.checkpoint_loaded
        assert "t" in recovered
        recovered.touch("acked")  # acknowledged post-recovery write
        epoch = recovered.epoch("acked")
        gen2 = report.generation
        manager2.close()

        # Second restart: the acknowledged write must replay, not be
        # skipped as already-checkpointed.
        final, manager3, report3 = reopen(
            tmp_path, checkpoint_threshold=1 << 20
        )
        assert final.epoch("acked") == epoch
        assert report3.generation > gen2
        manager3.close()

    def test_torn_reset_header_cut_midway(self, tmp_path):
        from repro.errors import SimulatedCrash
        from repro.testing import faults

        catalog, manager, _ = reopen(tmp_path, checkpoint_threshold=64)
        # Tear inside the header itself (magic written, base_lsn torn).
        injector = faults.FaultInjector().durability_crash(
            "wal_reset", at=0, cut=10, action="raise"
        )
        with pytest.raises(SimulatedCrash):
            with faults.inject(injector):
                catalog.register(make_table("t"))
        manager.abandon()

        recovered, manager2, _ = reopen(tmp_path)
        assert "t" in recovered
        recovered.touch("acked")
        epoch = recovered.epoch("acked")
        manager2.close()
        final, manager3, _ = reopen(tmp_path)
        assert final.epoch("acked") == epoch
        manager3.close()


class TestConcurrentUdfCheckpoints:
    def test_udf_version_checkpoints_race_catalog_writers(self, tmp_path):
        # A UDF version bump fires the manager's listener *without* the
        # catalog lock; the threshold checkpoint it can trigger iterates
        # the catalog.  Pre-fix this raised "dictionary changed size
        # during iteration" under concurrent catalog writers.
        from repro.udf import UdfRegistry, scalar_udf

        registry = UdfRegistry()
        catalog = Catalog()
        manager = DurabilityManager(tmp_path, checkpoint_threshold=128)
        manager.attach(catalog, registry)

        errors = []

        def catalog_writer():
            try:
                for i in range(200):
                    catalog.register(
                        make_table(f"t{i % 17}", (i,)), replace=True
                    )
                    catalog.touch(f"ext{i % 13}")
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def udf_writer():
            try:
                for i in range(100):
                    @scalar_udf(name="hot", deterministic=True)
                    def hot(x: int) -> int:
                        return x + 1

                    # Pinned versions: every registration bumps, so every
                    # iteration fires the durability listener.
                    registry.register(hot, replace=True, version=i + 1)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=catalog_writer),
            threading.Thread(target=udf_writer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert manager.checkpoints >= 1  # the race window was exercised
        manager.close()


class TestUdfVersions:
    def test_versions_survive_restart_and_keep_advancing(self, tmp_path):
        adapter = MiniDbAdapter(durability_dir=tmp_path)

        @scalar_udf(name="bump", deterministic=True)
        def bump_v1(x: int) -> int:
            return x + 1

        adapter.register_udf(bump_v1)

        @scalar_udf(name="bump", deterministic=True)
        def bump_v2(x: int) -> int:
            return x + 2

        adapter.register_udf(bump_v2, replace=True)
        version = adapter.registry.version_of("bump")
        assert version == 2
        adapter.durability.abandon()

        adapter2 = MiniDbAdapter(durability_dir=tmp_path)
        # Restored before any re-registration.
        assert adapter2.registry.version_of("bump") == version
        # Re-registering the *same* body keeps the version...
        adapter2.register_udf(bump_v2, replace=True)
        assert adapter2.registry.version_of("bump") == version

        # ...and a changed body advances past it, never resets to 1.
        @scalar_udf(name="bump", deterministic=True)
        def bump_v3(x: int) -> int:
            return x + 3

        adapter2.register_udf(bump_v3, replace=True)
        assert adapter2.registry.version_of("bump") == version + 1
        adapter2.close()


class TestAdapterWiring:
    def test_minidb_durability_dir_round_trip(self, tmp_path):
        adapter = MiniDbAdapter(durability_dir=tmp_path)
        adapter.register_table(make_table("t"))
        adapter.execute_sql("INSERT INTO t VALUES (9, 'z')")
        expected = adapter.execute_sql("SELECT a FROM t").columns[0].to_list()
        adapter.durability.abandon()

        adapter2 = MiniDbAdapter(durability_dir=tmp_path)
        got = adapter2.execute_sql("SELECT a FROM t").columns[0].to_list()
        assert got == expected
        adapter2.close()
        assert adapter2.durability is None  # close() tears it down

    def test_rowstore_durability_dir_round_trip(self, tmp_path):
        from repro.engines import RowStoreAdapter

        adapter = RowStoreAdapter(durability_dir=tmp_path)
        adapter.register_table(make_table("t"))
        adapter.durability.abandon()
        adapter2 = RowStoreAdapter(durability_dir=tmp_path)
        assert "t" in adapter2.database.catalog
        adapter2.close()

    def test_startup_sweeps_orphan_temp_files(self, tmp_path):
        (tmp_path / ".CHECKPOINT.orphan.tmp").write_bytes(b"torn")
        catalog, manager, report = reopen(tmp_path)
        assert report.swept_temp_files == 1
        assert not any(
            name.endswith(".tmp") for name in os.listdir(tmp_path)
        )
        manager.close()
