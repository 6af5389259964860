"""WAL shipping end to end: convergence, resume, bootstrap, sync-ack,
degrade/resync, and the service-level wiring."""

from __future__ import annotations

import time

import pytest

from repro.service import QueryService
from repro.storage import Column, Table
from repro.storage.catalog import Catalog
from repro.storage.durability import DurabilityManager, WriteAheadLog
from repro.storage.replication import (
    DEGRADE_MARKER_NAME,
    ReplicationPrimary,
    ReplicationStandby,
    load_node_meta,
)
from repro.testing.crash import apply_op, build_workload, catalog_state
from repro.types import SqlType


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def make_pair(tmp_path, *, sync=False, checkpoint_threshold=1 << 20,
              standby_threshold=None):
    standby = ReplicationStandby(
        tmp_path / "standby",
        checkpoint_threshold=standby_threshold or checkpoint_threshold,
    )
    catalog = Catalog()
    manager = DurabilityManager(
        tmp_path / "primary", checkpoint_threshold=checkpoint_threshold
    )
    manager.attach(catalog)
    primary = ReplicationPrimary(
        manager, standby.address, sync=sync, ack_timeout_s=0.5
    )
    manager.replication = primary
    return catalog, manager, primary, standby


class TestStreaming:
    def test_standby_converges_to_primary_state(self, tmp_path):
        catalog, manager, primary, standby = make_pair(tmp_path)
        try:
            for op in build_workload(5, 30):
                apply_op(catalog, op)
            tail = manager.wal.last_lsn
            assert wait_for(lambda: standby.flushed_lsn >= tail)
            assert catalog_state(standby.catalog) == catalog_state(catalog)
            assert standby.lag_records == 0
        finally:
            manager.close()
            standby.close()

    def test_standby_fed_delta_frames_equals_primary(self, tmp_path):
        """Row-delta records ship as frames and apply on the standby
        through the same catalog write path as live DML and replay."""
        catalog, manager, primary, standby = make_pair(tmp_path)
        try:
            apply_op(catalog, ("register", "orders", 4))
            for i, kind in enumerate(("insert", "update", "delete") * 4):
                apply_op(catalog, (kind, "orders", 10 + i))
            tail = manager.wal.last_lsn
            assert wait_for(lambda: standby.flushed_lsn >= tail)
            assert catalog_state(standby.catalog) == catalog_state(catalog)
        finally:
            manager.close()
            standby.close()
        with WriteAheadLog(tmp_path / "standby" / "wal.log") as wal:
            shipped = [record.payload["op"] for record in wal.scan()]
        assert shipped.count("insert") == shipped.count("update") == 4
        assert shipped.count("delete") == 4

    def test_stream_resumes_exactly_after_disconnect(self, tmp_path):
        catalog, manager, primary, standby = make_pair(tmp_path)
        try:
            ops = build_workload(7, 40)
            for op in ops[:15]:
                apply_op(catalog, op)
            assert wait_for(
                lambda: standby.flushed_lsn >= manager.wal.last_lsn
            )
            # The stream dies; the primary keeps committing.
            primary.close()
            manager.replication = None
            for op in ops[15:]:
                apply_op(catalog, op)
            # A new sender resumes from the standby's flushed tail.
            primary2 = ReplicationPrimary(manager, standby.address)
            manager.replication = primary2
            tail = manager.wal.last_lsn
            assert wait_for(lambda: standby.flushed_lsn >= tail)
            assert catalog_state(standby.catalog) == catalog_state(catalog)
        finally:
            manager.close()
            standby.close()

    def test_late_join_bootstraps_from_checkpoint_image(self, tmp_path):
        """A standby joining after the primary's WAL has been reset by
        checkpoints cannot be served frames from the discarded prefix —
        the primary ships its checkpoint image, then frames."""
        catalog = Catalog()
        manager = DurabilityManager(
            tmp_path / "primary", checkpoint_threshold=512
        )
        manager.attach(catalog)
        for op in build_workload(11, 60):
            apply_op(catalog, op)
        assert manager.wal.base_lsn > 0, "workload never reset the WAL"
        standby = ReplicationStandby(tmp_path / "standby")
        primary = ReplicationPrimary(manager, standby.address)
        manager.replication = primary
        try:
            tail = manager.wal.last_lsn
            assert wait_for(lambda: standby.flushed_lsn >= tail)
            assert catalog_state(standby.catalog) == catalog_state(catalog)
            # The image really was installed: the standby's own log
            # starts at the image's LSN, not at zero.
            assert standby.manager.wal.base_lsn > 0
        finally:
            manager.close()
            standby.close()

    def test_standby_applies_through_restore_hooks_idempotently(
        self, tmp_path
    ):
        """Closing and re-opening the standby directory mid-stream must
        land on the same state recovery would produce."""
        catalog, manager, primary, standby = make_pair(tmp_path)
        try:
            ops = build_workload(13, 30)
            for op in ops[:20]:
                apply_op(catalog, op)
            assert wait_for(
                lambda: standby.flushed_lsn >= manager.wal.last_lsn
            )
            port = standby.address[1]
            standby.close()
            standby = ReplicationStandby(tmp_path / "standby", port=port)
            for op in ops[20:]:
                apply_op(catalog, op)
            tail = manager.wal.last_lsn
            assert wait_for(lambda: standby.flushed_lsn >= tail)
            assert catalog_state(standby.catalog) == catalog_state(catalog)
        finally:
            manager.close()
            standby.close()


class TestSyncAck:
    def test_sync_commit_waits_for_standby_flush(self, tmp_path):
        catalog, manager, primary, standby = make_pair(tmp_path, sync=True)
        try:
            for op in build_workload(3, 20):
                apply_op(catalog, op)
                # The commit ack contract: by the time the write
                # returns, the standby has flushed it.
                assert primary.min_acked_lsn() >= manager.wal.last_lsn
            assert not primary.degraded
            assert primary.events == []
        finally:
            manager.close()
            standby.close()

    def test_sync_degrades_on_unreachable_standby_and_resyncs(
        self, tmp_path
    ):
        # Reserve a port by starting a standby, then kill it: the
        # primary degrades against the dead address, and re-enters sync
        # when a standby comes back on the same port.
        placeholder = ReplicationStandby(tmp_path / "standby")
        port = placeholder.address[1]
        placeholder.abandon()

        catalog = Catalog()
        manager = DurabilityManager(tmp_path / "primary")
        manager.attach(catalog)
        primary = ReplicationPrimary(
            manager, ("127.0.0.1", port), sync=True, ack_timeout_s=0.1
        )
        manager.replication = primary
        standby = None
        try:
            ops = build_workload(17, 12)
            start = time.monotonic()
            apply_op(catalog, ops[0])
            assert time.monotonic() - start >= 0.1  # paid the timeout once
            assert primary.degraded
            assert ("degraded", manager.wal.last_lsn) in primary.events
            marker = tmp_path / "primary" / DEGRADE_MARKER_NAME
            assert marker.exists(), "degrade must leave a durable marker"
            # Degraded commits are async: no per-op timeout anymore.
            start = time.monotonic()
            for op in ops[1:6]:
                apply_op(catalog, op)
            assert time.monotonic() - start < 0.1 * 4

            # The standby returns on the reserved port; the primary
            # must catch it up, resync, and remove the marker.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    standby = ReplicationStandby(
                        tmp_path / "standby", port=port
                    )
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)
            assert wait_for(lambda: not primary.degraded)
            assert not marker.exists()
            assert any(e[0] == "resynced" for e in primary.events)
            for op in ops[6:]:
                apply_op(catalog, op)
                assert primary.min_acked_lsn() >= manager.wal.last_lsn
            assert catalog_state(standby.catalog) == catalog_state(catalog)
        finally:
            manager.close()
            if standby is not None:
                standby.close()


class TestServiceWiring:
    @staticmethod
    def _table(name, values):
        return Table(name, [Column("a", SqlType.INT, list(values))])

    def test_tenant_replicates_and_promotes(self, tmp_path):
        service = QueryService(durability_root=tmp_path / "svc")
        try:
            standby = service.add_standby("acme-standby")
            acme = service.add_tenant(
                "acme", replicate_to=standby.address
            )
            acme.register_table(self._table("t", [7, 8, 9]))
            tail = acme.adapter.durability.wal.last_lsn
            assert tail >= 1
            assert wait_for(lambda: standby.flushed_lsn >= tail)

            status = service.replication_status()
            assert "acme" in status["primaries"]
            assert "acme-standby" in status["standbys"]
            assert status["standbys"]["acme-standby"]["flushed_lsn"] >= 1

            # Failover: the old primary dies, the standby takes over.
            acme.adapter.durability.abandon()
            session = service.promote("acme-standby")
            out = service.execute("acme-standby", "SELECT a FROM t")
            assert out.ok
            assert out.result.columns[0].to_list() == [7, 8, 9]
            assert session is service.session("acme-standby")
        finally:
            service.shutdown()

    def test_replicate_to_requires_durability_root(self):
        service = QueryService()
        try:
            with pytest.raises(ValueError):
                service.add_tenant("acme", replicate_to="127.0.0.1:1")
        finally:
            service.shutdown()

    def test_recover_tenants_skips_standby_directories(self, tmp_path):
        root = tmp_path / "svc"
        service = QueryService(durability_root=root)
        standby = service.add_standby("spare")
        acme = service.add_tenant("acme", replicate_to=standby.address)
        acme.register_table(self._table("t", [1, 2]))
        tail = acme.adapter.durability.wal.last_lsn
        assert wait_for(lambda: standby.flushed_lsn >= tail)
        service.shutdown()

        meta = load_node_meta(root / "spare")
        assert meta is not None and meta["role"] == "standby"

        service2 = QueryService(durability_root=root)
        try:
            reports = service2.recover_tenants()
            assert "acme" in reports
            assert "spare" not in reports, (
                "a standby directory must never be warm-restarted as a "
                "primary tenant"
            )
            assert reports.errors == {}
            out = service2.execute("acme", "SELECT a FROM t")
            assert out.ok and out.result.columns[0].to_list() == [1, 2]
        finally:
            service2.shutdown()

    def test_promoted_standby_recovers_as_tenant_after_restart(
        self, tmp_path
    ):
        root = tmp_path / "svc"
        service = QueryService(durability_root=root)
        standby = service.add_standby("acme-standby")
        acme = service.add_tenant("acme", replicate_to=standby.address)
        acme.register_table(self._table("t", [4, 5]))
        tail = acme.adapter.durability.wal.last_lsn
        assert wait_for(lambda: standby.flushed_lsn >= tail)
        acme.adapter.durability.abandon()
        service.promote("acme-standby")
        service.shutdown()

        meta = load_node_meta(root / "acme-standby")
        assert meta is not None and meta["role"] == "primary"
        service2 = QueryService(durability_root=root)
        try:
            reports = service2.recover_tenants()
            # The promoted directory is a primary now and recovers like
            # any tenant; the old primary recovers too (fenced at the
            # replication layer, not excluded from recovery).
            assert "acme-standby" in reports
            out = service2.execute("acme-standby", "SELECT a FROM t")
            assert out.ok and out.result.columns[0].to_list() == [4, 5]
        finally:
            service2.shutdown()
