"""FairScheduler: DRR weights, priority lanes, caps, and typed shedding."""

import threading
import time

import pytest

from repro import obs
from repro.errors import ServiceOverloadError, UnknownTenantError
from repro.obs import METRICS
from repro.service import FairScheduler, TenantQuota


def make(capacity=1, **kw):
    return FairScheduler(capacity, **kw)


class TestBasics:
    def test_unknown_tenant_rejected(self):
        sched = make()
        with pytest.raises(UnknownTenantError):
            sched.acquire("ghost")

    def test_admits_within_capacity(self):
        sched = make(capacity=2)
        sched.register_tenant("a", TenantQuota())
        with sched.admit("a"):
            with sched.admit("a"):
                assert sched.active == 2
        assert sched.active == 0
        assert sched.admitted == 2

    def test_duplicate_registration_rejected(self):
        sched = make()
        sched.register_tenant("a", TenantQuota())
        with pytest.raises(ValueError):
            sched.register_tenant("a", TenantQuota())

    def test_queue_timeout_sheds_typed_with_diagnostics(self):
        sched = make(capacity=1, queue_timeout_s=0.05)
        sched.register_tenant("a", TenantQuota())
        with sched.admit("a"):
            with pytest.raises(ServiceOverloadError) as info:
                sched.acquire("a")
        err = info.value
        assert err.reason == "queue_timeout"
        assert err.tenant == "a"
        assert err.waited_s is not None and err.waited_s >= 0.04
        assert err.retry_after_s is not None and err.retry_after_s > 0
        assert "queue_timeout" in str(err)
        assert sched.rejected == 1

    def test_queued_ticket_dispatches_on_release(self):
        sched = make(capacity=1, queue_timeout_s=2.0)
        sched.register_tenant("a", TenantQuota())
        order = []

        def holder():
            with sched.admit("a"):
                order.append("holder")
                time.sleep(0.08)

        thread = threading.Thread(target=holder)
        thread.start()
        time.sleep(0.02)
        with sched.admit("a") as waited:
            order.append("waiter")
        thread.join()
        assert order == ["holder", "waiter"]
        assert waited >= 0.03
        assert sched.queue_wait_count >= 2  # both waits recorded in stats

    def test_global_queue_depth_sheds_at_the_door(self):
        sched = make(capacity=1, queue_timeout_s=5.0, max_queue_depth=1)
        sched.register_tenant("a", TenantQuota())
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with sched.admit("a"):
                entered.set()
                release.wait(3.0)

        def waiter():
            try:
                with sched.admit("a"):
                    pass
            except ServiceOverloadError:
                pass

        h = threading.Thread(target=holder)
        h.start()
        entered.wait(2.0)
        w = threading.Thread(target=waiter)
        w.start()
        time.sleep(0.05)  # waiter is now queued: depth == 1 == max
        with pytest.raises(ServiceOverloadError) as info:
            sched.acquire("a")
        assert info.value.reason == "queue_full"
        assert info.value.retry_after_s > 0
        release.set()
        h.join()
        w.join()

    def test_tenant_pending_cap_sheds_only_that_tenant(self):
        sched = make(capacity=1, queue_timeout_s=5.0)
        sched.register_tenant("a", TenantQuota(max_pending=0))
        sched.register_tenant("b", TenantQuota())
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with sched.admit("b"):
                entered.set()
                release.wait(3.0)

        h = threading.Thread(target=holder)
        h.start()
        entered.wait(2.0)
        with pytest.raises(ServiceOverloadError) as info:
            sched.acquire("a")  # a may not queue at all
        assert info.value.reason == "tenant_queue_full"
        # b still queues fine.
        got = []

        def b_waiter():
            with sched.admit("b"):
                got.append(1)

        w = threading.Thread(target=b_waiter)
        w.start()
        time.sleep(0.02)
        release.set()
        h.join()
        w.join()
        assert got == [1]


class TestFairness:
    def _drain(self, sched, tenants, per_tenant, capacity_hold_s=0.0):
        """Saturate the scheduler and record dispatch order."""
        order = []
        lock = threading.Lock()
        barrier = threading.Barrier(len(tenants) * per_tenant + 1)

        def worker(tid):
            barrier.wait(5.0)
            with sched.admit(tid):
                with lock:
                    order.append(tid)
                if capacity_hold_s:
                    time.sleep(capacity_hold_s)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in tenants for _ in range(per_tenant)
        ]
        for t in threads:
            t.start()
        barrier.wait(5.0)
        for t in threads:
            t.join()
        return order

    def test_weighted_share_approximates_quota(self):
        sched = make(capacity=1, queue_timeout_s=10.0)
        sched.register_tenant("heavy", TenantQuota(weight=2.0))
        sched.register_tenant("light", TenantQuota(weight=1.0))
        order = self._drain(sched, ["heavy", "light"], per_tenant=12,
                            capacity_hold_s=0.005)
        # In any window of the first 9 dispatches after both queues are
        # loaded, heavy should get roughly 2x light's share.
        window = order[:9]
        heavy = window.count("heavy")
        light = window.count("light")
        assert heavy > light, (heavy, light, order)

    def test_high_lane_preempts_normal_queue(self):
        sched = make(capacity=1, queue_timeout_s=10.0)
        sched.register_tenant("vip", TenantQuota(lane="high"))
        sched.register_tenant("bulk", TenantQuota(lane="normal"))
        release = threading.Event()
        entered = threading.Event()
        order = []
        lock = threading.Lock()

        def holder():
            with sched.admit("bulk"):
                entered.set()
                release.wait(3.0)

        def worker(tid):
            with sched.admit(tid):
                with lock:
                    order.append(tid)

        h = threading.Thread(target=holder)
        h.start()
        entered.wait(2.0)
        # Queue bulk first, then vip; vip must still dispatch first.
        waiters = [threading.Thread(target=worker, args=("bulk",))
                   for _ in range(3)]
        for w in waiters:
            w.start()
        time.sleep(0.05)
        vip = threading.Thread(target=worker, args=("vip",))
        vip.start()
        time.sleep(0.05)
        release.set()
        h.join()
        vip.join()
        for w in waiters:
            w.join()
        assert order[0] == "vip", order

    def test_per_tenant_concurrency_cap_leaves_capacity_for_others(self):
        sched = make(capacity=3, queue_timeout_s=2.0)
        sched.register_tenant("capped", TenantQuota(max_concurrent=1))
        sched.register_tenant("free", TenantQuota())
        release = threading.Event()
        entered = threading.Event()

        def capped_holder():
            with sched.admit("capped"):
                entered.set()
                release.wait(3.0)

        h = threading.Thread(target=capped_holder)
        h.start()
        entered.wait(2.0)
        # capped is at its cap; free can still take the remaining slots.
        with sched.admit("free"):
            with sched.admit("free"):
                assert sched.active == 3
        release.set()
        h.join()

    def test_empty_queue_forfeits_deficit(self):
        sched = make(capacity=1, queue_timeout_s=1.0)
        sched.register_tenant("a", TenantQuota(weight=8.0))
        sched.register_tenant("b", TenantQuota(weight=1.0))
        # a runs alone for a while — no banked credit may accrue.
        for _ in range(5):
            with sched.admit("a"):
                pass
        state = sched._tenants["a"]
        assert state.deficit == 0.0

    def test_remove_tenant_wakes_queued_tickets_as_shed(self):
        sched = make(capacity=1, queue_timeout_s=5.0)
        sched.register_tenant("a", TenantQuota())
        release = threading.Event()
        entered = threading.Event()
        outcomes = []

        def holder():
            with sched.admit("a"):
                entered.set()
                release.wait(3.0)

        def waiter():
            try:
                sched.acquire("a")
                outcomes.append("granted")
            except ServiceOverloadError:
                outcomes.append("shed")

        h = threading.Thread(target=holder)
        h.start()
        entered.wait(2.0)
        w = threading.Thread(target=waiter)
        w.start()
        time.sleep(0.05)
        sched.remove_tenant("a")
        w.join(2.0)
        release.set()
        h.join()
        assert outcomes == ["shed"]
        assert sched.waiting == 0


#: The snapshot keys ``QueryService.stats()["gate"]``, the service bench
#: and the ledger read.
STATS_KEYS = {
    "max_concurrent", "admitted", "rejected", "active", "peak_active",
    "waiting", "peak_waiting", "queue_wait_count", "queue_wait_total_s",
    "queue_wait_mean_s", "max_wait_s",
}


def one_tenant(queue_timeout_s=None):
    sched = make(capacity=1, queue_timeout_s=queue_timeout_s)
    sched.register_tenant("a", TenantQuota())
    return sched


class TestQueueWaitAccounting:
    def test_stats_key_set(self):
        assert set(one_tenant().stats()) == STATS_KEYS

    def test_uncontended_admission_records_a_near_zero_wait(self):
        sched = one_tenant()
        with sched.admit("a"):
            pass
        stats = sched.stats()
        assert stats["queue_wait_count"] == 1
        assert 0.0 <= stats["queue_wait_mean_s"] < 0.1
        assert stats["max_wait_s"] < 0.1

    def test_queued_wait_lands_in_the_aggregates(self):
        sched = one_tenant(queue_timeout_s=5.0)
        entered = threading.Event()

        def holder():
            with sched.admit("a"):
                entered.set()
                time.sleep(0.1)

        thread = threading.Thread(target=holder)
        thread.start()
        entered.wait(2.0)
        with sched.admit("a"):
            pass
        thread.join()
        stats = sched.stats()
        # Both the holder (no wait) and the waiter (~100ms) are counted.
        assert stats["queue_wait_count"] == 2
        assert stats["queue_wait_total_s"] >= 0.04
        assert stats["max_wait_s"] >= 0.04
        assert stats["peak_waiting"] >= 1
        assert stats["waiting"] == 0

    def test_shed_arrival_still_records_its_wait(self):
        sched = one_tenant(queue_timeout_s=0.05)
        with sched.admit("a"):
            with pytest.raises(ServiceOverloadError):
                sched.acquire("a")
        stats = sched.stats()
        # Shed arrivals are not invisible: their queue time is part of
        # the wait distribution operators reason about.
        assert stats["queue_wait_count"] == 2
        assert stats["max_wait_s"] >= 0.04
        assert stats["rejected"] == 1

    def test_wait_histogram_labelled_by_outcome(self):
        obs.enable(metrics=True)
        try:
            METRICS.reset()
            sched = one_tenant(queue_timeout_s=0.05)
            with sched.admit("a"):
                with pytest.raises(ServiceOverloadError):
                    sched.acquire("a")
            hists = METRICS.snapshot()["histograms"]
            assert "repro_admission_wait_seconds{outcome=admitted}" in hists
            assert "repro_admission_wait_seconds{outcome=shed}" in hists
        finally:
            obs.disable()
            METRICS.reset()
