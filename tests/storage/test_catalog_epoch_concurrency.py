"""Catalog epoch concurrency: strict monotonicity under contention.

The durability layer's correctness rests on epoch bumps and WAL appends
being one atomic step under the catalog lock — which in turn requires
that concurrent touch / register(replace=True) / drop traffic never
produce a duplicated or regressed epoch.
"""

from __future__ import annotations

import random
import threading

from repro.storage import Catalog, Column, Delta, Table
from repro.types import SqlType

N_THREADS = 8
OPS_PER_THREAD = 200


def make_table(name, seed=0):
    return Table(name, [Column("a", SqlType.INT, [seed, seed + 1])])


class TestEpochMonotonicity:
    def _hammer(self, catalog, op):
        observed = [[] for _ in range(N_THREADS)]
        barrier = threading.Barrier(N_THREADS)

        def worker(slot):
            barrier.wait()
            for _ in range(OPS_PER_THREAD):
                op(slot)
                observed[slot].append(catalog.epoch("t"))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return observed

    def test_concurrent_touch_is_strictly_monotonic(self):
        catalog = Catalog()
        observed = self._hammer(catalog, lambda slot: catalog.touch("t"))
        # Per-thread reads never regress, and the final epoch accounts
        # for every single bump (no lost updates).
        for reads in observed:
            assert reads == sorted(reads)
        assert catalog.epoch("t") == N_THREADS * OPS_PER_THREAD

    def test_mixed_register_touch_drop_never_regresses(self):
        catalog = Catalog()
        catalog.register(make_table("t"))
        rng = random.Random(7)
        choices = [rng.random() for _ in range(N_THREADS * OPS_PER_THREAD)]
        index = [0]
        lock = threading.Lock()

        def op(slot):
            with lock:
                roll = choices[index[0] % len(choices)]
                index[0] += 1
            if roll < 0.5:
                catalog.touch("t")
            elif roll < 0.9:
                catalog.register(make_table("t", slot), replace=True)
            else:
                try:
                    catalog.drop("t")
                except Exception:
                    pass  # another thread dropped first — epoch still bumped

        observed = self._hammer(catalog, op)
        for reads in observed:
            assert reads == sorted(reads)
        # Total bumps <= ops + initial register, and every read is
        # within that bound (no fabricated epochs).
        ceiling = N_THREADS * OPS_PER_THREAD + 1
        assert 1 <= catalog.epoch("t") <= ceiling

    def test_epoch_values_are_exactly_sequential_under_lock(self):
        """Collect the epoch *returned at bump time* (via a durability
        stub) — the sequence the WAL would log must be 1..N with no
        duplicates or gaps, which is the invariant replay depends on.
        Touches, re-registrations and row-delta writes share the mix."""
        catalog = Catalog()
        catalog.register(make_table("t"))
        logged = []
        log_lock = threading.Lock()

        class Stub:
            def log_touch(self, name, epoch):
                with log_lock:
                    logged.append(epoch)

            def log_table(self, table, epoch):
                self.log_touch(table.name, epoch)

            def log_delta(self, name, delta, epoch):
                self.log_touch(name, epoch)

            def log_drop(self, name, epoch):
                self.log_touch(name, epoch)

        def op(slot):
            kind = (slot + len(logged)) % 4
            if kind == 0:
                catalog.touch("t")
            elif kind == 1:
                catalog.register(make_table("t", slot), replace=True)
            elif kind == 2:
                catalog.write("t", Delta("insert", columns={
                    0: Column("a", SqlType.INT, [slot])
                }))
            else:
                # The DML pattern: a delta computed against a table that
                # another thread replaced meanwhile is computed again.
                while True:
                    table = catalog.get("t")
                    delta = Delta("delete", range(min(1, table.num_rows)))
                    if catalog.write("t", delta, base=table):
                        break

        catalog.durability = Stub()
        self._hammer(catalog, op)
        assert sorted(logged) == list(
            range(2, N_THREADS * OPS_PER_THREAD + 2)
        )
        # And WAL order == epoch order: the log list itself is sorted
        # because append happens under the same lock as the bump.
        assert logged == sorted(logged)
