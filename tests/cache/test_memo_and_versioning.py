"""UDF memoization tier + registry definition versioning."""

import pytest

from repro.cache import UdfMemoCache
from repro.storage.column import Column
from repro.types import SqlType
from repro.udf import scalar_udf
from repro.udf.registry import UdfRegistry


def _col(values):
    return Column("x", SqlType.INT, list(values))


@scalar_udf(name="memo_pure", deterministic=True)
def memo_pure(x: int) -> int:
    return x * 10


@scalar_udf(name="memo_unannotated")
def memo_unannotated(x: int) -> int:
    return x * 10


@scalar_udf(name="memo_impure", deterministic=False)
def memo_impure(x: int) -> int:
    return x * 10


class TestVersioning:
    def test_first_registration_is_version_one(self):
        reg = UdfRegistry()
        u = reg.register(memo_pure)
        assert u.version == 1
        assert reg.version_of("memo_pure") == 1
        assert reg.version_of("never_seen") == 0

    def test_identical_reregistration_keeps_version(self):
        reg = UdfRegistry()
        reg.register(memo_pure)
        u = reg.register(memo_pure, replace=True)
        assert u.version == 1

    def test_changed_body_bumps_version_and_notifies(self):
        reg = UdfRegistry()
        bumps = []
        reg.add_version_listener(lambda name, v: bumps.append((name, v)))
        reg.register(memo_pure)

        @scalar_udf(name="memo_pure", deterministic=True)
        def changed(x: int) -> int:
            return x * 11

        u = reg.register(changed, replace=True)
        assert u.version == 2
        assert ("memo_pure", 2) in bumps

    def test_changed_closure_bumps_version(self):
        def make(factor):
            @scalar_udf(name="memo_closure", deterministic=True)
            def scaled(x: int) -> int:
                return x * factor

            return scaled

        reg = UdfRegistry()
        reg.register(make(2))
        assert reg.register(make(2), replace=True).version == 1
        assert reg.register(make(3), replace=True).version == 2

    def test_registration_deterministic_override_counts_as_annotation(self):
        reg = UdfRegistry()
        u = reg.register(memo_unannotated, deterministic=True)
        assert u.definition.deterministic_annotated
        # Overriding the flag changes the definition fingerprint, but the
        # shared decorator object must not be mutated.
        assert not memo_unannotated.__udf__.deterministic_annotated

    def test_pinned_version(self):
        reg = UdfRegistry()
        u = reg.register(memo_pure, version=7)
        assert u.version == 7


class TestMemoAdmission:
    def test_unannotated_and_impure_ineligible(self):
        reg = UdfRegistry()
        memo = UdfMemoCache()
        pure = reg.register(memo_pure)
        plain = reg.register(memo_unannotated)
        impure = reg.register(memo_impure)
        assert memo.eligible(pure)
        assert not memo.eligible(plain)
        assert not memo.eligible(impure)

    def test_cost_floor_blocks_cheap_udfs(self):
        reg = UdfRegistry()
        pure = reg.register(memo_pure)
        # Fresh prior is 1e-5 s/tuple; a floor above it rejects.
        expensive_only = UdfMemoCache(min_cost_s=1.0)
        assert not expensive_only.admitted(pure, 8)
        assert expensive_only.batch_key(pure, [_col([1, 2])], 2) is None
        permissive = UdfMemoCache(min_cost_s=1e-9)
        assert permissive.admitted(pure, 8)

    def test_oversized_batches_rejected(self):
        reg = UdfRegistry()
        pure = reg.register(memo_pure)
        memo = UdfMemoCache(max_batch_rows=4)
        assert not memo.admitted(pure, 5)
        assert memo.admitted(pure, 4)

    def test_key_rotates_with_version(self):
        reg = UdfRegistry()
        memo = UdfMemoCache()
        pure = reg.register(memo_pure)
        key1 = memo.batch_key(pure, [_col([1, 2, 3])], 3)

        @scalar_udf(name="memo_pure", deterministic=True)
        def changed(x: int) -> int:
            return x * 12

        bumped = reg.register(changed, replace=True)
        key2 = memo.batch_key(bumped, [_col([1, 2, 3])], 3)
        assert key1 is not None and key2 is not None and key1 != key2

    def test_fault_injection_disables_memo_keys(self):
        from repro.resilience import runtime

        reg = UdfRegistry()
        memo = UdfMemoCache()
        pure = reg.register(memo_pure)
        assert memo.batch_key(pure, [_col([1])], 1) is not None
        runtime.FAULTS.armed = True
        try:
            assert memo.batch_key(pure, [_col([1])], 1) is None
            assert memo.value_key(pure, (1,)) is None
        finally:
            runtime.FAULTS.armed = False


class TestMemoStorage:
    def test_memoized_none_disambiguated(self):
        memo = UdfMemoCache()
        memo.put(("k",), None)
        hit, value = memo.lookup(("k",))
        assert hit and value is None
        hit, value = memo.lookup(("other",))
        assert not hit

    def test_invalidate_udf_drops_all_versions(self):
        memo = UdfMemoCache()
        memo.put(("u", 1, "raise", 4, "aa"), 1)
        memo.put(("u", 2, "raise", 4, "aa"), 2)
        memo.put(("v", 1, "raise", 4, "aa"), 3)
        assert memo.invalidate_udf("u") == 2
        assert len(memo) == 1


class TestMemoThroughRegistry:
    def test_call_scalar_served_from_memo(self):
        reg = UdfRegistry()
        memo = UdfMemoCache(min_cost_s=0.0)
        reg.memo = memo
        pure = reg.register(memo_pure)
        col = _col([1, 2, 3])
        first = pure.call_scalar([col], 3)
        second = pure.call_scalar([col], 3)
        assert second.to_list() == first.to_list() == [10, 20, 30]
        assert memo.hits == 1 and memo.stores == 1

    def test_call_scalar_value_served_from_memo(self):
        reg = UdfRegistry()
        memo = UdfMemoCache(min_cost_s=0.0)
        reg.memo = memo
        pure = reg.register(memo_pure)
        assert pure.call_scalar_value((4,)) == 40
        assert pure.call_scalar_value((4,)) == 40
        assert memo.hits == 1

    def test_unannotated_udf_never_memoized(self):
        reg = UdfRegistry()
        memo = UdfMemoCache(min_cost_s=0.0)
        reg.memo = memo
        plain = reg.register(memo_unannotated)
        col = _col([1, 2])
        plain.call_scalar([col], 2)
        plain.call_scalar([col], 2)
        assert memo.stores == 0 and memo.hits == 0

    def test_reregistration_invalidates_served_results(self):
        """The satellite regression: re-registering a changed body must
        invalidate memoized results immediately."""
        reg = UdfRegistry()
        memo = UdfMemoCache(min_cost_s=0.0)
        reg.memo = memo
        reg.add_version_listener(lambda name, v: memo.invalidate_udf(name))
        pure = reg.register(memo_pure)
        col = _col([5])
        assert pure.call_scalar([col], 1).to_list() == [50]

        @scalar_udf(name="memo_pure", deterministic=True)
        def changed(x: int) -> int:
            return x * 100

        bumped = reg.register(changed, replace=True)
        assert bumped.call_scalar([col], 1).to_list() == [500]
