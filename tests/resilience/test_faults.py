"""Unit tests for the deterministic fault-injection harness."""

import pytest

from repro.resilience import runtime
from repro.testing import FaultInjector, InjectedFault, inject
from repro.types import SqlType


class TestRowFaults:
    def test_fires_on_matching_udf_and_row(self):
        inj = FaultInjector().udf_exception("f", row=2, scope="any")
        inj.fire_row(("f",), 0, "interp")
        inj.fire_row(("f",), 1, "interp")
        with pytest.raises(InjectedFault):
            inj.fire_row(("f",), 2, "interp")
        assert inj.fired == 1

    def test_udf_name_match_is_case_insensitive_and_searches_all_names(self):
        inj = FaultInjector().udf_exception("INNER", scope="any")
        with pytest.raises(InjectedFault):
            inj.fire_row(("qf_fused_9", "inner", "outer"), 0, "fused")

    def test_non_matching_udf_never_fires(self):
        inj = FaultInjector().udf_exception("f", scope="any")
        inj.fire_row(("g",), 0, "interp")
        assert inj.fired == 0

    def test_scope_fused_skips_interpreted_execution(self):
        inj = FaultInjector().udf_exception("f", scope="fused")
        inj.fire_row(("f",), 0, "interp")
        assert inj.fired == 0
        with pytest.raises(InjectedFault):
            inj.fire_row(("f",), 0, "fused")

    def test_times_bounds_total_firings(self):
        inj = FaultInjector().udf_exception("f", times=2, scope="any")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                inj.fire_row(("f",), 0, "interp")
        inj.fire_row(("f",), 0, "interp")  # exhausted: no raise
        assert inj.fired == 2

    def test_every_matches_periodically(self):
        inj = FaultInjector().udf_exception(
            "f", every=3, times=10, scope="any"
        )
        hits = []
        for i in range(9):
            try:
                inj.fire_row(("f",), i, "interp")
            except InjectedFault:
                hits.append(i)
        assert hits == [0, 3, 6]

    def test_call_counter_substitutes_for_missing_row_index(self):
        inj = FaultInjector().udf_exception("f", row=1, scope="any")
        inj.fire_row(("f",), None, "interp")  # surrogate position 0
        with pytest.raises(InjectedFault):
            inj.fire_row(("f",), None, "interp")  # surrogate position 1

    def test_custom_exception_instance(self):
        boom = KeyError("custom")
        inj = FaultInjector().udf_exception("f", exc=boom, scope="any")
        with pytest.raises(KeyError):
            inj.fire_row(("f",), 0, "interp")

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError):
            FaultInjector().udf_exception("f", scope="sometimes")


class TestBoundaryAndChannelFaults:
    def test_boundary_fires_on_matching_type(self):
        inj = FaultInjector().boundary_error(SqlType.JSON)
        inj.fire_boundary(SqlType.TEXT)
        with pytest.raises(InjectedFault):
            inj.fire_boundary(SqlType.JSON)
        inj.fire_boundary(SqlType.JSON)  # exhausted

    def test_boundary_wildcard_type(self):
        inj = FaultInjector().boundary_error(times=2)
        with pytest.raises(InjectedFault):
            inj.fire_boundary(SqlType.INT)
        with pytest.raises(InjectedFault):
            inj.fire_boundary(SqlType.TEXT)


class TestInjectContextManager:
    def test_arms_and_disarms_global_hook(self):
        assert not runtime.FAULTS.armed
        with inject() as inj:
            assert runtime.FAULTS.armed
            assert runtime.FAULTS.injector is inj
        assert not runtime.FAULTS.armed
        assert runtime.FAULTS.injector is None

    def test_disarms_on_exception(self):
        with pytest.raises(RuntimeError):
            with inject():
                raise RuntimeError("boom")
        assert not runtime.FAULTS.armed

    def test_log_records_firing_order(self):
        inj = FaultInjector().udf_exception("f", scope="any")
        inj = inj.boundary_error(SqlType.JSON)
        with pytest.raises(InjectedFault):
            inj.fire_row(("f",), 4, "interp")
        with pytest.raises(InjectedFault):
            inj.fire_boundary(SqlType.JSON)
        assert inj.log == [
            ("udf", "f@4/interp"), ("boundary", str(SqlType.JSON)),
        ]
