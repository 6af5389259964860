"""Unit tests for wrapper generation, registration, and invocation."""

import dataclasses
import sys
import threading

import pytest

from repro.errors import UdfExecutionError, UdfRegistrationError
from repro.storage import Column
from repro.types import SqlType
from repro.udf import UdfRegistry, boundary
from repro.udf.registry import ProcessChannel
from tests.conftest import (
    TEST_UDFS, t_count, t_inc, t_jsonsort, t_lower, t_pairs, t_tokens,
)


@pytest.fixture
def registry():
    reg = UdfRegistry()
    reg.register_many(TEST_UDFS)
    return reg


class TestRegistration:
    def test_duplicate_rejected(self, registry):
        with pytest.raises(UdfRegistrationError):
            registry.register(t_lower)

    def test_replace(self, registry):
        registry.register(t_lower, replace=True)

    def test_name_must_be_an_identifier(self, registry):
        # The name names the generated wrapper functions, which are built
        # on first call: a bad name must fail here, not at that call.
        bad = dataclasses.replace(t_lower.__udf__, name="bad-name")
        with pytest.raises(UdfRegistrationError, match="identifier"):
            registry.register(bad)
        assert "bad-name" not in registry

    def test_undeclared_object_rejected(self, registry):
        with pytest.raises(UdfRegistrationError):
            registry.register(lambda x: x)

    def test_lookup_case_insensitive(self, registry):
        assert registry.get("T_LOWER").name == "t_lower"
        assert "T_Lower" in registry

    def test_unknown_lookup(self, registry):
        assert registry.lookup("missing") is None
        with pytest.raises(UdfRegistrationError):
            registry.get("missing")

    def test_drop(self, registry):
        registry.drop("t_lower")
        assert "t_lower" not in registry

    def test_create_function_statements_recorded(self, registry):
        assert any("t_lower" in s for s in registry.create_statements)

    def test_wrapper_source_matches_paper_shape(self, registry):
        source = registry.get("t_lower").wrapper.source
        assert "def wrapper_t_lower(c_inputs, size):" in source
        assert "c_to_python" in source and "python_to_c" in source


class TestScalarInvocation:
    def test_bulk_call(self, registry):
        col = Column("v", SqlType.TEXT, ["AB", None, "Cd"])
        out = registry.get("t_lower").call_scalar([col], 3)
        assert out.to_list() == ["ab", None, "cd"]

    def test_strict_null_skips_udf(self, registry):
        calls = []

        from repro.udf import scalar_udf

        @scalar_udf(name="spy")
        def spy(x: str) -> str:
            calls.append(x)
            return x

        registry.register(spy)
        col = Column("v", SqlType.TEXT, [None, "x"])
        registry.get("spy").call_scalar([col], 2)
        assert calls == ["x"]

    def test_error_wrapped(self, registry):
        from repro.udf import scalar_udf

        @scalar_udf(name="boom")
        def boom(x: str) -> str:
            raise ValueError("nope")

        registry.register(boom)
        col = Column("v", SqlType.TEXT, ["x"])
        with pytest.raises(UdfExecutionError) as err:
            registry.get("boom").call_scalar([col], 1)
        assert err.value.udf_name == "boom"

    def test_json_conversion_through_wrapper(self, registry):
        col = Column("j", SqlType.JSON, ['["b","a"]'])
        out = registry.get("t_jsonsort").call_scalar([col], 1)
        assert out.to_list() == ['["a","b"]']

    def test_per_value_call(self, registry):
        assert registry.get("t_inc").call_scalar_value([41]) == 42


class TestAggregateInvocation:
    def test_grouped(self, registry):
        col = Column("v", SqlType.TEXT, ["a", "b", "c", "d"])
        out = registry.get("t_count").call_aggregate([col], 4, [0, 1, 0, 1], 2)
        assert out == [2, 2]

    def test_nulls_skipped(self, registry):
        col = Column("v", SqlType.TEXT, ["a", None, "c"])
        out = registry.get("t_count").call_aggregate([col], 3, [0, 0, 0], 1)
        assert out == [2]

    def test_empty_group_gets_final_of_init(self, registry):
        col = Column("v", SqlType.TEXT, [])
        out = registry.get("t_count").call_aggregate([col], 0, [], 1)
        assert out == [0]


class TestTableInvocation:
    def test_relation_mode(self, registry):
        col = Column("v", SqlType.TEXT, ["a b", "c"])
        cols = registry.get("t_tokens").call_table([col], 2)
        assert cols[0].to_list() == ["a", "b", "c"]

    def test_expand_mode_lineage(self, registry):
        col = Column("v", SqlType.TEXT, ["a b", None, "c"])
        lineage, cols = registry.get("t_tokens").call_table_expand([col], 3)
        assert lineage == [0, 0, 2]
        assert cols[0].to_list() == ["a", "b", "c"]

    def test_multi_output(self, registry):
        col = Column("v", SqlType.TEXT, ["xy z"])
        cols = registry.get("t_pairs").call_table([col], 1)
        assert cols[0].to_list() == ["xy", "z"]
        assert cols[1].to_list() == [2, 1]

    def test_racing_first_calls_agree(self, registry):
        """Threads racing to build one wrapper may each build it; every
        call must still see a whole wrapper and the same result."""
        col = Column("v", SqlType.TEXT, ["a b", None, "c"] * 50)
        registered = registry.get("t_tokens")
        barrier = threading.Barrier(8)
        results = []

        def first_call():
            barrier.wait(timeout=10)
            lineage, cols = registered.call_table_expand([col], len(col))
            results.append((lineage, cols[0].to_list()))

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(result == results[0] for result in results)
        assert results[0][1] == ["a", "b", "c"] * 50


class TestStatefulStats:
    def test_stats_observed_per_call(self, registry):
        col = Column("v", SqlType.TEXT, ["a", "b"])
        registry.get("t_lower").call_scalar([col], 2)
        stats = registry.stats.stats("t_lower")
        assert stats.calls == 1
        assert stats.tuples_in == 2
        assert stats.total_time > 0

    def test_selectivity_learned_for_table_udf(self, registry):
        col = Column("v", SqlType.TEXT, ["a b c"])
        registry.get("t_tokens").call_table([col], 1)
        assert registry.stats.selectivity("t_tokens") == 3.0


class TestProcessChannel:
    def test_channel_roundtrips_payloads(self):
        channel = ProcessChannel()
        registry = UdfRegistry(channel=channel)
        registry.register(t_lower)
        col = Column("v", SqlType.TEXT, ["AB"])
        out = registry.get("t_lower").call_scalar([col], 1)
        assert out.to_list() == ["ab"]
        assert channel.crossings == 2  # inputs over, results back
