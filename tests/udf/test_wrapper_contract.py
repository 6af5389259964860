"""Pinned wrapper contract: what every generated batch loop does per row.

Each case runs one UDF batch through a :class:`UdfRegistry` (no columnar
kernels, no worker pool, so the generated loop itself does the work) and
records what the loop is observably responsible for:

* its outputs, and the row lineage of expand-mode calls;
* ``boundary.counters`` after the batch;
* the fault injector's ``log`` (which rows fired the hook, in which
  context) and the active context's ``row_events``;
* the escaping error's class, ``row``, ``phase`` and original class.

The UDFs are a user scalar of one and of two arguments, a user
aggregate, a user table UDF in relation and in expand mode, a fused
scalar trace, and fused expand traces with and without a
``DistinctStage``.  Each runs with no fault, with an injected
``udf_exception`` on a NULL row and on a non-NULL row for each scope,
and over an input whose body raises on one row; each of those under
every ``row_error_policy``.

``wrapper_contract.json`` holds the expected records.  Regenerate it
only when a change to the contract is intended::

    PYTHONPATH=src python -m tests.udf.test_wrapper_contract --record
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List

import pytest

from repro.jit import (
    DistinctStage, PipelineSpec, ScalarUdfStage, TableUdfStage,
    generate_fused_udf,
)
from repro.resilience import runtime
from repro.storage import Column
from repro.testing import FaultInjector, inject
from repro.types import SqlType
from repro.udf import UdfRegistry, aggregate_udf, boundary, scalar_udf, table_udf

PINNED_PATH = pathlib.Path(__file__).parent / "wrapper_contract.json"

#: The body of every contract UDF raises on this input.
BOOM = "Boom"


@scalar_udf
def wc_fold(val: str) -> str:
    if val == BOOM:
        raise ValueError("fold refuses " + val)
    return val.lower()


@scalar_udf
def wc_mark(val: str) -> str:
    return "<" + val + ">"


@scalar_udf
def wc_tag(val: str, n: int) -> str:
    if val == BOOM:
        raise ValueError("tag refuses " + val)
    return val + "#" + str(n)


@aggregate_udf
class wc_total:
    def __init__(self):
        self.n = 0

    def step(self, val: str):
        if val == BOOM:
            raise ValueError("total refuses " + val)
        self.n += len(val)

    def final(self) -> int:
        return self.n


@table_udf(output=["tok"], types=[str])
def wc_split(rows):
    for (text,) in rows:
        if text is None:
            continue
        if text == BOOM:
            raise ValueError("split refuses " + text)
        for part in text.split():
            yield (part,)


UDFS = (wc_fold, wc_mark, wc_tag, wc_total, wc_split)

#: Input texts: row 1 is NULL, row 3 is a non-NULL row.
TEXTS = ["Ab Cd", None, "ef", "Gh Ab", "ij"]
#: The same texts with row 2 replaced by one every body refuses.
RAISING = ["Ab Cd", None, BOOM, "Gh Ab", "ij"]
INTS = [1, 2, None, 4, 5]
GROUPS = [0, 1, 0, 1, 0]
NULL_ROW, VALUE_ROW = 1, 3


def _text(values):
    return Column("v", SqlType.TEXT, list(values))


def _fused(name, stages, outputs):
    return generate_fused_udf(PipelineSpec(
        name=name, inputs=(("x", SqlType.TEXT),), stages=tuple(stages),
        outputs=tuple(outputs), output_types=(SqlType.TEXT,) * len(outputs),
    )).definition


def _fused_udfs():
    fold, mark, split = wc_fold.__udf__, wc_mark.__udf__, wc_split.__udf__
    return (
        _fused("wc_fused_scalar", [
            ScalarUdfStage(fold, ("x",), "v1"),
            ScalarUdfStage(mark, ("v1",), "v2"),
        ], ["v2"]),
        _fused("wc_fused_expand", [
            ScalarUdfStage(fold, ("x",), "v1"),
            TableUdfStage(split, ("v1",), (), ("t0",)),
        ], ["t0"]),
        _fused("wc_fused_distinct", [
            ScalarUdfStage(fold, ("x",), "v1"),
            TableUdfStage(split, ("v1",), (), ("t0",)),
            DistinctStage(("t0",)),
        ], ["t0"]),
    )


def _call(registry, kind: str, texts) -> Any:
    """One batch of ``kind`` over ``texts``; a JSON-able result."""
    size = len(texts)
    if kind == "scalar":
        return registry.get("wc_fold").call_scalar([_text(texts)], size).to_list()
    if kind == "scalar2":
        ints = Column("n", SqlType.INT, INTS)
        return registry.get("wc_tag").call_scalar(
            [_text(texts), ints], size
        ).to_list()
    if kind == "aggregate":
        return registry.get("wc_total").call_aggregate(
            [_text(texts)], size, GROUPS, 2
        )
    if kind == "relation":
        columns = registry.get("wc_split").call_table([_text(texts)], size)
        return [col.to_list() for col in columns]
    if kind == "expand":
        lineage, columns = registry.get("wc_split").call_table_expand(
            [_text(texts)], size
        )
        return [list(lineage), [col.to_list() for col in columns]]
    if kind == "fused_scalar":
        return registry.get("wc_fused_scalar").call_scalar(
            [_text(texts)], size
        ).to_list()
    lineage, columns = registry.get(f"wc_{kind}").call_table_expand(
        [_text(texts)], size
    )
    return [list(lineage), [col.to_list() for col in columns]]


#: Case kind -> the UDF name faults are injected on.
KINDS = {
    "scalar": "wc_fold",
    "scalar2": "wc_tag",
    "aggregate": "wc_total",
    "relation": "wc_split",
    "expand": "wc_split",
    "fused_scalar": "wc_fold",
    "fused_expand": "wc_fold",
    "fused_distinct": "wc_fold",
}
FAULTS = ["none", "raising_body"] + [
    f"{where}_{scope}"
    for where in ("null", "value") for scope in ("interp", "fused", "any")
]


def _case_id(kind: str, fault: str, policy: str) -> str:
    return f"{kind}/{fault}/{policy}"


CASES = [
    _case_id(kind, fault, policy)
    for kind in KINDS for fault in FAULTS
    for policy in runtime.ROW_ERROR_POLICIES
]


def _registry() -> UdfRegistry:
    registry = UdfRegistry()
    registry.register_many(UDFS)
    for definition in _fused_udfs():
        registry.register(definition)
    return registry


def run_case(case: str) -> Dict[str, Any]:
    """Run one contract case on a fresh registry; its record."""
    kind, fault, policy = case.split("/")
    registry = _registry()
    injector = FaultInjector()
    texts = RAISING if fault == "raising_body" else TEXTS
    if fault not in ("none", "raising_body"):
        where, scope = fault.split("_")
        row = NULL_ROW if where == "null" else VALUE_ROW
        injector.udf_exception(KINDS[kind], row=row, scope=scope)
    context = runtime.ResilienceContext(row_error_policy=policy)
    boundary.counters.reset()
    record: Dict[str, Any] = {"output": None, "error": None}
    with inject(injector), runtime.activate(context):
        try:
            record["output"] = _call(registry, kind, texts)
        except Exception as exc:  # the escaping error is part of the record
            original = getattr(exc, "original", None)
            record["error"] = [
                type(exc).__name__, getattr(exc, "row", None),
                getattr(exc, "phase", None),
                type(original).__name__ if original is not None else None,
            ]
    record["counters"] = boundary.counters.snapshot()
    record["log"] = [list(entry) for entry in injector.log]
    record["row_events"] = [
        [event.udf, event.row, event.action, event.error]
        for event in context.row_events
    ]
    return record


def record_all() -> Dict[str, Any]:
    return {case: run_case(case) for case in CASES}


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    return json.loads(PINNED_PATH.read_text())


def test_pinned_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_case_matches_pinned(pinned, case):
    assert run_case(case) == pinned[case]


def _main(argv: List[str]) -> None:
    if argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.udf.test_wrapper_contract --record")
    PINNED_PATH.write_text(json.dumps(record_all(), indent=1) + "\n")


if __name__ == "__main__":
    _main(sys.argv)
