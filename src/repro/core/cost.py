"""The fusion cost model (paper sections 5.2.2-5.2.3).

Operator cost ``F(v)`` and section cost ``F(S)`` combine:

* the *wrapping cost* — per-tuple data copying/conversion at the UDF
  boundary (:data:`W_IN`, :data:`W_OUT`), which is concrete and
  measurable;
* the *processing cost* of the UDF itself — learned from the stateful
  statistics store (:class:`~repro.udf.state.StatsStore`), bucketed, with
  a Bayesian prior covering the cold start;
* relational operator costs per tuple, both in the engine (``C_r``) and
  offloaded into the UDF environment (``C_ru``).

The F2 inequality (section 5.2.3) decides whether a relational operator
``r`` should run in the UDF environment::

    sum_u |u|*(W_in + W_out*s_u)  -  |u_f|*(W_in + W_out*s_uf)
        >  |r| * (C_ru*s_r - C_r*s_r)

i.e. fuse ``r`` when the boundary savings of fusing the N affected UDFs
exceed the loss of running ``r`` in Python instead of the engine.

The same wrapping terms size a whole statement for QFusor's tier gate:
:meth:`CostModel.boundary_saving` against :meth:`CostModel.prepare_cost`,
a running mean of the measured preparation cost per UDF call site.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..udf.state import StatsStore
from .dfg import Operator
from .relops import classify, is_offloadable

__all__ = ["CostModel", "CostParameters", "INFINITE"]

INFINITE = math.inf


@dataclass(frozen=True)
class CostParameters:
    """Calibrated per-tuple cost constants (seconds).

    Defaults reflect this substrate: boundary crossings cost on the order
    of a microsecond (encode/decode + list handling), engine-side
    vectorized relational work tens of nanoseconds per tuple, Python-side
    offloaded relational work a few hundred nanoseconds.
    """

    w_in: float = 1.2e-6
    w_out: float = 1.2e-6
    #: Prior for preparing one UDF call site (translate, plan, fuse, JIT
    #: compile): 33 sections of the 17 paper queries at 200 rows took
    #: 0.042 s to compile and 0.022 s to fuse.
    prepare_s: float = 1.9e-3
    c_engine: Dict[str, float] = None
    c_udf: Dict[str, float] = None

    def __post_init__(self):
        object.__setattr__(self, "c_engine", self.c_engine or {
            "filter": 4e-8, "compare": 4e-8, "arith": 4e-8, "case": 1.5e-7,
            "between": 8e-8, "isnull": 3e-8, "in": 8e-8, "like": 4e-7,
            "logical": 4e-8, "cast": 8e-8, "distinct": 2.5e-7,
            "groupby": 4e-7, "builtin_agg": 6e-8, "builtin_scalar": 1.5e-7,
        })
        object.__setattr__(self, "c_udf", self.c_udf or {
            "filter": 1.5e-7, "compare": 1.5e-7, "arith": 1.5e-7,
            "case": 2.5e-7, "between": 2e-7, "isnull": 1e-7, "in": 2e-7,
            "like": 6e-7, "logical": 1.5e-7, "cast": 2e-7,
            "distinct": 4e-7, "groupby": 4e-7, "builtin_agg": 2e-7,
            "builtin_scalar": 3e-7,
        })


#: Operator kinds that can never join a fusible section (infinite cost).
_UNFUSIBLE_KINDS = frozenset({"join", "sort", "setop", "limit"})


class CostModel:
    """Evaluates F(v), F(S), and the F2 offloading inequality."""

    def __init__(
        self,
        stats: StatsStore,
        parameters: Optional[CostParameters] = None,
        *,
        default_rows: float = 10_000.0,
    ):
        self.stats = stats
        self.parameters = parameters or CostParameters()
        self.default_rows = default_rows
        # Running mean of the measured preparation cost per call site,
        # the prior counting as the first observation.
        self._prepared = (self.parameters.prepare_s, 1)
        self._prepared_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Preparation: is fusing this statement worth it at all?
    # ------------------------------------------------------------------

    def boundary_saving(self, rows: float, sites: int) -> float:
        """Seconds one execution saves by taking the per-tuple wrapping
        cost off ``sites`` UDF call sites over ``rows`` input tuples."""
        return rows * sites * (self.parameters.w_in + self.parameters.w_out)

    def prepare_cost(self, sites: int) -> float:
        """Expected seconds to translate, plan, fuse and compile a
        statement with ``sites`` UDF call sites."""
        total, n = self._prepared
        return sites * total / n

    def observe_prepare(self, seconds: float, sites: int) -> None:
        """Fold one measured preparation into the running mean."""
        if sites <= 0:
            return
        with self._prepared_lock:
            total, n = self._prepared
            self._prepared = (total + seconds / sites, n + 1)

    # ------------------------------------------------------------------
    # Per-operator quantities
    # ------------------------------------------------------------------

    def rows_of(self, op: Operator) -> float:
        node = op.plan_node
        if node is not None and node.est_rows is not None:
            return max(node.est_rows, 1.0)
        return self.default_rows

    def selectivity_of(self, op: Operator) -> float:
        """Output rows per input row."""
        if op.kind == "scalar_udf":
            return 1.0  # known: scalar output size equals input size
        if op.kind == "aggregate_udf" or op.kind == "builtin_agg":
            return 0.0  # known: one value per group
        if op.is_udf:
            return self.stats.selectivity(op.name, default=3.0)
        if op.kind == "filter":
            return 0.33
        if op.kind == "distinct":
            return 0.5
        return 1.0

    def processing_cost_per_tuple(self, op: Operator) -> float:
        if op.is_udf:
            if op.udf is not None and op.udf.cost_hint is not None and not (
                self.stats.known(op.name)
            ):
                return op.udf.cost_hint
            return self.stats.expected_cost(op.name)
        engine_cost = self.parameters.c_engine.get(op.kind)
        if engine_cost is None:
            return INFINITE
        return engine_cost

    def wrapping_cost(self, op: Operator) -> float:
        """Per-execution wrapper cost of running ``op`` in isolation."""
        if not op.is_udf:
            return 0.0
        rows = self.rows_of(op)
        return rows * (
            self.parameters.w_in
            + self.parameters.w_out * max(self.selectivity_of(op), 0.0)
        )

    # ------------------------------------------------------------------
    # F(v) and F(S)
    # ------------------------------------------------------------------

    def operator_cost(self, op: Operator) -> float:
        """F({v}): the cost of executing one operator unfused."""
        if op.kind in _UNFUSIBLE_KINDS:
            return INFINITE
        rows = self.rows_of(op)
        return self.wrapping_cost(op) + rows * self.processing_cost_per_tuple(op)

    def section_cost(self, ops: Sequence[Operator]) -> float:
        """F(S): the cost of executing the section as one fused UDF.

        One wrapper entry/exit for the whole section; interior boundary
        costs disappear; offloaded relational operators run at their
        UDF-environment per-tuple rate.
        """
        if not ops:
            return INFINITE
        if any(op.kind in _UNFUSIBLE_KINDS for op in ops):
            return INFINITE
        rows = max(self.rows_of(op) for op in ops)
        out_selectivity = self.selectivity_of(ops[-1])
        cost = rows * (
            self.parameters.w_in + self.parameters.w_out * out_selectivity
        )
        for op in ops:
            if op.is_udf:
                per_tuple = self.processing_cost_per_tuple(op)
            else:
                per_tuple = self.parameters.c_udf.get(op.kind, INFINITE)
            if per_tuple is INFINITE:
                return INFINITE
            cost += self.rows_of(op) * per_tuple
        return cost

    # ------------------------------------------------------------------
    # The F2 inequality
    # ------------------------------------------------------------------

    def should_offload(
        self,
        rel_op: Operator,
        udf_ops: Sequence[Operator],
        fused_rows: Optional[float] = None,
        fused_selectivity: Optional[float] = None,
        rel_selectivity: Optional[float] = None,
    ) -> bool:
        """Evaluate the F2 inequality for relational operator ``rel_op``.

        ``udf_ops`` is the maximal set of UDF operators affected by the
        relational operator in the examined section.
        """
        if not is_offloadable(rel_op.name) and not is_offloadable(rel_op.kind):
            return False
        w_in, w_out = self.parameters.w_in, self.parameters.w_out

        isolated = sum(
            self.rows_of(u) * (w_in + w_out * self.selectivity_of(u))
            for u in udf_ops
        )
        if fused_rows is None:
            fused_rows = max((self.rows_of(u) for u in udf_ops), default=1.0)
        if fused_selectivity is None:
            fused_selectivity = (
                self.selectivity_of(udf_ops[-1]) if udf_ops else 1.0
            )
        fused = fused_rows * (w_in + w_out * fused_selectivity)
        gain = isolated - fused

        rel_rows = self.rows_of(rel_op)
        if rel_selectivity is None:
            rel_selectivity = self.selectivity_of(rel_op)
        c_udf = self.parameters.c_udf.get(rel_op.kind, INFINITE)
        c_engine = self.parameters.c_engine.get(rel_op.kind, 0.0)
        if c_udf is INFINITE:
            return False
        loss = rel_rows * (c_udf * rel_selectivity - c_engine * rel_selectivity)
        # If the right-hand side is a gain (negative loss), always offload.
        if loss <= 0:
            return True
        return gain > loss
