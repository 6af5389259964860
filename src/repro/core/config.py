"""QFusor configuration switches.

Each flag corresponds to a technique the paper evaluates separately
(Figures 6a and 6c ablate them), so benchmarks can turn layers on and off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["QFusorConfig"]


@dataclass
class QFusorConfig:
    """Feature switches for the QFusor pipeline.

    The defaults enable everything (the full system); the physio-logical
    and physical-optimization benchmarks disable layers selectively.
    """

    #: Master switch: disable to pass queries through untouched.
    enabled: bool = True
    #: JIT-compile single (unfused) UDF pipelines too ("JIT only" mode).
    jit: bool = True
    #: Fuse scalar/table/aggregate UDF chains (F1).
    fuse_udfs: bool = True
    #: Fuse table and aggregate UDF types too.  Disabled by the
    #: YeSQL-style profile, which "supports fusion primarily for scalar
    #: UDFs" (section 2).
    fuse_nonscalar: bool = True
    #: Offload scalar relational operators (case, filters, arithmetic)
    #: into the UDF environment when beneficial (F2).
    offload_relational: bool = True
    #: Offload aggregations (sum/count/...) and drive group-by through the
    #: engine's exported internals (section 5.3.2).
    offload_aggregations: bool = True
    #: Allow operator reordering to unlock fusion (F3).
    reorder: bool = True
    #: Use the compiled-trace cache across queries (Fig. 6d "cache").
    trace_cache: bool = True
    #: Cost-based decisions: use learned statistics when available, and
    #: gate preparation by cost (a small UDF SELECT runs cold on the
    #: floor rung until it is seen again or its estimated boundary
    #: saving pays for translate / plan / fuse / JIT).  Off: the
    #: heuristics alone, and every statement prepared on first sight
    #: (rule 1, "fuse all").
    cost_based: bool = True
    #: Runtime de-optimization: a fused execution that raises invalidates
    #: the trace, blocklists the section, and transparently re-executes
    #: the query through the unfused path.
    deopt: bool = True
    #: Row-level exception policy inside fused batch wrappers:
    #: ``raise`` | ``null`` | ``skip`` | ``reinterpret`` (default: replay
    #: the failed row through the interpreted per-UDF chain).
    row_error_policy: str = "reinterpret"
    # -- query lifecycle governance ------------------------------------
    #: Whole-query wall-clock deadline (s); None disables (legacy).
    query_timeout_s: Optional[float] = None
    #: Per-batch UDF wall-clock cap (s) enforced by the watchdog; a batch
    #: (or single tuple-at-a-time call) exceeding it times out even if
    #: the query deadline has slack left.  None disables.
    udf_batch_timeout_s: Optional[float] = None
    #: Approximate cap on rows flowing through governed checkpoints;
    #: None disables.
    row_budget: Optional[int] = None
    # -- multi-tier caching subsystem (repro.cache) --------------------
    #: Plan cache: normalized-SQL fingerprint -> parsed/planned/fused
    #: pipeline; a hot query skips parse/plan/fuse entirely.
    plan_cache: bool = False
    #: UDF memoization: per-(udf, definition-version) LRU over batch
    #: inputs.  Only UDFs explicitly annotated ``deterministic=True``
    #: participate; admission is cost-aware via the StatsStore.
    udf_memo: bool = False
    #: Query result cache keyed by (SQL fingerprint, table snapshot
    #: epochs, UDF definition versions, config fingerprint).
    result_cache: bool = False
    #: Cache isolation scope (the multi-tenant service sets this to the
    #: tenant id).  Folded into every plan/result cache key, so two
    #: QFusor instances that happened to share cache state could still
    #: never serve one tenant's rows to another.  None: unscoped.
    cache_scope: Optional[str] = None
    # -- Froid-style UDF-to-SQL translation (repro.sql.translate) ------
    #: Compile simple scalar UDFs into SQL expressions ahead of fusion;
    #: when every UDF reference in a statement translates, the UDF
    #: boundary is skipped entirely.  Untranslatable statements fall
    #: back to the fusion/JIT ladder unchanged.
    translate_enabled: bool = False

    def ablated(self, **changes) -> "QFusorConfig":
        """A copy with the given switches changed (for ablation benches)."""
        return replace(self, **changes)

    @classmethod
    def disabled(cls) -> "QFusorConfig":
        """Baseline: no JIT, no fusion — native UDF execution."""
        return cls(enabled=False, jit=False, fuse_udfs=False,
                   offload_relational=False, offload_aggregations=False,
                   reorder=False, trace_cache=False)

    @classmethod
    def jit_only(cls) -> "QFusorConfig":
        """JIT-compiled UDFs but no fusion (Fig. 6a technique b)."""
        return cls(fuse_udfs=False, offload_relational=False,
                   offload_aggregations=False, reorder=False)

    @classmethod
    def fusion_no_offload(cls) -> "QFusorConfig":
        """UDF-only fusion: scalar+table chains, no relational offload
        (Fig. 6a technique c)."""
        return cls(offload_relational=False, offload_aggregations=False)

    @classmethod
    def no_aggregation_offload(cls) -> "QFusorConfig":
        """Everything except aggregation offload (Fig. 6a technique d)."""
        return cls(offload_aggregations=False)

    @classmethod
    def cached(cls, **changes) -> "QFusorConfig":
        """Full system plus every cache tier (plan + UDF memo + result)."""
        config = cls(plan_cache=True, udf_memo=True, result_cache=True)
        return replace(config, **changes) if changes else config

    @classmethod
    def translated(cls, **changes) -> "QFusorConfig":
        """Full system plus Froid-style UDF-to-SQL translation."""
        config = cls(translate_enabled=True)
        return replace(config, **changes) if changes else config

    @classmethod
    def yesql_like(cls) -> "QFusorConfig":
        """The YeSQL profile: tracing JIT plus scalar-only fusion, no
        relational offloading, no table/aggregate fusion."""
        return cls(fuse_nonscalar=False, offload_relational=False,
                   offload_aggregations=False, reorder=False)
