"""Tier 2: per-UDF batch memoization with cost-aware admission.

Deterministic UDFs are algebraically transparent (the Froid premise), so
a batch of inputs seen before can be answered from memory.  Memoization
is only worth its hashing cost for UDFs whose per-tuple cost is high
enough; the admission policy consults the same
:class:`~repro.udf.state.StatsStore` cost posteriors the fusion
optimizer uses (the GRACEFUL-style cost signal), so cheap UDFs are never
memoized.

Keys are ``(name, definition-version, row-policy, input-fingerprint)``:
re-registering a changed definition bumps the version, orphaning every
stale entry, and the row-error policy participates because a recovered
row can legally yield policy-dependent output.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..obs import METRICS, OBS
from . import fingerprint
from .lru import LruMap

__all__ = ["UdfMemoCache", "by_value"]

_MISSING = object()


def by_value(registered: Any) -> bool:
    """May this UDF be evaluated by value — its result for an input
    taken from a memo entry or from one call per distinct value?  Only
    for UDFs explicitly annotated deterministic.

    Fused UDFs inherit the verdict from every user UDF they were
    generated from (relational stages are deterministic by
    construction)."""
    definition = registered.definition
    if definition.is_fused:
        registry = registered._registry
        for source in definition.fused_from:
            origin = registry.lookup(source)
            if origin is None:
                continue  # a relational stage, not a UDF
            if not origin.definition.deterministic_annotated:
                return False
        return True
    return definition.deterministic_annotated


class UdfMemoCache:
    """Bounded LRU over UDF batch invocations.

    Attached to a :class:`~repro.udf.registry.UdfRegistry` as
    ``registry.memo``; the registry's scalar call paths consult it before
    crossing the UDF boundary.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        min_cost_s: float = 1e-6,
        max_batch_rows: int = 65536,
    ):
        self._entries = LruMap(capacity)
        #: Expected per-tuple cost (s) below which a UDF is never
        #: admitted — hashing inputs would cost more than the call.
        self.min_cost_s = min_cost_s
        #: Batches larger than this are never memoized (value weight).
        self.max_batch_rows = max_batch_rows
        self.stores = 0

    # ------------------------------------------------------------------
    # Admission + key derivation
    # ------------------------------------------------------------------

    #: Memo-safety is :func:`by_value`.
    eligible = staticmethod(by_value)

    def admitted(self, registered: Any, size: int) -> bool:
        """Cost-aware admission: is memoization worth the hashing?"""
        if size > self.max_batch_rows:
            return False
        if not self.eligible(registered):
            return False
        registry = registered._registry
        return registry.stats.expected_cost(registered.name) >= self.min_cost_s

    def batch_key(
        self, registered: Any, inputs: Any, size: int
    ) -> Optional[Tuple]:
        """Key for a vectorized scalar batch, or None when not admitted."""
        from ..resilience import runtime

        if runtime.FAULTS.armed:
            return None  # fault-injection runs must execute for real
        if not self.admitted(registered, size):
            return None
        name = registered.name
        return (
            name,
            registered.version,
            runtime.policy(),
            size,
            fingerprint.value_fingerprint(inputs),
        )

    def value_key(self, registered: Any, args: Any) -> Optional[Tuple]:
        """Key for one tuple-at-a-time invocation, or None."""
        from ..resilience import runtime

        if runtime.FAULTS.armed:
            return None
        if not self.admitted(registered, 1):
            return None
        return (
            registered.name,
            registered.version,
            runtime.policy(),
            1,
            fingerprint.value_fingerprint(args),
        )

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def lookup(self, key: Tuple) -> Tuple[bool, Any]:
        """``(hit, value)`` — the flag disambiguates memoized ``None``s."""
        value = self._entries.get(key, _MISSING)
        hit = value is not _MISSING
        if OBS.metrics:
            METRICS.counter(
                "repro_cache_hits_total" if hit else "repro_cache_misses_total",
                tier="udf_memo",
            ).inc()
        return (True, value) if hit else (False, None)

    def put(self, key: Tuple, value: Any) -> None:
        before = self._entries.evictions
        self._entries.put(key, value)
        self.stores += 1
        if OBS.metrics and self._entries.evictions != before:
            METRICS.counter(
                "repro_cache_evictions_total", tier="udf_memo"
            ).inc()

    def invalidate_udf(self, name: str) -> int:
        """Drop every entry of one UDF (any version)."""
        name = name.lower()
        dropped = self._entries.pop_matching(lambda key: key[0] == name)
        if dropped and OBS.metrics:
            METRICS.counter(
                "repro_cache_invalidations_total", tier="udf_memo"
            ).inc(dropped)
        return dropped

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)
