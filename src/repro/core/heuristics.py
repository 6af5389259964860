"""Cold-start fusion heuristics (paper section 5.2.4).

When a UDF has no execution statistics yet, the cost model's posterior is
all prior; rather than trusting it, FO falls back on rules distilled from
"common practices and extensive experimentation":

1. fuse all fusible scalar, aggregate, and table UDFs;
2. fuse a filter with its dependent UDF(s) if the filter is not highly
   selective (filters out less than ~20% of its input);
3. fuse group-by operators when possible;
4. fuse a distinct only when highly selective (drops more than ~90%);
5. never fuse joins and sorts — the gain is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from ..resilience.blocklist import FusionBlocklist
from .config import QFusorConfig
from .cost import CostModel
from .dfg import Operator

__all__ = ["Heuristics"]

#: Rule 4's threshold: DISTINCT fuses only when it drops at least this
#: fraction of its input ("filters out more than 90%").
DISTINCT_FUSION_MIN_DROP = 0.9


@dataclass
class Heuristics:
    """Rule-based fusion decisions, used when statistics are missing and
    blended with the cost model otherwise (the paper's hybrid strategy)."""

    config: QFusorConfig
    cost_model: CostModel
    #: Sections that de-optimized at runtime sit out fusion for a
    #: cooldown period (rule 0: never immediately re-fuse a trace that
    #: just failed).
    blocklist: FusionBlocklist = field(default_factory=FusionBlocklist)

    # -- rule 0 ----------------------------------------------------------

    def allow_fusion(self, signature_key: Hashable) -> bool:
        """False while the pipeline's signature is blocklisted after a
        runtime de-optimization."""
        return not self.blocklist.is_blocked(signature_key)

    # -- rule 1 ----------------------------------------------------------

    def should_fuse_udf_chain(self, ops: Sequence[Operator]) -> bool:
        """F1 chains: always fuse — eliminates wrapping cost and lengthens
        JIT traces (section 5.2.3 says FO *always* recommends this)."""
        return self.config.fuse_udfs and len(ops) >= 1

    # -- rule 2 ----------------------------------------------------------

    def should_fuse_filter(
        self,
        filter_op: Operator,
        udf_ops: Sequence[Operator],
        keep_fraction: Optional[float] = None,
    ) -> bool:
        """Filter + UDF fusion (an F2 case).

        With statistics: the F2 inequality.  Without: the rule-based
        threshold on the filter's selectivity.
        """
        if not self.config.offload_relational:
            return False
        have_stats = all(
            self.cost_model.stats.known(u.name) for u in udf_ops if u.is_udf
        )
        if self.config.cost_based and have_stats:
            return self.cost_model.should_offload(
                filter_op, list(udf_ops), rel_selectivity=keep_fraction
            )
        if keep_fraction is None:
            keep_fraction = 0.33  # planner default
        return keep_fraction >= self.config.filter_fusion_min_keep

    # -- rule 3 ----------------------------------------------------------

    def should_fuse_groupby(self) -> bool:
        return self.config.offload_aggregations

    def should_fuse_aggregation(self, agg_op: Operator) -> bool:
        """Offload a builtin aggregation (sum/count/...) into the fused
        UDF; blocking aggregates (median) never fuse (Table 3)."""
        if not self.config.offload_aggregations:
            return False
        from .relops import BLOCKING_AGGREGATES

        return agg_op.name not in BLOCKING_AGGREGATES

    # -- rule 4 ----------------------------------------------------------

    def should_fuse_distinct(self, drop_fraction: Optional[float] = None) -> bool:
        if not self.config.offload_relational:
            return False
        if drop_fraction is None:
            drop_fraction = 0.5  # planner default
        return drop_fraction >= DISTINCT_FUSION_MIN_DROP

    # -- rule 5 ----------------------------------------------------------

    def should_fuse_join(self) -> bool:
        return False

    def should_fuse_sort(self) -> bool:
        return False
