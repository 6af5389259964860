"""UDF definition objects — the unit the registry, optimizer and JIT share."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .signature import UdfSignature

__all__ = ["UdfKind", "UdfDefinition"]


class UdfKind(enum.Enum):
    """The three UDF types the paper supports (section 4.2)."""

    SCALAR = "scalar"
    AGGREGATE = "aggregate"
    TABLE = "table"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class UdfDefinition:
    """Everything the system knows about one registered UDF.

    Attributes
    ----------
    name:
        Registration name (lower-cased; SQL resolves case-insensitively).
    kind:
        Scalar, aggregate, or table.
    func:
        The user's Python callable: a function for scalar/table UDFs, a
        class implementing ``step``/``final`` for aggregate UDFs.
    signature:
        Input/output types.
    materializes_input:
        True when the UDF contains a blocking operation (e.g. a median, a
        transpose) that requires its whole input at once.  Blocks loop
        fusion per Table 2.
    out_columns:
        Output column names for table UDFs.
    strict:
        Strict scalar UDFs (the default) return NULL for NULL arguments
        without being invoked (PostgreSQL STRICT semantics).  QFusor's
        fused scalar pipelines register non-strict: their generated
        bodies implement exact per-stage NULL semantics — a fused CASE
        may map NULL inputs to a value.
    deterministic:
        Allows the optimizer to reorder the UDF (F3) and cache traces.
    cost_hint:
        Optional developer-supplied cost-per-tuple hint (the
        CREATE FUNCTION cost option some engines offer, section 5.2.2).
    fused_from:
        For fused UDFs produced by QFusor: names of the original operators
        in pipeline order.  Empty for user-registered UDFs.
    """

    name: str
    kind: UdfKind
    func: Callable
    signature: UdfSignature
    materializes_input: bool = False
    out_columns: Tuple[str, ...] = ()
    strict: bool = True
    deterministic: bool = True
    #: True only when the author *explicitly* declared determinism
    #: (``deterministic=True`` at the decorator or at registration).
    #: ``deterministic`` above defaults True for legacy reordering
    #: behaviour, so memo/result caching gates on this stricter flag —
    #: unannotated UDFs are conservatively treated as impure for caching.
    deterministic_annotated: bool = False
    #: For fused traces: the batch entry points compiled with the trace,
    #: by call kind (``"scalar"``, ``"table_expand"``).  The registry
    #: calls these instead of building a wrapper for that kind.
    entries: Dict[str, Callable] = field(default_factory=dict)
    cost_hint: Optional[float] = None
    fused_from: Tuple[str, ...] = ()

    def __post_init__(self):
        self.name = self.name.lower()
        if self.kind is UdfKind.TABLE and not self.out_columns:
            count = len(self.signature.return_types)
            self.out_columns = tuple(f"c{i}" for i in range(count))

    @property
    def is_fused(self) -> bool:
        return bool(self.fused_from)

    @property
    def arity(self) -> int:
        return self.signature.arity

    def skips_null_rows(self) -> bool:
        """The aggregate NULL-skip rule, shared by every executor.

        A strict aggregate does not step on a row whose arguments are
        *all* NULL (SQL semantics: ``SUM(CASE WHEN ... THEN 1 ELSE NULL
        END)`` counts matching rows).  A non-strict (fused) aggregate
        steps on every row: its generated step computes the argument,
        which may map NULL inputs to a value, and skips a NULL argument
        itself."""
        return self.strict and self.arity > 0

    def __repr__(self) -> str:
        return f"UdfDefinition({self.name!r}, {self.kind}, {self.signature})"
