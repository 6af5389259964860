"""repro.columnar — the typed-buffer data plane.

Three pieces, one policy object:

- :mod:`~repro.columnar.buffer` — ``Batch``/``BufferPage`` over typed
  contiguous buffers with zero-copy slicing (the unit of exchange).
- :mod:`~repro.columnar.kernels` — batch-at-a-time scalar UDF kernels
  that cross the engine↔UDF boundary per *column* instead of per value.
- :mod:`~repro.columnar.morsel` — the morsel grid the vector executor
  shards row-parallel operators over, with per-morsel governance
  checkpoints and deopt-to-serial fallback.

Everything is **off by default**: the classic paths (and their exact
boundary-crossing counts, which the Figure 6c reproduction asserts on)
are untouched until an adapter opts in via ``enable_columnar()`` or the
``columnar=True`` constructor knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .buffer import Batch, BufferPage, PageTypeError, page_from_values
from .morsel import MorselScheduler

__all__ = [
    "ColumnarPolicy", "Batch", "BufferPage", "PageTypeError",
    "page_from_values", "MorselScheduler",
]

#: Default morsel: 4096 rows — big enough to amortize per-morsel
#: scheduling/span overhead, small enough that governance checkpoints
#: stay responsive.
DEFAULT_MORSEL_SIZE = 4096


@dataclass
class ColumnarPolicy:
    """One adapter's columnar-plane configuration.

    Shared between the executor (morsel sharding) and the UDF registry
    (kernel dispatch); attached means on.  The scheduler hanging off it
    mirrors ``threads`` / ``morsel_size``.
    """

    morsel_size: int = DEFAULT_MORSEL_SIZE
    threads: int = 1

    def __post_init__(self):
        self.morsel_size = max(1, int(self.morsel_size))
        self.threads = max(1, int(self.threads))
        self.scheduler = MorselScheduler(
            threads=self.threads, morsel_size=self.morsel_size
        )

    def configure(
        self,
        *,
        morsel_size: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> "ColumnarPolicy":
        """Update knobs in place (``None`` leaves a knob untouched)."""
        if morsel_size is not None:
            self.morsel_size = max(1, int(morsel_size))
            self.scheduler.morsel_size = self.morsel_size
        if threads is not None:
            self.threads = max(1, int(threads))
            self.scheduler.threads = self.threads
        return self
