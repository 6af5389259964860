"""Shared pieces of the perf ledger: statistics, the span recorder, the
knob-tolerant constructors and the result oracle.

Everything here measures the system from outside: nothing under ``src/``
knows the ledger exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import math
import resource
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def drift_pct(samples: Sequence[float]) -> float:
    """Second-half median against first-half median, in percent.

    A stationary series reads ~0; a leak, a cache that keeps filling or
    a CPU that changed speed mid-run reads as a signed drift.
    """
    half = len(samples) // 2
    if half == 0:
        return 0.0
    first, second = median(samples[:half]), median(samples[half:])
    return (second - first) / first * 100.0


# ----------------------------------------------------------------------
# Span recorder (the benchmark's own; written out at exit)
# ----------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans: name, start, end, parent, one id per statement."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, statement: Optional[str] = None) -> Iterator[int]:
        index = self.open(name, time.perf_counter(), statement)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def open(self, name: str, start: float, statement: Optional[str] = None,
             end: Optional[float] = None, parent: Optional[int] = None) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        if statement is None and parent is not None:
            statement = self.spans[parent]["statement"]
        self.spans.append({
            "name": name, "start": start, "end": end,
            "parent": parent, "statement": statement,
        })
        return len(self.spans) - 1

    def absorb(self, other: "SpanRecorder") -> None:
        """Append another recorder's spans (a client thread's)."""
        offset = len(self.spans)
        for span in other.spans:
            if span["parent"] is not None:
                span["parent"] += offset
        self.spans.extend(other.spans)


# ----------------------------------------------------------------------
# Knob-tolerant construction
# ----------------------------------------------------------------------


def accepted_names(target: Any) -> Optional[set]:
    """Keyword names ``target`` accepts (None: it takes ``**kwargs``)."""
    if dataclasses.is_dataclass(target):
        return {f.name for f in dataclasses.fields(target) if f.init}
    params = inspect.signature(target).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return None
    return {
        name for name, p in params.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }


class Knobs:
    """Records which requested knobs were applied and which were dropped
    because the constructor no longer has them, so a later PR can delete
    a knob without breaking the benchmark it is judged by."""

    def __init__(self) -> None:
        self.applied: Dict[str, Dict[str, Any]] = {}
        self.dropped: Dict[str, List[str]] = {}

    def build(self, target: Callable, *args: Any, **wanted: Any) -> Any:
        names = accepted_names(target)
        kept = {
            k: v for k, v in wanted.items() if names is None or k in names
        }
        label = getattr(target, "__qualname__", str(target))
        self.applied.setdefault(label, {}).update(
            {k: _plain(v) for k, v in kept.items()}
        )
        gone = sorted(set(wanted) - set(kept))
        if gone:
            known = self.dropped.setdefault(label, [])
            known.extend(k for k in gone if k not in known)
        return target(*args, **kept)


def _plain(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return f"<{type(value).__name__}>"


# ----------------------------------------------------------------------
# Result oracle
# ----------------------------------------------------------------------


def normalize(table: Any) -> List[Tuple]:
    """A result as an order-insensitive multiset of comparable rows
    (bools as ints, floats rounded to 9 places, as tests/differential)."""
    rows = [
        tuple(
            int(v) if isinstance(v, bool)
            else round(v, 9) if isinstance(v, float)
            else v
            for v in row
        )
        for row in table.to_rows()
    ]
    rows.sort(key=repr)
    return rows


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def check_rows(self, label: str, got: Any, expected: List[Tuple]) -> bool:
        """Count one oracle comparison of a result against reference rows."""
        if normalize(got) == expected:
            self.ok()
            return True
        self.fail(f"{label}: rows differ from the plain-engine reference")
        return False

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 10 - len(self.failures)])


# ----------------------------------------------------------------------
# Timed passes on a host whose cores change speed
# ----------------------------------------------------------------------

#: Iterations of the calibration loop (about 6 ms of interpreter work).
SPIN_ITERATIONS = 100_000
#: A spin this much slower than the floor marks a disturbed core.
QUIET_SLACK = 0.25


class QuietGate:
    """Times passes only while the core runs at its undisturbed speed.

    On the shared sandbox host a core has two speeds: alone, or 1.4-1.8x
    slower while a neighbour is busy, in stretches from seconds to
    minutes; in one series half of ten runs landed in the slow speed, so
    their medians split in two.  The fast speed is the reproducible one.
    ``spin`` times a fixed piece of interpreter work on the wall clock;
    the *floor* is the fastest spin ever seen from this checkout (kept in
    ``store`` between runs, because a run that is slow throughout cannot
    tell by itself).  A pass starts only once a spin is within
    ``QUIET_SLACK`` of the floor, and is thrown away if the spin after it
    is not.  Waiting and discarding together may use ``budget`` seconds
    of a run; after that every pass counts, so a long slow stretch costs
    one slow run, not a hang.

    The decision looks only at the spins, never at the pass, so it cannot
    favour either side of a comparison.
    """

    def __init__(self, store: Optional[Path] = None, budget: float = 0.0):
        self.store = store
        self.budget = budget
        self.spent = 0.0
        self.discarded = 0
        self.floor = float("inf")
        self.fastest = float("inf")
        if store is not None and store.is_file():
            try:
                self.floor = float(json.loads(store.read_text())["floor_s"])
            except (ValueError, KeyError, TypeError):
                pass  # unreadable: start over

    def spin(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(SPIN_ITERATIONS):
            total += i * i
        elapsed = time.perf_counter() - start
        self.fastest = min(self.fastest, elapsed)
        self.floor = min(self.floor, elapsed)
        return elapsed

    def quiet(self) -> bool:
        return self.spin() <= self.floor * (1.0 + QUIET_SLACK)

    @property
    def open(self) -> bool:
        """False once the budget is spent: from then on nothing waits."""
        return self.spent < self.budget

    def wait(self) -> None:
        """Spin until the core is quiet or the budget runs out.  (It
        spins, not sleeps: an idle guest is given less of the core.)"""
        start = time.perf_counter()
        while self.open and not self.quiet():
            self.spent += time.perf_counter() - start
            start = time.perf_counter()

    def discard(self, seconds: float) -> bool:
        """After a pass: should it be thrown away as disturbed?"""
        if not self.open or self.quiet():
            return False
        self.spent += seconds
        self.discarded += 1
        return True

    def save(self) -> None:
        """Remember the floor for the next run from this checkout.  A run
        that never came near the stored floor replaces it with its own
        fastest spin: the floor was another machine's."""
        if self.store is None or self.fastest == float("inf"):
            return
        near = self.fastest <= self.floor * (1.0 + QUIET_SLACK)
        floor = self.floor if near else self.fastest
        self.store.parent.mkdir(parents=True, exist_ok=True)
        self.store.write_text(json.dumps({"floor_s": floor}) + "\n")


@dataclasses.dataclass
class Pass:
    """One timed unit of work and the operation latencies inside it."""

    seconds: float = 0.0
    #: (statement or template id, seconds) of every successful read.
    reads: List[Tuple[Any, float]] = dataclasses.field(default_factory=list)
    write_s: List[float] = dataclasses.field(default_factory=list)

    @property
    def read_s(self) -> List[float]:
        return [seconds for _, seconds in self.reads]


def timed_passes(
    one_pass: Callable[[Pass], None],
    seconds: float,
    min_passes: int,
    before: Optional[Callable[[], None]] = None,
    gate: Optional[QuietGate] = None,
) -> List[Pass]:
    """Run ``one_pass`` until ``seconds`` have elapsed (at least
    ``min_passes`` times), not counting what ``gate`` spent waiting for a
    quiet core or on discarded passes.  ``before`` runs ahead of each
    pass, outside its clock."""
    passes: List[Pass] = []
    started = time.perf_counter()
    already = gate.spent if gate is not None else 0.0

    def elapsed() -> float:
        waited = gate.spent - already if gate is not None else 0.0
        return time.perf_counter() - started - waited

    while len(passes) < min_passes or elapsed() < seconds:
        if before is not None:
            before()
        if gate is not None:
            gate.wait()
        current = Pass()
        start = time.perf_counter()
        one_pass(current)
        current.seconds = time.perf_counter() - start
        if gate is None or not gate.discard(current.seconds):
            passes.append(current)
    return passes


def end_to_end(setups: List[Pass], passes: List[Pass],
               n_clients: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of a run, and the spread they rest on."""
    seconds = [p.seconds for p in passes]
    reads = [s for p in passes for s in p.read_s]
    writes = [s for p in passes for s in p.write_s]
    by_statement: Dict[Any, List[float]] = {}
    for current in passes:
        for key, elapsed in current.reads:
            by_statement.setdefault(key, []).append(elapsed)
    values = {
        "setup_s": median([p.seconds for p in setups]),
        "pass_s_p50": median(seconds),
        # Each client is busy for the sum of its own passes.
        "ops_per_s": (len(reads) + len(writes)) / (sum(seconds) / n_clients),
        # Every distinct read statement counts once, however often it
        # runs and however long it takes: the median over all reads is
        # one statement's latency on a batch workload, and a different
        # one from seed to seed.
        "read_ms_gmean": 1e3 * math.exp(
            sum(math.log(median(v)) for v in by_statement.values())
            / len(by_statement)
        ),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(passes), "setups": len(setups),
        "pass_s_p25": percentile(seconds, 0.25),
        "pass_s_p75": percentile(seconds, 0.75),
        # The tails do not repeat inside any allowed bound on a shared
        # host (spread 20-70 % over ten runs), so they are shown here and
        # as per-layer metrics, not judged.
        "pass_s_p90": percentile(seconds, 0.90),
        "read_ms_p50": median(reads) * 1e3,
        "read_ms_p95": percentile(reads, 0.95) * 1e3,
        "drift_pct": drift_pct(seconds),
        "reads": len(reads), "writes": len(writes),
        "pass_seconds": seconds,
    }
    return values, detail
