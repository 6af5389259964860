#!/usr/bin/env python3
"""Compare two ledger sets against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/ledger/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric) with both values, the ratio
NEW/BASE and a verdict:

* ``REGRESSION`` — worse than BASE by more than the metric's bound;
* ``WIN`` — at least 2x better; ``IMPROVED`` — better by more than the
  bound; ``NEUTRAL`` — within the bound either way;
* ``UNRESOLVED`` — a side's own run-to-run spread (sets made with
  ``--repeats``) or within-run drift is wider than the bound, so the
  difference cannot be told from noise.

Exits 1 on any REGRESSION or a higher failed share, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional

from run import MAX_DRIFT_PCT, load_spec


def spread_share(values: List[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median: the interquartile
    range from four runs up, the full range for two or three."""
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / mid
    return (max(values) - min(values)) / mid


def verdict(metric: Dict[str, Any], base: Dict[str, Any], new: Dict[str, Any],
            drifted: bool) -> str:
    a, b, bound = base["value"], new["value"], metric["bound"]
    if metric["better"] == "lower":
        worse_by, speedup = (b - a) / a, a / b
    else:
        worse_by, speedup = (a - b) / a, b / a
    spreads = [spread_share(side.get("values", [])) for side in (base, new)]
    noisy = drifted or any(s is not None and s > bound for s in spreads)
    if noisy:
        return "UNRESOLVED"
    if worse_by > bound:
        return "REGRESSION"
    if speedup >= 2.0:
        return "WIN"
    if worse_by < -bound:
        return "IMPROVED"
    return "NEUTRAL"


def failed_share(workload: Dict[str, Any]) -> float:
    return workload["failed"] / max(workload["attempted"], 1)


def compare(base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> int:
    if not (base.get("comparable", True) and new.get("comparable", True)):
        print("compare: a --quick set is not comparable")
        return 2
    status = 0
    print(f"{'workload':18s} {'metric':13s} {'base':>12s} {'new':>12s} "
          f"{'unit':5s} {'new/base':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"].get(workload), new["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload:18s} missing from a set")
            status = 1
            continue
        drifted = any(
            abs(statistics.median(side["drift_pct"])) > MAX_DRIFT_PCT
            for side in (a, b)
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = a["metrics"][name], b["metrics"][name]
            word = verdict(metric, ma, mb, drifted)
            if word == "REGRESSION":
                status = 1
            print(f"{workload:18s} {name:13s} {ma['value']:12.5g} "
                  f"{mb['value']:12.5g} {metric['unit']:5s} "
                  f"{mb['value'] / ma['value']:8.3f} "
                  f"{metric['bound'] * 100:5.0f}%  {word}")
        fa, fb = failed_share(a), failed_share(b)
        word = "REGRESSION" if fb > fa else "NEUTRAL"
        if fb > fa:
            status = 1
        print(f"{workload:18s} {'failed_share':13s} {fa:12.5g} {fb:12.5g} "
              f"{'share':5s} {'':>8s} {'any':>6s}  {word}")
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = load_spec()
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
