#!/usr/bin/env python3
"""The perf ledger: whole-query wall clock on four workloads, with
per-layer attribution measured from outside.

One workload, as the benchmark driver calls it (the last line of stdout
is the result object)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

A full set, every workload untraced then traced, each in a fresh
subprocess, written as one JSON document plus its traced companion::

    python3 benchmarks/ledger/run.py [--seed N] [--repeats R] --out results/x.json

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: ``setup_s`` is the median of at least this many set-ups, and of as
#: many more as start within SETUP_MIN_SECONDS, so that a 40 ms set-up
#: is not judged on three samples.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 3, 1.0
#: Seconds a run may spend waiting for a quiet core or on passes it
#: discards as disturbed (see ``harness.QuietGate``): this much while
#: setting up, this much in all.
QUIET_BUDGET_SETUP_S, QUIET_BUDGET_S = 2.0, 8.0
#: Above this first-half/second-half drift (median over a workload's
#: runs) a set is not comparable.
MAX_DRIFT_PCT = 5.0
#: What the contract line carries where a per-layer metric is null.
NULL_VALUE = -1


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def bootstrap_imports() -> None:
    """Measure the checkout's own source, never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"ledger: {src}/repro not found; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    bootstrap_imports()
    import harness
    import probes
    import workloads

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK))
    registry = workloads.make_workloads(
        lambda: tempfile.mkdtemp(prefix="wal-", dir=scratch)
    )
    workload = registry[args.workload]
    knobs = harness.Knobs()
    tally = harness.Tally()
    recorder = harness.SpanRecorder()
    # Only a comparable end-to-end run reports setup_s, so only it
    # repeats set-up, and only it waits for a quiet core.
    judged = not (args.quick or args.trace)
    gate = harness.QuietGate(
        WORK / "quiet_floor.json", QUIET_BUDGET_SETUP_S
    ) if judged else None
    seconds = min(args.seconds, 1.0) if args.quick else args.seconds
    env = None
    try:
        def close_previous() -> None:
            nonlocal env
            if env is not None:
                env.close()
                env = None

        def one_setup(current: Any) -> None:
            nonlocal env
            env = workload.setup(args.seed, args.quick, knobs)

        setups = harness.timed_passes(
            one_setup, SETUP_MIN_SECONDS if judged else 0.0,
            SETUP_MIN_REPEATS if judged else 1, before=close_previous,
            gate=gate,
        )
        pre = workload.verify(env, tally)
        workload.warm(env, tally)
        record: Dict[str, Any] = {
            "workload": workload.name, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "comparable": not args.quick,
            "durability_policy": "fsync per WAL append (adapter default)",
        }
        if args.trace:
            layer_fn = (probes.service_layers if workload.kind == "service"
                        else probes.batch_layers)
            layers = layer_fn(workload, env, seconds, tally, recorder, pre)
            values, nulls = layers.values, layers.nulls
            record["detail"] = layers.detail
            record["spans"] = recorder.spans
            declared = spec["per_layer"]
        else:
            if gate is not None:
                gate.budget = QUIET_BUDGET_S
            result = workload.measure(env, seconds, tally, gate)
            values, detail = harness.end_to_end(
                setups, result["passes"], result["n_clients"]
            )
            nulls = {}
            if gate is not None:
                detail.update(
                    quiet_wait_s=gate.spent, discarded_passes=gate.discarded,
                    quiet_floor_s=gate.floor,
                )
            record["detail"] = detail
            declared = spec["end_to_end"]
        workload.verify_after(env, tally)
    finally:
        if env is not None:
            env.close()
        if gate is not None:
            gate.save()
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and name not in nulls:
            nulls[name] = "not reported by this version of the benchmark"
        metrics[name] = {"value": values.get(name), "unit": metric["unit"]}
    record.update(
        attempted=tally.attempted, failed=tally.failed,
        failures=tally.failures, metrics=metrics, nulls=nulls,
        config_applied=knobs.applied, config_dropped=knobs.dropped,
    )
    return record


def contract_line(record: Dict[str, Any]) -> str:
    """The result object the benchmark driver reads from the last line."""
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {
                "value": NULL_VALUE if m["value"] is None else m["value"],
                "unit": m["unit"],
            }
            for name, m in record["metrics"].items()
        },
    })


def print_record(record: Dict[str, Any]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    tag = "" if record["comparable"] else "  [QUICK: not comparable]"
    print(f"== {record['workload']}  seed={record['seed']}  {mode}{tag}")
    for name, metric in record["metrics"].items():
        if metric["value"] is None:
            print(f"  {name:32s} {'null':>14s}  ({record['nulls'][name]})")
        else:
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in record["detail"].items():
        if not isinstance(value, (dict, list)):
            print(f"  . {key:30s} {value}")
    if record["config_dropped"]:
        print(f"  knobs dropped: {record['config_dropped']}")
    print(f"  attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


# ----------------------------------------------------------------------
# A full set: every workload in its own subprocess
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    WORK.mkdir(exist_ok=True)
    handle, path = tempfile.mkstemp(prefix="record-", suffix=".json", dir=WORK)
    os.close(handle)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", path,
    ] + (["--quick"] if args.quick else [])
    try:
        done = subprocess.run(command, env=child_env(), stdout=subprocess.PIPE,
                              text=True, check=False)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if not text:
            sys.exit(f"ledger: {workload} (trace={trace}) exited "
                     f"{done.returncode} without a result")
        return json.loads(text)
    finally:
        os.unlink(path)


def run_set(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    header = {
        "benchmark": "ledger", "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "comparable": not args.quick,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    untraced: Dict[str, Any] = dict(header, workloads={})
    traced: Dict[str, Any] = dict(header, workloads={})
    status = 0
    for name in names:
        runs = [run_child(name, args, 0) for _ in range(args.repeats)]
        summary: Dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]][:10],
            "drift_pct": [r["detail"]["drift_pct"] for r in runs],
            "passes": [r["detail"]["passes"] for r in runs],
            "config_applied": runs[0]["config_applied"],
            "config_dropped": runs[0]["config_dropped"],
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary["metrics"][metric["name"]] = {
                "value": statistics.median(values),
                "unit": metric["unit"], "values": values,
            }
        untraced["workloads"][name] = summary
        record = run_child(name, args, 1)
        record["spans"] = first_pass_spans(record["spans"])
        traced["workloads"][name] = record
        if summary["failed"] or traced["workloads"][name]["failed"]:
            status = 1
        drift = statistics.median(summary["drift_pct"])
        if abs(drift) > MAX_DRIFT_PCT and not args.quick:
            print(f"ledger: {name} drifted {drift:.1f}% between the halves "
                  f"of its runs (limit {MAX_DRIFT_PCT}%): set is not "
                  f"comparable")
            status = status or 3
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_json(out, untraced)
        write_json(out.with_suffix(".traced.json"), traced)
        print(f"wrote {out} and {out.with_suffix('.traced.json')}")
    return status


def first_pass_spans(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The spans of the first traced pass and of the probes (statement
    ids start with the pass index).  A set keeps these; a single run's
    ``--out`` keeps every span."""
    kept: Dict[int, int] = {}
    out = []
    for index, span in enumerate(spans):
        statement = span["statement"]
        if statement is None or statement.startswith("0:"):
            kept[index] = len(out)
            out.append(dict(span, parent=kept.get(span["parent"])))
    return out


def write_json(path: Path, document: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: a full set, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload in a full set")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for iteration; output is marked "
                             "non-comparable")
    parser.add_argument("--out", help="write the JSON document here")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_set(args, spec)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not differ between the two sides of a comparison.
        os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
    record = run_workload(args, spec)
    print_record(record)
    if args.out:
        write_json(Path(args.out), record)
    print(contract_line(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
