"""End-to-end smoke test of the ledger in ``--quick`` mode.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run it
explicitly::

    python -m pytest benchmarks/ledger/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *map(str, argv)], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def test_quick_set_and_compare(tmp_path):
    out = tmp_path / "quick.json"
    done = run(HERE / "run.py", "--quick", "--seed", "3", "--out", out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    document = json.loads(out.read_text())
    traced = json.loads(out.with_suffix(".traced.json").read_text())
    assert document["comparable"] is False
    for workload in (w["name"] for w in SPEC["workloads"]):
        summary = document["workloads"][workload]
        assert summary["failed"] == 0 and summary["attempted"] > 0
        for metric in SPEC["end_to_end"]:
            assert summary["metrics"][metric["name"]]["value"] > 0
        record = traced["workloads"][workload]
        assert record["failed"] == 0 and record["spans"]
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            # Every per-layer metric is a number or a null with a reason.
            assert (record["metrics"][name]["value"] is not None
                    or record["nulls"][name])
    # Quick sets are for iteration only; compare refuses them.
    refused = run(HERE / "compare.py", out, out)
    assert refused.returncode == 2, refused.stdout


def test_contract_line_of_one_workload():
    done = run(HERE / "run.py", "--workload", "short_cold", "--seed", "5",
               "--seconds", "1", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = run(tmp_path / "benchmarks" / "ledger" / "run.py",
               "--workload", "short_cold", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
