#!/usr/bin/env python3
"""Self-test of the benchmark at a seconds-long budget.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both trace settings it runs
``perfbench/run.py --tiny`` and asserts that the last output line is the
result object, that every declared metric is emitted with its declared unit
and a finite value, that no check failed, and that ``dct`` runs only where
the workload's attention variant uses it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in declared}, \
                set(metrics) ^ {m["name"] for m in declared}
            for m in declared:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (m["name"], got)
                assert math.isfinite(got["value"]), (m["name"], got)
            if trace:
                dct_calls = metrics["dct.select_frequency_indices.calls"]["value"]
                assert (dct_calls == 0) == workload.endswith("-se"), (workload, dct_calls)
            print(f"ok {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
