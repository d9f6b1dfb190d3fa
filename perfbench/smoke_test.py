#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at its tiny size (--tiny, one timed second), untraced
and traced, and asserts that the run passed its output checks and that
every metric BENCHMARK.json names is emitted, finite and carries the
declared unit.  Exits non-zero on the first violation.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in expected.items():
            result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"FAIL {workload} trace={trace}: output checks failed")
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    sys.exit(f"FAIL {workload} trace={trace}: {m['name']} missing")
                if not math.isfinite(got["value"]):
                    sys.exit(f"FAIL {workload} trace={trace}: {m['name']} not finite")
                if got["unit"] != m["unit"]:
                    sys.exit(f"FAIL {workload} trace={trace}: {m['name']} unit "
                             f"{got['unit']!r}, declared {m['unit']!r}")
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                sys.exit(f"FAIL {workload} trace={trace}: undeclared {sorted(extra)}")
            print(f"ok   {workload} trace={trace}: {len(declared)} metrics")
    print("smoke test passed")


if __name__ == "__main__":
    main()
