"""Quick self-test of the benchmark: every workload on its cut-down list.

    python3 perfbench/selftest.py

For each workload it makes one untraced run and two traced runs, each a
fresh process (the traced ones under different string-hash seeds). It
asserts that every run passes its output checks with no failed operation,
that each run reports exactly the metrics BENCHMARK.json names, and that
every count of the two traced runs is the same. Runs one process at a time;
exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, hash_seed: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = "\n".join(line for line in lines if line.startswith(("# FAILED", "# PROBLEM")))
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace={trace}: output checks failed\n{notes}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, 0, "1")
        assert set(plain["metrics"]) == end_to_end, f"{name}: end-to-end metric names differ"
        first, second = run(name, 1, "2"), run(name, 1, "3")
        assert set(first["metrics"]) == per_layer, f"{name}: per-layer metric names differ"
        counts = [m for m, v in first["metrics"].items() if v["unit"] == "count"]
        differ = [m for m in counts
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        assert not differ, f"{name}: traced counts differ between runs: {differ}"
        nonzero = sum(1 for m in counts if first["metrics"][m]["value"])
        print(f"{name}: checks pass, {nonzero} of {len(counts)} counts nonzero and "
              f"repeated exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
