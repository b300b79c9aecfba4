"""Reduced-size smoke test of the benchmark.

Runs every workload on its smoke grid (two cells per experiment), traced and
untraced, and checks that the result line carries exactly the metrics named
in BENCHMARK.json, each with its unit, and that outputs check out.  A second
seed must reproduce every exact work count.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_smoke():
    for workload in (w["name"] for w in BENCH["workloads"]):
        counts = []
        for seed, trace in ((1, 0), (1, 1), (2, 1)):
            info, result = run(workload, seed, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], info["problems"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"]
                        for m in BENCH["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert info["env"]["seed"] == seed and info["env"]["nproc"] >= 1
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] in ("count", "flop")})
        assert counts[0] == counts[1], workload
    print("smoke test passed")


if __name__ == "__main__":
    test_smoke()
