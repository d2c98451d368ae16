#!/usr/bin/env python3
"""Run every workload on ten seeds and print, per end-to-end metric, the
interquartile range as a share of the median — the spread the regression
bounds in BENCHMARK.json have to clear. Usage, from the repository root:

    python3 bench/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

for name in names:
    values = {}
    for seed in range(first, first + 10):
        out = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, (name, seed, result)
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    for metric, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{name:12s} {metric:18s} median {med:12.6g}  spread {(q3 - q1) / med:7.4f}"
              f"  bound {bounds[metric]:.2f}  values " + " ".join(f"{v:.4g}" for v in vs), flush=True)
