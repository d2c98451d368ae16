#!/usr/bin/env python3
"""Compare two result files of the same commit (made by `run.sh -all -out
a.json,b.json`) metric by metric: every end-to-end metric of every workload
must agree, in either direction, within the bound BENCHMARK.json fixes for it,
and the counts named below must agree exactly. Pairs that do not are listed as
unresolved and the exit code is 1. Usage, from the repository root:

    python3 bench/aa.py bench/results/aa_1.json bench/results/aa_2.json
"""
import json
import sys

EXACT = ["binauto.final_eba", "cluster.hops", "cluster.model_bytes", "core.failures"]

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
a, b = (json.load(open(path)) for path in sys.argv[1:3])
unresolved = 0
for ra, rb in zip(a, b):
    assert (ra["workload"], ra["trace"], ra["num_cpu"]) == (rb["workload"], rb["trace"], rb["num_cpu"])
    if ra["failed"] or rb["failed"] or not (ra["correct"] and rb["correct"]):
        print(f"{ra['workload']:12s} trace={ra['trace']} has failed operations or checks")
        unresolved += 1
    names = bounds if ra["trace"] == 0 else EXACT
    for name in names:
        va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
        bound = bounds.get(name, 0)
        apart = abs(va - vb) / min(abs(va), abs(vb)) if va != vb else 0.0
        verdict = "ok" if apart <= bound else "UNRESOLVED"
        unresolved += verdict != "ok"
        print(f"{ra['workload']:12s} {name:22s} {va:14.6g} {vb:14.6g}  apart {apart:6.3f}  bound {bound:.2f}  {verdict}")
sys.exit(1 if unresolved else 0)
