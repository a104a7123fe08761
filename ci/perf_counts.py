#!/usr/bin/env python3
"""Print the work counts of traced perfbench runs, keys sorted: every
metric whose unit is count, words, bytes or gcs, which repeat exactly
between runs under one seed.

Each workload runs once, traced, with seed 1 and the op count in OPS.
The script builds perfbench.exe with dune in the checkout it lives in.
A change that moves a count regenerates the file and says why.

Usage: python3 ci/perf_counts.py > BENCH_perf_counts.json
"""
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OPS = {"scheme-calls": 300, "scheme-guarded-table": 20000,
       "embed-churn": 200000, "checkpoint": 3}
UNITS = {"count", "words", "bytes", "gcs"}

subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
               cwd=ROOT, check=True, stdout=sys.stderr)
counts = {}
with tempfile.TemporaryDirectory() as tmp:
    for workload, ops in OPS.items():
        out = subprocess.run(
            [EXE, "--workload", workload, "--seed", "1", "--ops", str(ops),
             "--trace", "1", "--trace-out", os.path.join(tmp, "trace.json")],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        counts[workload] = {name: m["value"] for name, m in result["metrics"].items()
                            if m["unit"] in UNITS}
json.dump(counts, sys.stdout, indent=1, sort_keys=True)
print()
