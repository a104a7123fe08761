#!/usr/bin/env python3
"""Print a bench/main.exe GC report without its host-clock "timing"
objects, keys sorted: the work counts, which repeat exactly between runs.

Usage: python3 ci/bench_counts.py BENCH_gc.json > BENCH_counts.json
"""
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
for bench in report["benchmarks"]:
    del bench["timing"]
json.dump(report, sys.stdout, indent=1, sort_keys=True)
print()
