#!/usr/bin/env python3
"""Compare two result sets of run.py, one row per workload x metric.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python benchmarks/e2e/compare.py results/baseline-seed0.json#0 \\
        results/baseline-seed0.json#1

``FILE#N`` picks set N of a results file (default 0).  Each side shows
its value with the quartiles of its samples (repeats for the search
workloads, epochs or boots for serve-mixed) and their count.  The bound
and direction of each metric come from BENCHMARK.json.  Verdicts:

* ``unresolved``: the spread (interquartile range over median, the
  wider of the two sides) exceeds the bound, unless every change
  sample beats every parent sample;
* ``worse``: the change's value is worse than the parent's by more
  than the bound;
* ``within``: otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def load_set(spec: str) -> dict:
    path, _, index = spec.partition("#")
    data = json.loads(Path(path).read_text())
    return data["sets"][int(index or 0)]


def bounds() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(samples) -> float:
    q1, median, q3 = run.quartiles(samples)
    return (q3 - q1) / abs(median) if len(samples) > 1 and median else 0.0


def verdict(parent: dict, change: dict, bound: float, better: str) -> str:
    a, b = parent["value"], change["value"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a)
    if max(spread(parent["samples"]), spread(change["samples"])) > bound:
        beats = (max(change["samples"]) < min(parent["samples"])
                 if better == "lower"
                 else min(change["samples"]) > max(parent["samples"]))
        return "within" if beats else "unresolved"
    return "worse" if worse_by > bound else "within"


def _side(entry: dict) -> str:
    q1, _, q3 = run.quartiles(entry["samples"])
    return (f"{entry['value']:.4g} [{q1:.4g}, {q3:.4g}] "
            f"n={len(entry['samples'])}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load_set(spec) for spec in argv)
    metrics = bounds()
    worse = 0
    print(f"{'workload':18s} {'metric':16s} {'parent':34s} "
          f"{'change':34s} {'delta':>8s} {'bound':>6s} verdict")
    for workload in run.WORKLOADS:
        for name, _unit in run.END_TO_END:
            a = parent[workload]["metrics"].get(name)
            b = change[workload]["metrics"].get(name)
            if a is None or b is None:
                print(f"{workload:18s} {name:16s} missing")
                continue
            spec = metrics[name]
            result = verdict(a, b, spec["bound"], spec["better"])
            worse += result == "worse"
            delta = (b["value"] - a["value"]) / abs(a["value"])
            print(f"{workload:18s} {name:16s} {_side(a):34s} "
                  f"{_side(b):34s} {delta:+8.1%} {spec['bound']:6.0%} "
                  f"{result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
