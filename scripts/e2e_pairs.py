#!/usr/bin/env python
"""Pair a parent and a change checkout on end-to-end workloads.

Runs ``benchmarks/e2e/run.py --workload W --seed i --seconds S --trace 0``
in both checkouts for ``i`` in ``0 .. N-1``, alternating which side goes
first per seed so host-speed drift hits both alike (the pairing
procedure of ``benchmarks/e2e/README.md``).  ``--workload`` repeats;
each workload gets its own pairs and table.  Prints every pair's
end-to-end metrics, then per metric the two medians, the parent's
interquartile range, how many pairs the change won and a verdict:

* ``gain``: the change wins at least nine pairs in ten and its median
  beats the parent's by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's relative ``bound``;
* ``unresolved``: the parent's IQR is wider than the bound and not
  every change run beats every parent run;
* ``same`` otherwise.

Metric directions and bounds come from the parent's ``BENCHMARK.json``.

``--trace-pairs N`` adds N alternating traced pairs per workload
(``run.py --trace 1 --seconds 10``) and prints each layer's ``self_s``
median for parent and change, with the parent's min-max range, to show
which layer a change moved.  ``--pairs 0`` skips the untraced pairs.

Exits 1 when any run fails: a non-zero exit, no result line, a failed
request or ``correct: false``.  With ``--claim METRIC`` it exits 2
unless that metric reads ``gain`` on the first workload named and no
metric reads ``worse`` on any workload.

Run from anywhere:
``python scripts/e2e_pairs.py PARENT_DIR CHANGE_DIR --workload
search-1000l --workload search-350m --pairs 10 --claim plan_s``
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

#: Measuring time of one traced run.
TRACE_SECONDS = 10.0


def run_side(root: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One run in checkout ``root`` (per-layer metrics when ``trace``);
    its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["returncode"] = proc.returncode
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return result


def broken(result: dict) -> bool:
    return bool(result["returncode"] or not result.get("correct")
                or result.get("failed"))


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def metric_specs(root: Path) -> dict:
    """``{metric: (better, bound)}`` from ``root``'s BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(rows, better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``same`` for one metric's
    ``(parent, change)`` pairs (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * a for a, _ in rows]
    change = [sign * b for _, b in rows]
    wins = sum(b < a for a, b in zip(parent, change))
    spread = iqr(parent)
    base = statistics.median(parent)
    gap = statistics.median(change) - base
    if 10 * wins >= 9 * len(rows) and -gap > spread:
        return "gain"
    if gap > bound * abs(base):
        return "worse"
    if spread > bound * abs(base) and max(change) >= min(parent):
        return "unresolved"
    return "same"


def summarize(pairs, specs: dict) -> dict:
    """Print the per-metric table; return ``{metric: verdict}``."""
    print(f"\n{'metric':16s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'parent IQR':>11s} {'wins':>6s} verdict")
    verdicts = {}
    for name, (better, bound) in specs.items():
        rows = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not rows:
            continue
        parent = statistics.median(a for a, _ in rows)
        change = statistics.median(b for _, b in rows)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in rows)
        delta = (change - parent) / abs(parent) if parent else 0.0
        verdicts[name] = verdict(rows, better, bound)
        print(f"{name:16s} {parent:12.6g} {change:12.6g} {delta:+8.1%} "
              f"{iqr([a for a, _ in rows]):11.4g} {wins:3d}/{len(rows)} "
              f"{verdicts[name]}")
    return verdicts


def layer_table(pairs) -> dict:
    """Print each layer's ``self_s`` median per side and the parent's
    min-max range over traced pairs; return ``{layer: (parent median,
    change median, parent min, parent max)}``."""
    print(f"\n{'layer self_s':44s} {'parent':>9s} {'change':>9s} "
          f"{'delta':>8s} parent range")
    names = dict.fromkeys(
        name for pair in pairs for run in pair
        for name in run["metrics"] if name.endswith(".self_s"))

    def values(runs, name):
        found = (run["metrics"].get(name, {}).get("value") for run in runs)
        return [value for value in found if value is not None]

    table = {}
    for name in names:
        parent, change = (values(side, name) for side in zip(*pairs))
        layer = name[:-len(".self_s")]
        if not parent or not change:
            print(f"{layer:44s} missing")
            continue
        row = (statistics.median(parent), statistics.median(change),
               min(parent), max(parent))
        delta = (row[1] - row[0]) / row[0] if row[0] else 0.0
        print(f"{layer:44s} {row[0]:9.4f} {row[1]:9.4f} {delta:+8.1%} "
              f"{row[2]:.4f}-{row[3]:.4f}")
        table[layer] = row
    return table


def claim_holds(verdicts: dict, workload: str, metric: str) -> bool:
    """``metric`` reads ``gain`` on ``workload`` and no metric reads
    ``worse`` on any workload of ``{workload: {metric: verdict}}``."""
    return verdicts[workload].get(metric) == "gain" and not any(
        "worse" in table.values() for table in verdicts.values())


def run_pairs(roots: dict, workload: str, pairs: int, seconds: float,
              specs: dict, trace: int = 0):
    """Alternate the two sides over ``pairs`` seeds of ``workload``
    (traced runs when ``trace``), printing each run; ``([(parent,
    change), ...], any run broken)``."""
    results_by_seed = []
    failed = False
    for seed in range(pairs):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side] = run_side(
                roots[side], workload, seed, seconds, trace)
            metrics = results[side]["metrics"]
            values = " ".join(
                f"{name}={metrics[name]['value']:.6g}"
                for name in specs if name in metrics)
            mark = " BROKEN" if broken(results[side]) else ""
            label = "traced seed" if trace else "seed"
            print(f"{label} {seed} {side:6s} {values}{mark}".rstrip(),
                  flush=True)
            failed = failed or broken(results[side])
        results_by_seed.append((results["parent"], results["change"]))
    return results_by_seed, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to pair; repeat for several")
    parser.add_argument("--pairs", type=int, default=10,
                        help="untraced pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-pairs", type=int, default=0, metavar="N",
                        help="traced pairs per workload: per-layer "
                             "self_s medians")
    parser.add_argument("--claim", metavar="METRIC",
                        help="exit 2 unless METRIC reads gain on the "
                             "first workload and no metric reads worse")
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.trace_pairs < 0:
        parser.error("--pairs and --trace-pairs cannot be negative")
    if not args.pairs and not args.trace_pairs:
        parser.error("nothing to run: --pairs and --trace-pairs are 0")
    if args.claim is not None and not args.pairs:
        parser.error("--claim needs untraced --pairs")
    if len(set(args.workload)) < len(args.workload):
        parser.error("--workload: name each workload once")
    roots = {"parent": args.parent, "change": args.change}
    specs = metric_specs(args.parent)
    if args.claim is not None and args.claim not in specs:
        parser.error(f"--claim: unknown metric {args.claim!r}")
    verdicts = {}
    failed = False
    for workload in args.workload:
        print(f"\n== {workload}", flush=True)
        if args.pairs:
            pairs, broke = run_pairs(
                roots, workload, args.pairs, args.seconds, specs)
            failed = failed or broke
            verdicts[workload] = summarize(pairs, specs)
        if args.trace_pairs:
            traced, broke = run_pairs(
                roots, workload, args.trace_pairs, TRACE_SECONDS, specs,
                trace=1)
            failed = failed or broke
            layer_table(traced)
    if failed:
        return 1
    if args.claim is not None:
        held = claim_holds(verdicts, args.workload[0], args.claim)
        print(f"claim {args.claim} on {args.workload[0]}: "
              f"{'holds' if held else 'fails'}")
        if not held:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
