"""Compare benchmark records of a base and a changed commit.

Usage (from the repository root):

    python3 benchmarks/perf/compare.py --base base/*.json --change change/*.json

Each file is a record written by ``run.py --out``.  Records are paired by
workload, trace mode and seed; the comparison refuses (exit 2) to pair
records whose seeds do not match one to one or whose kernel backend
differs.  For every workload and metric it prints both medians, the
change as a share of the base median, the base's spread (quartile
distance over median) and, for end-to-end metrics, a verdict against the
bound in BENCHMARK.json: "worse" beyond the bound, "unresolved" when the
base spread is wider than the bound, otherwise "ok".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def load(paths: list[Path]) -> dict:
    records = {}
    for path in paths:
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"], rec["env"]["seed"])
        if key in records:
            raise SystemExit(f"refusing: two records for {key} on one side ({path})")
        records[key] = rec
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)
    if set(base) != set(change):
        print(f"refusing: (workload, trace, seed) differ: base {sorted(base)} vs "
              f"change {sorted(change)}", file=sys.stderr)
        return 2
    for key in base:
        if base[key]["env"]["backend"] != change[key]["env"]["backend"]:
            print(f"refusing: backend differs for {key}: {base[key]['env']['backend']} vs "
                  f"{change[key]['env']['backend']}", file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = defaultdict(lambda: ([], []))
    failed = defaultdict(lambda: [0, 0])
    for key in sorted(base):
        workload, trace, _ = key
        for side, rec in enumerate((base[key], change[key])):
            failed[workload][side] += rec["failed"]
            for name, metric in rec["metrics"].items():
                values[(workload, trace, name)][side].append(metric["value"])

    print(f"{'workload':13s} {'metric':40s} {'base':>12s} {'change':>12s} "
          f"{'delta':>8s} {'spread':>7s}  verdict")
    for (workload, trace, name), (old, new) in sorted(values.items()):
        b, c = statistics.median(old), statistics.median(new)
        delta = (c - b) / b if b else 0.0
        verdict = ""
        if name in bounds:
            worse = delta if better[name] == "lower" else -delta
            bound = bounds[name]["bound"]
            verdict = ("unresolved" if spread(old) > bound
                       else "worse" if worse > bound else "ok")
        print(f"{workload:13s} {name:40s} {b:12.6g} {c:12.6g} {delta:+8.1%} "
              f"{spread(old):7.1%}  {verdict}")
    for workload, (old, new) in sorted(failed.items()):
        print(f"{workload:13s} failed operations: base {old}, change {new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
