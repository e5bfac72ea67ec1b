#!/usr/bin/env python3
"""Summarise benchmark runs, and compare two sets of them.

Reads the "record " lines that run.py prints, from saved standard output:

    python3 perfbench/compare.py RUN.log ...
    python3 perfbench/compare.py RUN.log ... --base BASE.log ...

For each workload and metric it prints the sample count, the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median.  For the end-to-end metrics that share is set against the
bound in BENCHMARK.json; "unsteady" marks a spread above a third of it.
With --base it also prints each median's change against the base set and
marks a change worse than the bound.  Results taken in different kernel
modes (JIT or interpreted) are refused: exit status 2.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_records(paths) -> list:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fp:
            records += [json.loads(line[len("record "):])
                        for line in fp if line.startswith("record ")]
    return records


def group(records) -> dict:
    """(variant, workload, trace) -> metric -> values."""
    groups = defaultdict(lambda: defaultdict(list))
    for rec in records:
        key = (rec["variant"], rec["workload"], rec["trace"])
        for name, value in rec["metrics"].items():
            groups[key][name].append(value)
        groups[key]["failed_cell_frac"].append(rec["failed_cell_frac"])
    return groups


def spread(values) -> tuple:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return med, q1, q3, 0.0
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("logs", nargs="+", type=Path)
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)

    head, base = read_records(args.logs), read_records(args.base)
    modes = {rec["env"]["kernel_mode"] for rec in head + base}
    if len(modes) > 1:
        print(f"refusing to compare results from kernel modes "
              f"{sorted(modes)}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in declared["end_to_end"] + declared["per_layer"]}

    base_groups = group(base)
    worse = False
    for key, metrics in sorted(group(head).items()):
        print(f"== {key[0]} {key[1]} trace={key[2]}")
        for name, values in metrics.items():
            med, q1, q3, share = spread(values)
            line = (f"{name:<40} n={len(values):<3} median={med:<12.6g} "
                    f"q1={q1:<12.6g} q3={q3:<12.6g} spread={share:.4f}")
            bound = bounds.get(name, {}).get("bound")
            if bound is not None:
                line += f" bound={bound}"
                if name != "setup_s" and share > bound / 3:
                    line += " unsteady"
            if name in base_groups.get(key, {}):
                base_med = statistics.median(base_groups[key][name])
                change = (med - base_med) / base_med if base_med else 0.0
                line += f" vs base {base_med:.6g} ({change:+.2%})"
                if not lower_is_better.get(name, True):
                    change = -change
                if bound is not None and change > bound:
                    line += " WORSE"
                    worse = True
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
