#!/usr/bin/env python3
"""Steadiness proof of the benchmark: ten seeds per workload, recorded run
by run, and the spread of each end-to-end metric.

    python3 ncgbench/spread.py run ncgbench/proof/set1.jsonl
    python3 ncgbench/spread.py summary ncgbench/proof/set1.jsonl [SET2]

``run`` calls the benchmark command of BENCHMARK.json once per workload and
seed, untraced, and appends one JSON line per run: workload, seed, the
``env`` stamp (including the reference-kernel times before and after the
loop) and the result object.  ``summary`` prints, per workload and metric,
the median and the interquartile range as a share of the median (Python's
``statistics.quantiles(values, n=4)``) against the metric's bound, the
reference-kernel range, and for two sets how far the second median lies
from the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(101, 111)


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record(out: Path) -> None:
    spec = bench()
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in SEEDS:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed",
                                   str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
                check=True)
            lines = proc.stdout.strip().splitlines()
            env = next(json.loads(line[4:]) for line in lines
                       if line.startswith("env "))
            row = {"workload": workload, "seed": seed, "env": env,
                   "result": json.loads(lines[-1])}
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def load(path):
    rows = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        rows.setdefault(row["workload"], []).append(row)
    return rows


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(paths) -> None:
    sets = [load(p) for p in paths]
    for metric in bench()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"{name} (bound {bound})")
        for workload in sets[0]:
            cells, medians = [], []
            for rows in sets:
                values = [r["result"]["metrics"][name]["value"]
                          for r in rows.get(workload, [])]
                medians.append(statistics.median(values))
                cells.append(f"median {medians[-1]:.4g} "
                             f"iqr/median {spread(values):.3f}")
            line = f"  {workload:8s} " + " | ".join(cells)
            if len(medians) == 2:
                line += f" | shift {medians[1] / medians[0] - 1:+.3f}"
            print(line)
    print("reference kernel, ms before..after the loop (min..max over runs)")
    for workload in sets[0]:
        cells = []
        for rows in sets:
            ks = [1000 * r["env"][k] for r in rows.get(workload, [])
                  for k in ("kernel_before_s", "kernel_after_s")]
            cells.append(f"{min(ks):.1f}..{max(ks):.1f}")
        print(f"  {workload:8s} " + " | ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("run").add_argument("out", type=Path)
    sub.add_parser("summary").add_argument("sets", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        record(args.out)
    else:
        summary(args.sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
