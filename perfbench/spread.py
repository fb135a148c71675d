"""Run the benchmark over several seeds and report medians and quartiles.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one process at a time,
with ``run_seconds`` from BENCHMARK.json. For each end-to-end metric it
prints the median, the first and third quartile (``statistics.quantiles``,
n=4) and the quartile distance as a share of the median, next to a third of
the metric's bound. ``--out`` writes the same figures as JSON, which is how
the baseline of a commit is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "values": vals}
            print(f"  {workload:<14} {name:<20} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {rows[name]['spread']:6.3f}  "
                  f"(bound/3 {bounds[name] / 3:.3f})", flush=True)
        report["workloads"][workload] = {"failed": failed, "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
