"""Report-only fleet scaling ladder: 10/20/40/80 vehicles x 600 ticks.

Usage (from the root of a checkout): python3 perfbench/ladder.py [--seed N]

Runs each rung once with the ``fleet_dense`` generator (tracing off) and
prints vehicle ticks per second per rung plus the cost ratio per doubling of
the fleet (wall time of the larger rung over the smaller). Not a gated
workload: one run per rung is a trend, not a measurement with a bound.
"""

from __future__ import annotations

import argparse
import time

import inputs
import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ps = run.load_pseudosim()
    previous = None
    for n in (10, 20, 40, 80):
        raw = inputs.fleet_dense(args.seed, n, 600)
        engine = ps["engine"].SimulationEngine(ps["config"].load_scenario(raw))
        t0 = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - t0
        ratio = f"{wall / previous:5.2f}x per doubling" if previous else ""
        print(f"rung {n:>2} vehicles  run {wall:7.3f} s  "
              f"vehicle_ticks_per_s {inputs.vehicle_ticks(raw) / wall:10.1f}  {ratio}", flush=True)
        previous = wall


if __name__ == "__main__":
    main()
