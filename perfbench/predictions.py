"""Traced run of every workload and the check of the predicted dominant layers.

Usage (from the root of a checkout): python3 perfbench/predictions.py [--seed N]

Runs ``run.py --trace 1`` once per workload, then prints each workload's layer
shares of the traced section and whether each prediction made when the
benchmark was defined holds. A prediction that fails is reported as not met;
the predictions are not to be tuned to the measurements.

- fleet_dense: engine plus beaconing take at least 70 % of the traced time.
- pool_churn: the strategy share is at least twice its share on fleet_dense.
- sweep_small: engine init, sba, config and cli together take a larger share
  than they do on fleet_dense.
- attack_replay: adversary takes at least 80 % of the traced time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def shares(workload: str) -> tuple[dict, dict, float]:
    """Layer shares of the traced time, the per-layer metrics and the traced time."""
    with open(os.path.join(run.OUT, f"layers_{workload}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    total = sum(data["layer_self_s"].values())
    return {k: v / total for k, v in data["layer_self_s"].items()}, data["metrics"], total


def fixed_cost_share(workload: str) -> float:
    """Share of engine construction outside the core, plus sba, config and cli."""
    share, m, total = shares(workload)
    init_outside_core = (m["engine.init_s"] - m["sba.core_init_s"]) / total
    return init_outside_core + share["sba"] + share["config"] + share["cli"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="per workload; one untraced and one traced repetition at least")
    args = parser.parse_args()
    workloads = ("fleet_dense", "pool_churn", "sweep_small", "attack_replay")
    for w in workloads:
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            sys.exit(f"{w}: exited {proc.returncode}\n{proc.stderr}")
        m = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        share = shares(w)[0]
        print(f"{w}: section {m['trace.section_s']['value']:.3f} s, "
              f"tracing overhead {m['trace.overhead_s']['value']:.3f} s; shares "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in sorted(share.items(), key=lambda kv: -kv[1])))

    fleet, churn, replay = (shares(w)[0] for w in ("fleet_dense", "pool_churn", "attack_replay"))
    checks = [
        ("fleet_dense: engine + beaconing >= 70%",
         fleet["engine"] + fleet["beaconing"], lambda v: v >= 0.70),
        ("pool_churn: strategy share >= 2x its fleet_dense share "
         f"({100 * fleet['strategy']:.1f}%)", churn["strategy"],
         lambda v: v >= 2 * fleet["strategy"]),
        ("sweep_small: init + sba + config + cli share > fleet_dense's "
         f"({100 * fixed_cost_share('fleet_dense'):.2f}%)", fixed_cost_share("sweep_small"),
         lambda v: v > fixed_cost_share("fleet_dense")),
        ("attack_replay: adversary >= 80%", replay["adversary"], lambda v: v >= 0.80),
    ]
    for text, value, holds in checks:
        print(f"prediction {text}: measured {100 * value:.1f}% -> "
              f"{'met' if holds(value) else 'NOT MET'}")


if __name__ == "__main__":
    main()
