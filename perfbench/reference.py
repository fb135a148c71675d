"""Regenerate ``reference.json``: the golden output digests the benchmark checks.

Usage (from the root of a checkout):

    python3 perfbench/reference.py [--seeds 0-19] [--workloads fleet_dense,...]

Stores the sha256 of ``summary_json()`` for every checked-in scenario and,
per workload and seed, the digest one repetition produces. Digests already in
the file for other seeds or workloads are kept. Regenerate only when a change
is meant to alter outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import tempfile

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    ps = run.load_pseudosim()
    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["scenarios"] = {
        os.path.basename(p): run.sha256(ps["engine"].run_scenario(p).summary_json())
        for p in sorted(glob.glob(os.path.join(run.SCENARIOS, "*.json")))
    }
    os.makedirs(run.OUT, exist_ok=True)
    for name in args.workloads.split(","):
        digests = reference["workloads"].setdefault(name, {})
        for seed in range(lo, hi + 1):
            work = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.OUT)
            try:
                digests[str(seed)] = run.WORKLOADS[name](ps, seed, work, False).rep().digest
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(name, seed, digests[str(seed)], flush=True)
        reference["workloads"][name] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
