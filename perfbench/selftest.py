"""Self-test of the benchmark itself, at tiny input sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

- ``--trace 0`` prints every end-to-end metric, and ``--trace 1`` every
  per-layer metric, each with its declared unit, both as a ``metric`` line and
  in the closing JSON object, and the outputs are correct;
- with a corrupted reference digest every repetition counts as failed and
  ``output_mismatch_frac`` is 1, so the output check can fire;
- in a directory that holds only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")


def metric_lines(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(workload, trace)
            check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: "
                                        f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: outputs not correct: {proc.stderr[-2000:]}")
            lines = metric_lines(proc.stdout)
            check(lines.get("output_mismatch_frac", (None,))[0] == 0.0,
                  f"{workload}: output_mismatch_frac line missing or non-zero")
            names = {m["name"] for m in declared}
            check(set(result["metrics"]) == names,
                  f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ names)}")
            for m in declared:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                      f"{workload}: {m['name']} printed as {got}, declared unit {m['unit']}")
                check(lines.get(m["name"], (None, None))[1] == m["unit"],
                      f"{workload}: no 'metric {m['name']} ... {m['unit']}' line")
            print(f"ok {workload} trace {trace}: {len(names)} metrics with units")

        proc = run(workload, 0, "--corrupt-reference")
        check(proc.returncode == 0, f"{workload} corrupt run exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(not result["correct"] and result["failed"] == result["attempted"],
              f"{workload}: corrupted reference did not fail every repetition: {result}")
        check(metric_lines(proc.stdout)["output_mismatch_frac"][0] == 1.0,
              f"{workload}: output_mismatch_frac is not 1 with a corrupted reference")
        print(f"ok {workload}: corrupted reference drives output_mismatch_frac to 1")

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
        check(proc.returncode != 0, "benchmark succeeded without the program's sources")
        check('"metrics"' not in proc.stdout, "benchmark printed a result without sources")
        print("ok: exits non-zero without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
