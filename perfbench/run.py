"""pseudosim benchmark: host time per scenario run, per sweep and per replay.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the "why" of each is recorded in BENCHMARK.json):

- ``fleet_dense``: generated 80-vehicle lossy platoon, 600 ticks.
- ``pool_churn``: ``scenarios/latency_fleet.json`` re-seeded.
- ``sweep_small``: ``scenarios/sweeps/silence_sweep.json`` through
  ``pseudosim.cli.main(["sweep", ..., "--parallel", "1"])``, 80 runs.
- ``attack_replay``: a generated ``trace.jsonl`` (300 vehicles, 200 ticks)
  through ``load_trace``, ``link`` and ``evaluate_attack``.

Inputs come from ``--seed`` alone. One process, one thread. Repetitions run
until ``--seconds`` have passed (at least one), and every repetition's output
digest is compared with ``perfbench/reference.json``; on a seed without a
stored reference the check is that every repetition gives the same digest.
The summaries of the six checked-in scenarios are checked too, untimed.

BENCHMARK.json gates pool_churn, sweep_small and attack_replay. fleet_dense
(15 s per repetition) stays selectable here for ``predictions.py``; its 80
vehicle rung is also in ``ladder.py``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off. The
result line must carry every metric BENCHMARK.json names, so every workload
reports all of them.

Other tenants of a shared host slow every instruction this process runs by up
to a half, in phases from under a second to about a minute, so wall times of
the same code differ between runs by more than a regression worth catching.
Two measures keep the metrics steady. Every time is in reference-host
seconds: its wall time multiplied by the host's speed just then, relative to
a reference host. The speed comes from a fixed pure-Python kernel
(``calibration_kernel``), timed just before and just after each timed section
with the collector off; the reference host runs it in ``CALIB_REF_S``. The
kernel calls nothing in pseudosim, so a change to the program moves the
metrics and not the calibration. This follows the long phases. Against the
short ones, each repetition gives one value of each timing metric and the run
reports their fast quartile: the lower quartile of times, the upper quartile
of rates. The plain wall-clock values, with the same fast quartile, are
printed as ``wall`` lines next to the metrics.

- ``setup_s``: median of five cold set-ups, each in a fresh interpreter:
  ``import pseudosim``, ``load_scenario`` and ``SimulationEngine(...)``
  (the import alone for attack_replay). Input generation is excluded.
- ``vehicle_ticks_per_s``: (vehicle, tick) pairs on the road over the timed
  section. The timed section is ``run()`` for fleet_dense and pool_churn,
  the whole ``cli.main`` sweep for sweep_small, and load_trace -> link ->
  evaluate_attack for attack_replay, where one CAM row is one vehicle on the
  road for one tick.
- ``runs_per_s``: runs completed over the timed section, where a run is one
  scenario run, one sweep job or one replay.
- ``run_s_p50``, ``run_s_p85``: per-run time, as percentiles within a
  repetition. On sweep_small one timer around each ``run_job`` call (80
  samples per sweep) is the only wrapper; elsewhere a repetition is one run,
  so both are its timed section.
- ``observations_per_s``: broadcast CAM/DENM messages handled over the timed
  section.
- ``peak_rss_mb``: peak resident set of this process after the repetitions.

``output_mismatch_frac``, the share of repetitions whose digest differed or
that raised, is printed as a ``metric`` line and carried by ``failed`` and
``attempted``; it is not in BENCHMARK.json because it is 0 when outputs are
right.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics (see ``tracer.py``); spans and layer self times are written
to ``.perfbench_out/`` at the end. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import gc
import glob
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
# The reference host: the fastest calibration_kernel time seen on a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest with Python 3.11.
CALIB_REF_S = 0.005

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import tracer as tr  # noqa: E402


def sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Rep:
    """What one repetition produced and how long its timed part took."""

    digest: str
    timed_s: float  # the workload's timed section (see each workload)
    samples: list  # per-run wall times: one per scenario run, sweep job or replay
    vehicle_ticks: int
    observations: int  # broadcast CAM/DENM messages handled
    counters: dict  # summed run-summary counters
    scale: float = 1.0  # reference-host seconds per wall second (host_scale)


def call(fn):
    return fn()


def _sum_counters(into: dict, counters: dict) -> None:
    for key, value in counters.items():
        into[key] = into.get(key, 0) + value


class EngineWorkload:
    """One scenario, run by ``SimulationEngine(...).run()``; run() is timed."""

    def __init__(self, ps, config: dict, work: str):
        self.ps = ps
        self.config_path = os.path.join(work, "scenario.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.config = ps["config"].load_scenario(self.config_path)
        self.vehicle_ticks = inputs.vehicle_ticks(config)

    def rep(self, around=call) -> Rep:
        def section():
            engine = self.ps["engine"].SimulationEngine(self.config)
            t0 = time.perf_counter()
            return engine.run(), time.perf_counter() - t0

        result, timed = around(section)
        counters = result.summary["counters"]
        observations = counters.get("cams_sent", 0) + counters.get("denms_sent", 0)
        return Rep(sha256(result.summary_json()), timed, [timed], self.vehicle_ticks,
                   observations, counters)


def fleet_dense(ps, seed, work, tiny):
    n, ticks = (6, 150) if tiny else (80, 600)
    return EngineWorkload(ps, inputs.fleet_dense(seed, n, ticks), work)


def pool_churn(ps, seed, work, tiny):
    overrides = {"duration_s": 20.0} if tiny else {}
    path = os.path.join(SCENARIOS, "latency_fleet.json")
    return EngineWorkload(ps, inputs.reseeded(path, seed, **overrides), work)


class SweepWorkload:
    """The silence sweep through the CLI; the whole ``main`` call is timed."""

    def __init__(self, ps, seed, work, tiny):
        self.ps = ps
        self.work = work
        spec = inputs.sweep_spec(
            os.path.join(SCENARIOS, "sweeps", "silence_sweep.json"), seed,
            **({"replications": 1} if tiny else {}),
        )
        self.spec_path = os.path.join(work, "sweep.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(spec["base"], "r", encoding="utf-8") as fh:
            base = json.load(fh)
        n_runs = spec["replications"] * len(spec["axes"]["policy.silence_s"])
        self.vehicle_ticks = n_runs * inputs.vehicle_ticks(base)
        self.config_path = os.path.join(work, "first_run.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({**base, "seed": spec["seed_base"]}, fh)
        self._samples: list[float] = []
        cli = ps["cli"]
        run_job = getattr(cli.run_job, "__wrapped__", cli.run_job)
        samples = self._samples

        @functools.wraps(run_job)
        def timed_run_job(config_dict):
            t0 = time.perf_counter()
            try:
                return run_job(config_dict)
            finally:
                samples.append(time.perf_counter() - t0)

        cli.run_job = timed_run_job

    def rep(self, around=call) -> Rep:
        out = os.path.join(self.work, "sweep-out")
        shutil.rmtree(out, ignore_errors=True)
        self._samples.clear()
        argv = ["sweep", "--spec", self.spec_path, "--out", out, "--parallel", "1"]

        def section():
            t0 = time.perf_counter()
            return self.ps["cli"].main(argv), time.perf_counter() - t0

        code, timed = around(section)
        if code != 0:
            raise RuntimeError(f"sweep exited with {code}")
        with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
            csv_text = fh.read()
        with open(os.path.join(out, "sweep_manifest.json"), encoding="utf-8") as fh:
            manifest_text = fh.read()
        counters: dict = {}
        for path in sorted(glob.glob(os.path.join(out, "summaries", "*.json"))):
            with open(path, encoding="utf-8") as fh:
                _sum_counters(counters, json.load(fh)["counters"])
        observations = counters.get("cams_sent", 0) + counters.get("denms_sent", 0)
        return Rep(sha256(csv_text, manifest_text), timed, list(self._samples),
                   self.vehicle_ticks, observations, counters)


class ReplayWorkload:
    """A generated trace through load_trace -> link -> evaluate_attack, all timed."""

    config_path = None

    def __init__(self, ps, seed, work, tiny):
        self.adv = ps["adversary"]
        self.trace_path = os.path.join(work, "trace.jsonl")
        sizes = {"n_sync": 8, "n_staggered": 4, "n_ticks": 120} if tiny else {}
        truth = inputs.attack_trace(seed, self.trace_path, **sizes)
        self.truth = self.adv.TruthData(
            owner_of=truth.owner_of, truth_pairs=truth.truth_pairs,
            changes=truth.changes, silence_of=truth.silence_of,
        )

    def rep(self, around=call) -> Rep:
        adv = self.adv

        def section():
            t0 = time.perf_counter()
            store = adv.load_trace(self.trace_path)
            linkage = adv.link(store, adv.MotionModel())
            metrics = adv.evaluate_attack(linkage, self.truth)
            return (store, linkage, metrics), time.perf_counter() - t0

        (store, linkage, metrics), timed = around(section)
        digest = sha256(linkage.to_json(), json.dumps(metrics.to_obj(), sort_keys=True))
        n = len(store.observations)
        # one CAM row is one vehicle on the road for one tick
        return Rep(digest, timed, [timed], n, n, {})


WORKLOADS = {
    "fleet_dense": fleet_dense,
    "pool_churn": pool_churn,
    "sweep_small": SweepWorkload,
    "attack_replay": ReplayWorkload,
}


def load_pseudosim() -> dict:
    """Import the checkout's own ``pseudosim``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "pseudosim", "__init__.py")):
        raise SystemExit(f"benchmark: no pseudosim sources under {SRC}")
    if not os.path.isdir(SCENARIOS):
        raise SystemExit(f"benchmark: no scenarios directory at {SCENARIOS}")
    sys.path.insert(0, SRC)
    import pseudosim
    from pseudosim import (adversary, beaconing, cli, config, engine, mobility,
                           sba, strategy)

    if os.path.dirname(os.path.abspath(pseudosim.__file__)) != os.path.join(SRC, "pseudosim"):
        raise SystemExit(f"benchmark: imported pseudosim from {pseudosim.__file__}")
    return {"engine": engine, "mobility": mobility, "strategy": strategy, "sba": sba,
            "beaconing": beaconing, "adversary": adversary, "config": config, "cli": cli}


def calibration_kernel() -> int:
    """Fixed interpreter work: dict lookups, float arithmetic, small tuples."""
    acc: dict = {}
    x = 0.0
    for i in range(25000):
        k = i & 511
        v = acc.get(k)
        x = x * 0.5 + math.sqrt(i)
        acc[k] = (x, k) if v is None else (v[0] + x, k)
    return len(acc)


def host_scale() -> float:
    """Reference-host seconds per wall second here, now: the best of three kernel runs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return CALIB_REF_S / best


def scaled(fn):
    """``fn()`` and the host scale over its call, averaged from both ends."""
    before = host_scale()
    out = fn()
    return out, (before + host_scale()) / 2


def measure_setup(config_path) -> list[tuple[float, float]]:
    """(wall seconds, host scale) of each cold set-up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC]
    if config_path is not None:
        cmd.append(config_path)
    out = []
    for _ in range(SETUP_PROBES):
        proc, scale = scaled(lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                                    text=True, timeout=120))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append((float(proc.stdout.strip().splitlines()[-1]), scale))
    return out


def check_scenarios(ps, reference: dict) -> list[str]:
    """Digest of every checked-in scenario's summary; returns the mismatches."""
    bad = []
    paths = sorted(glob.glob(os.path.join(SCENARIOS, "*.json")))
    names = {os.path.basename(p) for p in paths}
    for name in sorted(set(reference) - names):
        bad.append(f"{name}: missing")
    for path in paths:
        name = os.path.basename(path)
        digest = sha256(ps["engine"].run_scenario(path).summary_json())
        if reference.get(name) != digest:
            bad.append(f"{name}: {digest} != {reference.get(name)}")
    return bad


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Compares each repetition's digest with the reference."""

    def __init__(self, reference, corrupt: bool):
        self.reference = reference
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0

    def run(self, fn):
        self.attempted += 1
        try:
            rep = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.reference is None:
            self.reference = rep.digest  # unknown seed: every repetition must agree
        expected = self.reference
        if self.corrupt:
            expected = ("0" if expected[0] != "0" else "1") + expected[1:]
        if rep.digest != expected:
            print(f"digest mismatch: {rep.digest} != {expected}", file=sys.stderr)
            self.failed += 1
        return rep


def fast_quartile(values, higher_is_better: bool) -> float:
    """The lower quartile of times or the upper quartile of rates."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 if higher_is_better else q1


def end_to_end(reps: list[Rep], setup: list[tuple[float, float]], rss: float,
               wall: bool = False) -> dict:
    """The metrics in reference-host seconds, or in wall seconds if ``wall``."""
    def scale(r):
        return 1.0 if wall else r.scale

    def rates(count):
        return fast_quartile((count(r) / (r.timed_s * scale(r)) for r in reps), True)

    def times(pct):
        return fast_quartile((percentile(r.samples, pct) * scale(r) for r in reps), False)

    return {
        "setup_s": statistics.median(t * (1.0 if wall else s) for t, s in setup),
        "vehicle_ticks_per_s": rates(lambda r: r.vehicle_ticks),
        "runs_per_s": rates(lambda r: len(r.samples)),
        "run_s_p50": times(50),
        "run_s_p85": times(85),
        "observations_per_s": rates(lambda r: r.observations),
        "peak_rss_mb": rss,
    }


def run_untraced(workload, checker: Checker, seconds: float) -> list[Rep]:
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        rep, scale = scaled(lambda: checker.run(workload.rep))
        if rep is None and checker.attempted >= 3 and not reps:
            break
        if rep is not None:
            rep.scale = scale
            reps.append(rep)
    return reps


def run_traced(ps, workload, checker: Checker, seconds: float, name: str, seed: int):
    """Alternate untraced and traced repetitions; the traced root span is the section."""
    tracer = tr.Tracer()
    plain: list[float] = []
    counters: dict = {}

    def timed(fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            plain.append(time.perf_counter() - t0)

    start = time.perf_counter()
    n_traced = 0
    while not n_traced or time.perf_counter() - start < seconds:
        checker.run(lambda: workload.rep(timed))
        tracer.install(ps)
        try:
            rep = checker.run(lambda: workload.rep(
                lambda fn: tracer.repetition(n_traced, fn)))
        finally:
            tracer.uninstall()
        n_traced += 1
        if rep is not None:
            _sum_counters(counters, rep.counters)
    traced = tracer.root_durations()
    metrics, layer_self = tr.layer_metrics(tracer, counters)
    section = statistics.median(traced)
    overhead = section - statistics.median(plain) if plain else 0.0
    metrics["trace.section_s"] = section
    metrics["trace.overhead_s"] = overhead
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans_{name}.npz"))
    tr.write_layers(os.path.join(OUT, f"layers_{name}.json"), name, seed, layer_self, metrics)
    total = sum(layer_self.values())
    print(f"traced {len(traced)} repetition(s), {len(tracer.start)} spans, "
          f"section {sum(traced):.3f} s, layer self sum {total:.3f} s, "
          f"tracing overhead {overhead:.3f} s per repetition")
    for layer, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:<10} self {value:9.4f} s  {100.0 * value / total:6.2f} %")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: flip the expected digest so every repetition fails")
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"
    wall: dict = {}

    ps = load_pseudosim()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    expected = None if tiny else reference["workloads"][args.workload].get(str(args.seed))

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](ps, args.seed, work, tiny)
        checker = Checker(expected, args.corrupt_reference)
        if args.trace:
            metrics = run_traced(ps, workload, checker, args.seconds, args.workload, args.seed)
        else:
            setup = measure_setup(workload.config_path)
            reps = run_untraced(workload, checker, args.seconds)
            if not reps:
                print("benchmark: every repetition failed", file=sys.stderr)
                return 1
            rss = peak_rss_mb()
            metrics = end_to_end(reps, setup, rss)
            wall = end_to_end(reps, setup, rss, wall=True)
            print(f"repetitions {len(reps)}, run samples {sum(len(r.samples) for r in reps)}, "
                  f"timed sections " + " ".join(f"{r.timed_s:.3f}" for r in reps) + " s, "
                  f"host scale " + " ".join(f"{r.scale:.3f}" for r in reps))
        bad_scenarios = check_scenarios(ps, reference["scenarios"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"benchmark: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for line in bad_scenarios:
        print(f"scenario digest mismatch: {line}", file=sys.stderr)
    mismatch = checker.failed / checker.attempted
    print(f"metric output_mismatch_frac {mismatch:.6g} ratio")
    for name in metrics:
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    for name in wall:
        print(f"wall {name} {wall[name]:.6g} {units[name]}")
    result = {
        "correct": checker.failed == 0 and not bad_scenarios,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
