"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size, so the same seed
always yields byte-identical inputs. Nothing here imports ``pseudosim``:
inputs are plain JSON-ready objects and files in the ``--trace`` row format.
"""

from __future__ import annotations

import json
import math
import os
from types import SimpleNamespace

import numpy as np

TICK_S = 0.1


def fleet_dense(seed: int, n_vehicles: int = 80, n_ticks: int = 600) -> dict:
    """A lossy, noisy platoon on one 20 km segment that all departs in ~10 s.

    Every vehicle stays in radio range of most others for the whole run, so
    message ingest is quadratic in fleet size; 3 s periodic changes keep the
    pools and the attacker busy.
    """
    rng = np.random.default_rng([seed, 80])
    fleet = [
        {
            "vehicle_id": i + 1,
            "route": ["main"],
            "speed_mps": round(float(rng.uniform(24.0, 31.0)), 3),
            "depart_s": round(float(rng.uniform(0.0, 10.0)), 1),
            "length_m": round(float(rng.uniform(3.8, 5.2)), 2),
            "width_m": round(float(rng.uniform(1.6, 2.0)), 2),
        }
        for i in range(n_vehicles)
    ]
    return {
        "name": f"fleet-dense-{n_vehicles}",
        "seed": int(seed),
        "duration_s": n_ticks * TICK_S,
        "tick_s": TICK_S,
        "road": {"segments": [
            {"id": "main", "start": [0.0, 0.0], "end": [20000.0, 0.0], "speed_limit_mps": 33.0}
        ]},
        "fleet": fleet,
        "beaconing": {"cam_freq_hz": 10.0, "radio_range_m": 300.0, "ldm_timeout_s": 1.5,
                      "positioning_sigma_m": 1.0, "loss_rate": 0.05},
        "policy": {"kind": "periodic", "interval_s": 3.0, "silence_s": 0.0,
                   "notify_deactivation": False},
        "pool": {"size": 20, "min_concurrent_valid": 2, "selection": "no_reuse"},
        "adversary": {"coverage": "full"},
    }


def reseeded(path: str, seed: int, **overrides) -> dict:
    """A checked-in scenario with its run seed replaced by ``seed``."""
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    config["seed"] = int(seed)
    config.update(overrides)
    return config


def sweep_spec(path: str, seed: int, **overrides) -> dict:
    """A checked-in sweep spec with an absolute base path and a seed-derived seed_base.

    Benchmark seeds map to run seeds 1000 apart, so the replication seeds of
    two benchmark seeds never overlap.
    """
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["base"] = os.path.join(os.path.dirname(os.path.abspath(path)), spec["base"])
    spec["seed_base"] = 1000 * int(seed)
    spec.update(overrides)
    return spec


class ReplayTruth:
    """Ground truth of a synthetic trace, in the shape ``evaluate_attack`` reads."""

    def __init__(self):
        self.owner_of: dict[str, int] = {}
        self.truth_pairs: list[tuple[str, str]] = []
        self.changes: list[SimpleNamespace] = []
        self.silence_of: dict[int, list] = {}


def attack_trace(seed: int, path: str, n_sync: int = 240, n_staggered: int = 60,
                 n_ticks: int = 200) -> ReplayTruth:
    """Write a synthetic eavesdropper trace (CAM rows, ``--trace`` format).

    ``n_sync`` vehicles share one set of dimensions and change every 5 s at
    the same instant after a 1 s silence, which the semantic stage cannot
    resolve and which gives large kinematic epochs. ``n_staggered`` vehicles
    have unique dimensions and change on staggered 8-15 s timers without
    silence, which the semantic stage links. Reported positions carry 1 m
    noise; every vehicle sends one CAM per tick while not silent. The default
    200 ticks (about 53k rows) keep each replay near a second, so a timed run
    holds many repetitions; epoch sizes do not depend on the trace length.
    """
    rng = np.random.default_rng([seed, 120])
    used: set[str] = set()

    def fresh_id() -> str:
        while True:
            sid = f"{int(rng.integers(0, 2**63)):016x}"
            if sid not in used:
                used.add(sid)
                return sid

    vehicles = []
    for vid in range(1, n_sync + n_staggered + 1):
        heading = 1.0 if rng.random() < 0.5 else -1.0
        if vid <= n_sync:
            period, phase, silence, dims = 50, 0, 10, (4.5, 1.8)
        else:
            period = int(rng.integers(80, 151))
            phase = int(rng.integers(1, period))
            silence = 0
            dims = (round(3.5 + 0.03 * (vid - n_sync), 2), 2.05)
        vehicles.append({
            "vid": vid,
            "x0": float(rng.uniform(0.0, 3000.0)),
            "y": float(rng.choice([0.0, 3.5, 7.0, 10.5])) * heading,
            "vx": heading * float(rng.uniform(20.0, 32.0)),
            "period": period,
            "phase": phase,
            "silence": silence,
            "dims": dims,
            "sid": fresh_id(),
            "silent_until": -1,
        })
    truth = ReplayTruth()
    for v in vehicles:
        truth.owner_of[v["sid"]] = v["vid"]

    with open(path, "w", encoding="utf-8") as fh:
        for tick in range(n_ticks):
            t = tick * TICK_S
            noise = rng.normal(0.0, 1.0, size=(len(vehicles), 2))
            for k, v in enumerate(vehicles):
                x = v["x0"] + v["vx"] * t
                if tick > 0 and (tick - v["phase"]) % v["period"] == 0:
                    old, new = v["sid"], fresh_id()
                    v["sid"] = new
                    v["silent_until"] = tick + v["silence"]
                    truth.owner_of[new] = v["vid"]
                    truth.truth_pairs.append((old, new))
                    silence_s = v["silence"] * TICK_S
                    truth.changes.append(SimpleNamespace(
                        t=t, old_ids={"CAM": old}, new_ids={"CAM": new},
                        position=(x, v["y"]), silence_s=silence_s))
                    truth.silence_of.setdefault(v["vid"], []).append((t, t + silence_s, (x, v["y"])))
                if tick < v["silent_until"]:
                    continue
                row = {
                    "kind": "CAM", "t": t, "station_id": v["sid"],
                    "x": x + float(noise[k, 0]), "y": v["y"] + float(noise[k, 1]),
                    "vx": v["vx"], "vy": 0.0, "sender_vehicle_id": v["vid"],
                    "quasi_ids": list(v["dims"]),
                }
                fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    return truth


def vehicle_ticks(config: dict) -> int:
    """(vehicle, tick) pairs on the road, from the input alone.

    A vehicle is on the road from its departure tick until the tick its route
    ends (exclusive) or the run ends. Fixed by the input, so throughput in
    vehicle ticks compares across fleet sizes and across code changes.
    """
    tick_s = config.get("tick_s", 0.05)
    n_ticks = int(round(config["duration_s"] / tick_s))
    segments = {seg["id"]: seg for seg in config["road"]["segments"]}
    total = 0
    for spec in config["fleet"]:
        depart = int(round(spec.get("depart_s", 0.0) / tick_s))
        if depart >= n_ticks:
            continue
        travel_s = sum(
            math.dist(segments[s]["start"], segments[s]["end"])
            / min(spec["speed_mps"], segments[s]["speed_limit_mps"])
            for s in spec["route"]
        )
        total += min(n_ticks - depart, math.ceil(travel_s / tick_s - 1e-9))
    return total
