"""Pin output bytes across code changes, not only across reruns.

``golden_digests.json`` holds the sha256 of every suite scenario's
``summary_json()`` and of the silence sweep's ``metrics.csv`` and
``sweep_manifest.json``. Under ``branch_runs`` it also holds the summary,
trace and linkage digests of the configs in ``BRANCH_RUNS``, which reach
engine and core paths the suite scenarios miss. ``attacker_replay`` pins
the linkage and attack metrics of a generated trace with large kinematic
epochs, and ``random_instance_assignments`` every gap assignment, ties
included, of ``oracle_support.random_instance`` seeds 0-5 (its pairs,
unmatched ids and total). A change that alters any of
these bytes on purpose must regenerate the file and say why.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import SUITE
from oracle_support import assignment_outcome, random_instance
from pseudosim import run_scenario
from pseudosim.adversary import (
    MotionModel,
    TruthData,
    associate_across_gap,
    evaluate_attack,
    link,
    load_trace,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_file_covers_the_suite():
    assert sorted(GOLDEN["summary_json"]) == sorted(SUITE)
    assert sorted(GOLDEN["silence_sweep"]) == ["metrics.csv", "sweep_manifest.json"]


@pytest.mark.parametrize("name", SUITE)
def test_summary_digest(run_cached, name):
    digest = _sha256(run_cached(name).summary_json().encode())
    assert digest == GOLDEN["summary_json"][name]


@pytest.mark.parametrize("rel", ["metrics.csv", "sweep_manifest.json"])
def test_silence_sweep_digest(silence_sweep, rel):
    assert _sha256((silence_sweep / rel).read_bytes()) == GOLDEN["silence_sweep"][rel]


def _road(length: float) -> dict:
    return {"segments": [
        {"id": "main", "start": [0.0, 0.0], "end": [length, 0.0], "speed_limit_mps": 30.0},
        {"id": "spur", "start": [length, 0.0], "end": [length, 400.0], "speed_limit_mps": 15.0},
    ]}


def _fleet(n: int, short: tuple) -> list:
    """Vehicles in ``short`` stop at the end of ``main``, well before the run ends."""
    return [
        {"vehicle_id": v, "route": ["main"] if v in short else ["main", "spur"],
         "speed_mps": 8.0 + v, "depart_s": 0.5 * (v - 1), "length_m": 4.0 + 0.3 * v}
        for v in range(1, n + 1)
    ]


BRANCH_RUNS = {
    # chained locks past renewal_threshold reach the awareness validator, and a
    # short LDM timeout under loss makes it reject some; DENMs on, notices from
    # vehicles that finish mid-run
    "validator_locks_loss": {
        "name": "branch-validator", "seed": 7, "duration_s": 40.0, "tick_s": 0.1,
        "road": _road(300.0), "fleet": _fleet(5, short=(2, 4)),
        "beaconing": {"cam_freq_hz": 5.0, "radio_range_m": 120.0, "loss_rate": 0.3,
                      "ldm_timeout_s": 0.3, "positioning_sigma_m": 0.5, "denm_interval_s": 1.0},
        "policy": {"kind": "periodic", "interval_s": 6.0, "silence_s": 0.5,
                   "notify_deactivation": True},
        "pool": {"size": 8, "min_concurrent_valid": 2},
        "locks": {"renewal_threshold": 1, "validator_awareness_min": 0.99, "events": [
            {"vehicle_id": v, "t": t, "app_id": "hd-map", "duration_s": 1.0}
            for v in (1, 3, 5) for t in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5)
        ]},
        "adversary": {"coverage": "full"},
    },
    # coordinated changes from round-robin pools of short-lived tickets, heard
    # only by two coverage posts
    "network_triggered_round_robin": {
        "name": "branch-network", "seed": 11, "duration_s": 45.0, "tick_s": 0.1,
        "road": _road(400.0), "fleet": _fleet(6, short=(3,)),
        "beaconing": {"cam_freq_hz": 10.0, "radio_range_m": 150.0, "loss_rate": 0.1},
        "policy": {"kind": "network_triggered", "min_interval_s": 4.0,
                   "coordination_interval_s": 1.0, "max_silent_fraction": 0.5,
                   "silence_s": 1.0, "notify_deactivation": True},
        "pool": {"size": 6, "min_concurrent_valid": 2, "selection": "round_robin"},
        "sba": {"at_lifetime_s": 20.0, "at_stagger_s": 1.0},
        "adversary": {"coverage": [{"x": 0.0, "y": 0.0, "radius_m": 150.0},
                                   {"x": 400.0, "y": 200.0, "radius_m": 120.0}]},
    },
    # the core signs access tokens with Ed25519, not the shared-secret MAC, and a
    # short token lifetime makes it sign fresh ones through the run
    "asymmetric_tokens": {
        "name": "branch-asymmetric", "seed": 5, "duration_s": 30.0, "tick_s": 0.1,
        "road": _road(300.0), "fleet": _fleet(3, short=(2,)),
        "beaconing": {"cam_freq_hz": 5.0, "radio_range_m": 200.0},
        "policy": {"kind": "periodic", "interval_s": 5.0, "silence_s": 0.5},
        "pool": {"size": 4, "min_concurrent_valid": 2},
        "sba": {"sig_scheme": "asymmetric", "token_ttl_s": 8.0, "at_lifetime_s": 12.0},
        "adversary": {"coverage": "full"},
    },
}


def branch_digests(config: dict) -> dict:
    """sha256 of the summary, the trace as ``pseudosim run`` writes it, and the linkage."""
    result = run_scenario(config, collect_trace=True)
    trace = "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in result.trace_rows
    )
    return {
        "summary_json": _sha256(result.summary_json().encode()),
        "trace_jsonl": _sha256(trace.encode()),
        "linkage_json": _sha256(result.linkage.to_json().encode()),
    }


@pytest.mark.parametrize("name", sorted(BRANCH_RUNS))
def test_branch_run_digests(name):
    assert branch_digests(BRANCH_RUNS[name]) == GOLDEN["branch_runs"][name]


def replay_trace(path: Path, seed: int = 3, n_sync: int = 60, n_staggered: int = 20,
                 n_ticks: int = 200) -> TruthData:
    """Write a CAM trace in the ``--trace`` row format and return its ground truth.

    The ``n_sync`` vehicles share one set of dimensions and change every 5 s
    at the same instant after a 1 s silence, so the semantic stage cannot
    resolve them and the kinematic epochs are large. The ``n_staggered``
    vehicles have unique dimensions and change on staggered timers without
    silence; some of them share dimensions, which leaves those groups to the
    kinematic stage, and the semantic stage links the rest. Reported positions
    carry 1 m noise.
    """
    rng = np.random.default_rng(seed)
    used: set = set()

    def fresh_id() -> str:
        while (sid := f"{int(rng.integers(0, 2**63)):016x}") in used:
            pass
        used.add(sid)
        return sid

    vehicles = []
    for vid in range(1, n_sync + n_staggered + 1):
        sync = vid <= n_sync
        heading = 1.0 if rng.random() < 0.5 else -1.0
        period = 50 if sync else int(rng.integers(80, 151))
        vehicles.append(SimpleNamespace(
            vid=vid, sid=fresh_id(), period=period, silent_until=-1,
            phase=0 if sync else int(rng.integers(1, period)),
            silence=10 if sync else 0,
            dims=[4.5, 1.8] if sync else [round(3.5 + 0.03 * (vid % 15), 2), 2.05],
            x0=float(rng.uniform(0.0, 500.0)), vx=heading * float(rng.uniform(20.0, 32.0)),
            y=float(rng.choice([0.0, 3.5, 7.0, 10.5])) * heading,
        ))
    owner_of = {v.sid: v.vid for v in vehicles}
    truth_pairs, changes, silence_of = [], [], {}
    with open(path, "w", encoding="utf-8") as fh:
        for tick in range(n_ticks):
            t = tick * 0.1
            noise = rng.normal(0.0, 1.0, size=(len(vehicles), 2))
            for k, v in enumerate(vehicles):
                x = v.x0 + v.vx * t
                if tick > 0 and (tick - v.phase) % v.period == 0:
                    old, v.sid = v.sid, fresh_id()
                    v.silent_until = tick + v.silence
                    owner_of[v.sid] = v.vid
                    truth_pairs.append((old, v.sid))
                    silence_s = v.silence * 0.1
                    changes.append(SimpleNamespace(
                        t=t, old_ids={"CAM": old}, position=(x, v.y), silence_s=silence_s))
                    silence_of.setdefault(v.vid, []).append((t, t + silence_s, (x, v.y)))
                if tick < v.silent_until:
                    continue
                row = {"kind": "CAM", "t": t, "station_id": v.sid,
                       "x": x + float(noise[k, 0]), "y": v.y + float(noise[k, 1]),
                       "vx": v.vx, "vy": 0.0, "sender_vehicle_id": v.vid,
                       "quasi_ids": v.dims}
                fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return TruthData(owner_of=owner_of, truth_pairs=truth_pairs, changes=changes,
                     silence_of=silence_of)


def attacker_digest(tmp_path: Path) -> str:
    """sha256 of the linkage JSON and the attack metrics of the replayed trace."""
    path = tmp_path / "trace.jsonl"
    truth = replay_trace(path)
    linkage = link(load_trace(str(path)), MotionModel())
    metrics = evaluate_attack(linkage, truth)
    return _sha256((linkage.to_json() + json.dumps(metrics.to_obj(), sort_keys=True)).encode())


def test_attacker_replay_digest(tmp_path):
    assert attacker_digest(tmp_path) == GOLDEN["attacker_replay"]


def test_random_instance_assignments_digest():
    digest = hashlib.sha256()
    model = MotionModel()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for _ in range(2000):
            instance = random_instance(rng)
            a = associate_across_gap(*instance, model)
            digest.update(json.dumps(
                [a.pairs, *assignment_outcome(a, *instance, model)]
            ).encode())
    assert digest.hexdigest() == GOLDEN["random_instance_assignments"]
