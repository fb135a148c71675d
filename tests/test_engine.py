import json
import math
import weakref
from collections import Counter

import pytest

from conftest import SUITE
from pseudosim import run_scenario
from pseudosim import strategy as strat
from pseudosim.engine import SimulationEngine
from pseudosim.config import load_scenario


def road(length=1000.0, limit=30.0):
    return {"segments": [
        {"id": "main", "start": [0.0, 0.0], "end": [length, 0.0], "speed_limit_mps": limit},
    ]}


def base_config(**over):
    cfg = {
        "name": "engine-unit",
        "seed": 5,
        "duration_s": 10.0,
        "tick_s": 0.1,
        "road": road(),
        "fleet": [{"vehicle_id": 1, "route": ["main"], "speed_mps": 10.0}],
        "beaconing": {"cam_freq_hz": 10.0, "positioning_sigma_m": 0.0, "loss_rate": 0.0},
        "policy": {"kind": "periodic", "interval_s": 1000.0, "silence_s": 0.0},
        "adversary": {"coverage": "full"},
    }
    cfg.update(over)
    return cfg


# --- whole-scenario behavior ------------------------------------------------------


def test_baseline_run_links_perfectly(run_cached):
    r = run_cached("baseline_single.json")
    s = r.summary
    assert s["n_changes"] == 2
    assert s["changes_by_trigger"] == {"periodic": 2}
    assert s["privacy"]["link_accuracy"] == 1.0
    assert s["privacy"]["traceability"] == 1.0
    assert s["privacy"]["n_truth_pairs"] == 4  # CAM and DENM pairs for 2 changes
    assert s["safety"]["sybil_violations"] == 0
    assert s["safety"]["min_valid_tickets"] >= 2
    assert s["counters"]["enrollments_ok"] == 1
    # a lone vehicle has no neighbors, so awareness never samples
    assert s["safety"]["mean_awareness_ratio"] is None
    assert s["safety"]["awareness_samples"] == 0


@pytest.mark.parametrize("name", SUITE)
def test_pool_queries_never_go_back_in_time(scenarios_dir, monkeypatch, name):
    """The engine queries every pool at non-decreasing times, as a pool needs:
    its index drops tickets that no later query can use."""
    latest, backward = weakref.WeakKeyDictionary(), []
    for method in ("valid_tickets", "valid_count", "min_valid_count", "select_next"):
        def recorded(pool, *args, query=getattr(strat.PseudonymPool, method)):
            now = args[-1]
            if now < latest.get(pool, -math.inf):
                backward.append(now)
            latest[pool] = now
            return query(pool, *args)

        monkeypatch.setattr(strat.PseudonymPool, method, recorded)
    run_scenario(str(scenarios_dir / name))
    assert not backward


def test_rerun_is_byte_identical(scenarios_dir):
    path = str(scenarios_dir / "symmetric_crossing.json")
    a = run_scenario(path, collect_trace=True)
    b = run_scenario(path, collect_trace=True)
    assert a.summary_json() == b.summary_json()
    assert a.trace_rows == b.trace_rows
    assert a.linkage.to_json() == b.linkage.to_json()


def test_seed_override_reseeds_everything(scenarios_dir, run_cached):
    cached = run_cached("symmetric_crossing.json")
    r = run_scenario(str(scenarios_dir / "symmetric_crossing.json"), seed_override=12)
    assert r.summary["seed"] == 12
    assert r.summary["config_digest"] != cached.summary["config_digest"]
    # ticket ids derive from the seed, so the airwaves look entirely different
    assert not (
        {o.station_id for o in r.store.observations}
        & {o.station_id for o in cached.store.observations}
    )


def test_silence_window_blocks_cams(scenarios_dir):
    r = run_scenario(
        str(scenarios_dir / "ghost_regression_notify_off.json"), collect_trace=True
    )
    s = r.summary
    assert s["n_changes"] == 3
    assert s["safety"]["silence_blind_s"] == pytest.approx(6.0)  # 3 changes x 2 s

    v1_changes = [rec for rec in r.change_records if rec.vehicle_id == 1]
    assert [rec.t for rec in v1_changes] == [5.0, 10.0]
    cams_v1 = [
        row for row in r.trace_rows
        if row["kind"] == "CAM" and row["sender_vehicle_id"] == 1
    ]
    in_silence = [row for row in cams_v1 if 5.0 <= row["t"] < 7.0]
    assert in_silence == []
    assert any(row["t"] == 7.0 for row in cams_v1)
    # emissions resume 2.1 s after the last pre-change CAM at 4.9
    assert s["safety"]["max_stack_switch_gap_s"] == pytest.approx(2.1)
    assert "notices_sent" not in s["counters"]


def test_ghost_entries_with_and_without_notices(run_cached):
    off = run_cached("ghost_regression_notify_off.json").summary
    on = run_cached("ghost_regression_notify_on.json").summary
    assert off["safety"]["ghost_ticks"] > 0
    assert on["safety"]["ghost_ticks"] == 0
    assert on["counters"]["notices_sent"] == 3
    # notices cannot hide the silence itself: the neighbor is missing instead
    assert on["safety"]["missing_ticks"] >= off["safety"]["missing_ticks"]


def test_notices_precede_cams_in_trace(scenarios_dir):
    r = run_scenario(
        str(scenarios_dir / "ghost_regression_notify_on.json"), collect_trace=True
    )
    notices = [row for row in r.trace_rows if row["kind"] == "notice"]
    assert {row["t"] for row in notices} == {5.0, 7.0, 10.0}
    for t in (5.0, 7.0, 10.0):
        kinds = [row["kind"] for row in r.trace_rows if row["t"] == t]
        n = kinds.count("notice")
        assert n >= 1
        # deactivation notices sort ahead of beacons within a tick
        assert all(k == "notice" for k in kinds[:n])


def test_ticket_expiry_forces_change():
    cfg = base_config(
        duration_s=45.0,
        sba={"at_lifetime_s": 30.0, "at_stagger_s": 5.0},
        pool={"size": 4, "min_concurrent_valid": 2},
    )
    r = run_scenario(cfg)
    s = r.summary
    assert s["changes_by_trigger"] == {"ticket_expiry": 3}
    assert [rec.t for rec in r.change_records] == [30.0, 35.0, 40.0]
    # the swap happens in the same tick the old ticket dies: no beacon gap
    assert s["safety"]["max_stack_switch_gap_s"] == pytest.approx(0.1)
    assert s["safety"]["min_valid_tickets"] >= 2


def test_locked_identifier_defers_change():
    cfg = base_config(
        policy={"kind": "periodic", "interval_s": 5.0, "silence_s": 0.0},
        locks={"events": [
            {"vehicle_id": 1, "t": 4.5, "app_id": "hd-map", "duration_s": 3.0},
        ]},
    )
    r = run_scenario(cfg)
    s = r.summary
    assert s["safety"]["locks_granted"] == 1
    assert s["safety"]["locks_denied"] == 0
    # due at 5.0 but locked until 7.5; the change lands the moment the lock ends
    assert [rec.t for rec in r.change_records] == [7.5]
    assert s["counters"]["change_deferred_lock"] == 25  # ticks 5.0 .. 7.4


def test_network_triggered_coordination_budget():
    cfg = base_config(
        name="coordination-unit",
        duration_s=30.0,
        road=road(3000.0),
        fleet=[
            {"vehicle_id": v, "route": ["main"], "speed_mps": 10.0} for v in (1, 2, 3, 4)
        ],
        policy={
            "kind": "network_triggered",
            "min_interval_s": 5.0,
            "coordination_interval_s": 1.0,
            "max_silent_fraction": 0.5,
            "silence_s": 1.0,
        },
    )
    r = run_scenario(cfg)
    s = r.summary
    recs = r.change_records
    assert s["n_changes"] >= 16
    assert set(s["changes_by_trigger"]) == {"network_triggered"}
    assert s["counters"]["coordinator_commands"] == s["n_changes"]

    # never more than floor(0.5 * 4) = 2 vehicles silenced per instant
    per_instant = {}
    for rec in recs:
        per_instant[rec.t] = per_instant.get(rec.t, 0) + 1
    assert max(per_instant.values()) <= 2

    # the per-vehicle minimum interval is honored
    by_vehicle = {}
    for rec in recs:
        by_vehicle.setdefault(rec.vehicle_id, []).append(rec.t)
    for times in by_vehicle.values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 5.0 - 1e-9 for g in gaps)


def test_lock_event_after_trip_end_is_counted():
    cfg = base_config(
        road=road(50.0),  # the trip ends at 5.0 s
        locks={"events": [
            {"vehicle_id": 1, "t": 2.0, "app_id": "hd-map", "duration_s": 1.0},
            {"vehicle_id": 1, "t": 7.0, "app_id": "hd-map", "duration_s": 1.0},
        ]},
    )
    s = run_scenario(cfg).summary
    assert s["safety"]["locks_granted"] == 1
    assert s["counters"]["lock_events_dropped"] == 1


def test_replenish_counts_giving_up():
    # 16 single-ticket batches leave a 20-ticket pool 4 short at admission
    s = run_scenario(base_config(pool={"size": 20}, sba={"at_batch_cap": 1})).summary
    assert s["counters"]["replenish_gave_up"] == 1
    assert s["counters"]["tickets_issued"] == 16
    s = run_scenario(base_config(pool={"size": 20}, sba={"at_batch_cap": 2})).summary
    assert "replenish_gave_up" not in s["counters"]
    assert s["counters"]["tickets_issued"] == 20


def test_trip_completion():
    cfg = base_config(
        road=road(50.0),
        policy={"kind": "periodic", "interval_s": 1000.0, "silence_s": 0.0,
                "notify_deactivation": True},
    )
    r = run_scenario(cfg, collect_trace=True)
    assert r.summary["counters"]["trips_completed"] == 1
    cams = [row for row in r.trace_rows if row["kind"] == "CAM"]
    assert max(row["t"] for row in cams) == 4.9  # done at 5.0, no beacon after
    notices = [row for row in r.trace_rows if row["kind"] == "notice"]
    assert [row["t"] for row in notices] == [5.0]


def test_summary_shape_and_json():
    r = run_scenario(base_config())
    s = r.summary
    assert set(s) == {
        "scenario", "seed", "config_digest", "n_ticks", "tick_s", "n_vehicles",
        "n_changes", "n_initial_activations", "changes_by_trigger",
        "privacy", "safety", "counters",
    }
    assert set(s["privacy"]) == {
        "link_accuracy", "traceability", "mean_anonymity_set",
        "n_truth_pairs", "n_correct_pairs", "n_predicted_pairs",
    }
    assert set(s["safety"]) == {
        "mean_awareness_ratio", "awareness_samples", "ghost_ticks",
        "ghost_entries_total", "missing_ticks", "missing_total",
        "silence_blind_s", "max_stack_switch_gap_s", "min_valid_tickets",
        "sybil_violations", "locks_granted", "locks_denied",
    }
    assert list(s["counters"]) == sorted(s["counters"])
    parsed = json.loads(r.summary_json())
    assert parsed == s
    assert r.summary_json().endswith("\n")


def test_engine_requires_loaded_config():
    cfg = load_scenario(base_config())
    engine = SimulationEngine(cfg)
    assert engine.n_ticks == 100
    result = engine.run()
    assert result.config is cfg
    assert result.trace_rows is None  # not collected unless asked


def test_ticks_until_steps_up_where_ceil_falls_short():
    engine = SimulationEngine(load_scenario(base_config(duration_s=30.0)))
    t = 29.000000000000004
    # t / 0.1 is 290.0, but 290 * 0.1 is 29.0 < t: the first tick at or past t is 291
    assert math.ceil(t / 0.1) == 290 and 290 * 0.1 < t <= 291 * 0.1
    assert engine._ticks_until(t) == 291
    assert engine._ticks_until(29.0) == 290


def test_two_vehicles_on_one_station_id_stop_the_run(monkeypatch):
    from pseudosim import beaconing as bcn

    monkeypatch.setattr(bcn, "station_id_for", lambda ticket, scope: f"one-{scope.value}")
    fleet = [{"vehicle_id": vid, "route": ["main"], "speed_mps": 10.0} for vid in (1, 2)]
    with pytest.raises(RuntimeError, match="^station id collision on one-CAM$"):
        run_scenario(base_config(fleet=fleet))


def test_initial_activations_count_vehicles_even_after_a_starved_start(
    scenarios_dir, run_cached, monkeypatch
):
    s = run_cached("ghost_regression_notify_off.json").summary
    assert s["n_initial_activations"] == 2
    assert "change_starved" not in s["counters"]

    # the first vehicle's pool has nothing to give at departure; it activates later
    plan_change, calls = strat.plan_change, []

    def starve_first(pool, now):
        calls.append(now)
        return None if len(calls) == 1 else plan_change(pool, now)

    monkeypatch.setattr(strat, "plan_change", starve_first)
    starved = run_scenario(str(scenarios_dir / "ghost_regression_notify_off.json")).summary
    assert starved["n_initial_activations"] == 2
    assert starved["counters"]["change_starved"] == 1
    assert starved["changes_by_trigger"] == s["changes_by_trigger"] == {"periodic": 3}


def test_sybil_counter_fires_on_reused_id(scenarios_dir, monkeypatch):
    # fault injection: a pool that hands back the active ticket on every change
    select_next = strat.PseudonymPool.select_next

    def stale(pool, scope, now):
        return pool.active.get(scope) or select_next(pool, scope, now)

    monkeypatch.setattr(strat.PseudonymPool, "select_next", stale)
    s = run_scenario(str(scenarios_dir / "baseline_single.json")).summary
    assert s["n_changes"] == 2
    assert s["safety"]["sybil_violations"] > 0


def test_switch_gap_counts_a_reused_id_from_its_first_cam_after_the_change(scenarios_dir):
    """``max_stack_switch_gap_s`` where a round-robin pool of three hands ids back.

    The gap of a change runs from the old CAM id's last CAM to the new CAM
    id's first CAM after the change, so an id that comes back is measured
    from its new activation, not its first; this pins the value.
    """
    raw = json.loads((scenarios_dir / "latency_fleet.json").read_text())
    raw["duration_s"] = 60.0
    raw["pool"] = {"size": 3, "min_concurrent_valid": 2, "selection": "round_robin"}
    summary = run_scenario(load_scenario(raw)).summary
    assert summary["n_changes"] == 186
    assert summary["safety"]["max_stack_switch_gap_s"] == 0.10000000000000142


def test_run_signs_once_per_enrolment(scenarios_dir, ed25519_calls):
    raw = json.loads((scenarios_dir / "latency_fleet.json").read_text())
    raw["duration_s"] = 20.0
    summary = run_scenario(load_scenario(raw)).summary
    enrolments = summary["counters"]["enrollments_ok"]
    assert enrolments == len(raw["fleet"])
    assert summary["counters"]["tickets_issued"] > enrolments
    assert ed25519_calls["sign"] == enrolments


def test_periodic_change_is_due_on_the_first_tick_the_float_test_passes():
    # with 0.1 s ticks 12 * 0.1 is 1.2000000000000002, which already reaches
    # this interval less 1e-9, though (interval - 1e-9) / 0.1 rounds above 12
    cfg = base_config(duration_s=5.0, policy={"kind": "periodic", "silence_s": 0.0,
                                               "interval_s": 1.2000000010000003})
    result = run_scenario(cfg)
    assert [int(round(rec.t / 0.1)) for rec in result.change_records] == [12, 24, 36, 48]


def test_the_eavesdropper_keeps_each_ids_first_and_latest_record(run_cached):
    # latency_fleet sends 32,775 beacons under 1,096 station ids
    r = run_cached("latency_fleet.json")
    observations = r.store.observations
    held = Counter(o.station_id for o in observations)
    assert len(held) == 1096 and max(held.values()) == 2
    assert [o.t for o in observations] == sorted(o.t for o in observations)


def test_noisy_positions_are_stored_as_python_floats():
    # as ``load_trace`` reads them back: the noise draw's rows become floats
    cfg = base_config(duration_s=2.0, beaconing={
        "cam_freq_hz": 10.0, "positioning_sigma_m": 1.0, "loss_rate": 0.0, "denm_interval_s": 1.0,
    })
    store = run_scenario(cfg).store
    assert {o.scope for o in store.observations} == {"CAM", "DENM"}
    assert all(type(v) is float for o in store.observations for v in o.position)
    assert any(o.position[1] != 0.0 for o in store.observations)
