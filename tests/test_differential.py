"""The event-kept tick loop against its per-tick reference, byte for byte.

``oracle_support.ReferenceEngine`` runs all five phases on every tick: it
steps every vehicle with ``step_kinematics``, polls every change trigger,
ticket expiry and pool count (by a scan of every ticket issued), checks
every CAM's ticket, recomputes every neighbour list each tick, draws loss
and calls ``LocalDynamicMap.receive`` per delivery and rescores every LDM.
The production engine runs the phases only on event ticks and each stretch
of quiet ticks between them in one step, and keeps its state between the
events that change it (a ``Leg`` per vehicle, a strategy wake tick, a
pool's live index and steady count, the CAM ticket's end, neighbour lists
until a pair could cross the range, and every receiver's LDM sample as
counters in ``beaconing.FleetLdm``) and draws loss in one batch. On
generated scenarios both must write the same summary, trace and linkage,
leave each vehicle still on the road at the same offset with the same
odometers, bit for bit, and every traced run must hold the engine
invariants of ``check_invariants``. The production engine runs once with a
trace and once without, since a quiet stretch builds every record only for
a trace. The reference's eavesdropper logs every beacon and the production
one each station id's first and latest, so the linkages check that fold
too, and so does its store: the reference's log folded by an
``Eavesdropper``, record for record and in order.

The scenarios sit on one east-west road, with lanes both ways and a turn
north. With a dyadic tick and integer speeds positions are exact; a
scenario without a motif may also take a 0.1 s tick, whose float edges the
wake ticks must match. Each route starts on a slow segment and goes on at
speed. Most scenarios are built around one event that a wrong shortcut
would miss (``_motif``), with up to ten more vehicles around it. Example
budget: the hypothesis profile (``conftest.py``) and a quarter more, times a
motif's weight in ``_MOTIFS`` over 11.
"""

import json
import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import ReferenceEngine, first_and_latest
from pseudosim.config import load_scenario
from pseudosim.engine import SimulationEngine

pytestmark = pytest.mark.ci_budget

# (tick_s, cam_freq_hz): a CAM every 1, 2 or 4 ticks; the non-dyadic tick
# only without a motif, whose geometry needs exact positions
_CLOCKS = [(0.5, 2.0), (0.5, 1.0), (0.25, 4.0), (0.25, 1.0)]
_FLOAT_CLOCK = (0.1, 10.0)

_QUIET = {"kind": "periodic", "interval_s": 60.0}  # no change after the initial ids
_SEGMENT = {"kind": "segment", "second_change_min_m": 20.0, "second_change_max_m": 60.0,
            "subsequent_min_distance_m": 30.0, "subsequent_time_min_s": 2.0,
            "subsequent_time_max_s": 6.0}
_POLICIES = st.sampled_from([
    {"kind": "periodic", "interval_s": 2.0},
    # faster than the LDM timeout: a round-robin id comes back while still held
    {"kind": "periodic", "interval_s": 1.0},
    # on the 0.1 s clock, due when 12 * 0.1 (1.2000000000000002) reaches the
    # interval less 1e-9, a tick before ceil((interval - 1e-9) / 0.1) says
    {"kind": "periodic", "interval_s": 1.2000000010000003},
    _QUIET,
    {"kind": "synchronized", "interval_s": 4.0, "window_s": 2.0},
    {"kind": "network_triggered", "min_interval_s": 3.0, "coordination_interval_s": 1.0,
     "max_silent_fraction": 0.5},
    _SEGMENT,
])


@st.composite
def _supply(draw):
    """The ``pool`` and ``sba`` sections: how many tickets, lasting how long.

    Pools sit at or just above ``min_concurrent_valid`` or hold a few spares,
    with tickets as long-lived as the defaults, lapsing every few changes or
    lapsing before a 2 s change interval, staggered or all at once (then a
    change can find no valid ticket, and the vehicle's due CAMs are not sent
    until a later change succeeds). An enrolment certificate may last 3 s,
    less than most runs: once it expires every provisioning call fails, in a
    change or in a top-up of ``_phase_sba``, and the pool runs dry. A
    20-ticket pool keeps the default lifetime; with a batch cap of 1 the 16
    provisioning calls of one top-up cannot fill it, so ``replenish_gave_up``
    fires.
    """
    floor = draw(st.sampled_from([2, 3]))
    size = draw(st.sampled_from([floor, floor + 1, 6, 20]))
    pool = {"size": size, "min_concurrent_valid": floor,
            "selection": draw(st.sampled_from(["no_reuse", "round_robin"]))}
    if size == 20:
        return pool, draw(st.sampled_from([{}, {"at_batch_cap": 1}]))
    return pool, draw(st.sampled_from([{}, {"at_lifetime_s": 6.0, "at_stagger_s": 1.0},
                                       {"at_lifetime_s": 1.5, "at_stagger_s": 0.5},
                                       {"at_lifetime_s": 1.5},
                                       {"at_lifetime_s": 1.5, "at_stagger_s": 0.5,
                                        "ec_lifetime_s": 3.0}]))


_SPEEDS = [1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 24.0, 30.0]
# the last six make an LDM, coordinator, lock or record event that a shortcut
# could lose; None weighs double
_MOTIFS = [None, None, "head_on", "speed_up", "ends_unheard", "pulls_away", "comes_back",
           "lapses", "quiet", "coordinated", "validated"]


def _motif(draw, motif, tick_s, n_ticks, x1, x2, limits):
    """Vehicles 1 and 2 of a scenario built around one event, and the radio range.

    - ``head_on``: they drive at each other below every limit and meet the
      range exactly, after a whole number of ticks;
    - ``speed_up``: vehicle 1 crawls along a slow first segment at a fraction
      of its own speed, then races on;
    - ``ends_unheard``: vehicle 1 pulls away from vehicle 2, leaves its range
      and ends its trip within the LDM timeout, so only the retired id tells
      vehicle 2 its entry is a ghost. Other id changes would tell it too, so
      this scenario keeps its ids and beacons every tick.
    - ``pulls_away``: vehicle 1 leaves vehicle 2 behind, first on the slow
      segment and then at speed, so the pair drops out of range while both
      still beacon;
    - ``quiet``: vehicle 1 drives west at 4 m/s through a listening post
      (placed in ``scenarios``), so its id is first heard and last heard on
      ticks that may be quiet;
    - ``validated``: vehicles 1 and 2 drive together, always in range, and
      vehicle 1 asks for a lock on every tick (set in ``scenarios``);
    - ``comes_back``, ``lapses`` and ``coordinated`` fix settings, not
      vehicles (``scenarios``).

    A scenario with a motif has at most two more vehicles: more pairs would
    often force a fresh neighbour pass right at the event.
    """
    radius = float(draw(st.integers(10, 150)))
    if motif == "head_on":
        v1 = draw(st.sampled_from([v for v in _SPEEDS if v <= limits["e1"]]))
        v2 = draw(st.sampled_from([v for v in _SPEEDS if v <= limits["w1"]]))
        step = (v1 + v2) * tick_s
        k = draw(st.integers(1, min(n_ticks - 1, int((x2 - 1.0) / step))))
        return [(["e1", "e2"], v1), (["w1", "w2"], v2)], x2 - k * step
    if motif == "speed_up":
        limits["e1"] = 4.0  # vehicle 1 reaches the fast segment within the run
        return [(["e1", "e2", "north"], 30.0), (["w1"], draw(st.sampled_from(_SPEEDS)))], radius
    if motif == "quiet":
        limits["w1"] = 4.0
        return [(["w1", "w2"], 4.0)], radius
    if motif == "validated":
        return [(["e1", "e2"], 2.0), (["e1", "e2"], 2.0)], radius
    if motif == "pulls_away":
        limits["e1"] = 4.0
        return [(["e1", "e2"], 30.0), (["e1", "e2"], 2.0)], radius
    if motif == "ends_unheard":
        limits["e1"] = 4.0
        v1, v2 = draw(st.sampled_from([(4.0, 1.0), (4.0, 2.0), (2.0, 1.0)]))
        # the gap reaches the range two ticks before the end and passes it a
        # tick later; vehicle 2 heard vehicle 1 then, within the 1.5 s timeout
        return [(["e1"], v1), (["e1", "e2"], v2)], (v1 - v2) * (x1 / v1 - 2 * tick_s)
    return [], radius


@st.composite
def scenarios(draw, motifs=_MOTIFS):
    motif = draw(st.sampled_from(motifs))
    tick_s, cam_freq_hz = draw(st.sampled_from(_CLOCKS + [_FLOAT_CLOCK] * (motif is None)))
    n_ticks = draw(st.integers(30, 90))
    x1 = float(draw(st.integers(10, 60)))
    x2 = x1 + draw(st.integers(30, 150))
    slow, fast = st.sampled_from([1.0, 2.0, 4.0]), st.integers(16, 30).map(float)
    limits = {"e1": draw(slow), "e2": draw(fast), "north": draw(fast),
              "w1": draw(slow), "w2": draw(fast)}
    pinned, radius = _motif(draw, motif, tick_s, n_ticks, x1, x2, limits)
    lane = 0.0 if motif == "head_on" else draw(st.sampled_from([0.0, 3.0]))
    segments = {  # each route's second segment is the faster one
        "e1": ((0.0, 0.0), (x1, 0.0)), "e2": ((x1, 0.0), (x2, 0.0)),
        "north": ((x2, 0.0), (x2, 100.0)),
        "w1": ((x2, lane), (x1, lane)), "w2": ((x1, lane), (0.0, lane)),
    }
    road = {"segments": [
        {"id": sid, "start": list(a), "end": list(b), "speed_limit_mps": limits[sid]}
        for sid, (a, b) in segments.items()
    ]}
    routes = [["e1"], ["e1", "e2"], ["e1", "e2", "north"], ["w1"], ["w1", "w2"]]
    fleet = [
        {"vehicle_id": vid, "route": route, "speed_mps": speed}
        for vid, (route, speed) in enumerate(pinned, start=1)
    ]
    for vid in range(len(fleet) + 1, draw(st.integers(2, 4 if motif else 12)) + 1):
        fleet.append({
            "vehicle_id": vid,
            "route": draw(st.sampled_from(routes)),
            "speed_mps": draw(st.sampled_from(_SPEEDS)),
            "depart_s": draw(st.sampled_from([0, 0, n_ticks // 8, n_ticks // 4])) * tick_s,
            "length_m": draw(st.sampled_from([4.0, 4.5, 5.0])),
        })
    events = []
    for veh in draw(st.lists(st.sampled_from(fleet), max_size=3, unique_by=id)):
        first = int(round(veh.get("depart_s", 0.0) / tick_s))
        for tick in draw(st.lists(st.integers(first, n_ticks - 1), max_size=4, unique=True)):
            events.append({"vehicle_id": veh["vehicle_id"], "t": tick * tick_s,
                           "app_id": "hd-map", "duration_s": 1.0})
    posts = [{"x": x1, "y": 0.0, "radius_m": 60.0}, {"x": 0.0, "y": 0.0, "radius_m": 40.0}]
    coverage = draw(st.sampled_from(["full", posts]))
    beaconing = {
        "cam_freq_hz": cam_freq_hz,
        "radio_range_m": radius,
        "ldm_timeout_s": draw(st.sampled_from([0.5, 1.0, 1.5])),
        "positioning_sigma_m": draw(st.sampled_from([0.0, 1.0])),
        "loss_rate": draw(st.sampled_from([0.0, 0.1, 0.4])),
        "denm_interval_s": draw(st.sampled_from([None, 1.0])),
    }
    policy = draw(_POLICIES)
    change = {"silence_s": draw(st.sampled_from([0.0, 0.5, 1.0])),
              "notify_deactivation": draw(st.booleans())}
    pool, sba = draw(_supply())
    if motif == "ends_unheard":  # ids kept, a CAM every tick
        beaconing.update(cam_freq_hz=1.0 / tick_s, ldm_timeout_s=1.5)
        policy, sba = _QUIET, {}
    elif motif == "comes_back":
        # a round-robin pool of two hands an id back while receivers still
        # hold it, so it stops counting as a ghost there
        beaconing["ldm_timeout_s"] = 1.5
        policy, change["notify_deactivation"] = {"kind": "periodic", "interval_s": 1.0}, False
        pool = {"size": 2, "min_concurrent_valid": 2, "selection": "round_robin"}
    elif motif == "lapses":
        # every ticket lapses at once: the change finds none valid, the due
        # CAM is not sent, and an entry lives for one tick after its CAM
        beaconing.update(cam_freq_hz=1.0 / tick_s, ldm_timeout_s=tick_s)
        policy, sba = _QUIET, {"at_lifetime_s": 1.5}
        pool["size"] = pool["min_concurrent_valid"]
    elif motif in ("quiet", "coordinated"):
        # no loss and CAMs within the timeout leave ticks quiet. ``quiet``: a
        # CAM every other tick, so a change between CAMs leaves a switch gap
        # for the next one; no noise, so an untraced run builds only the
        # records its eavesdropper keeps; vehicle 1 reaches the post around
        # tick ``enter``, after two unheard CAMs or more; ids kept for the
        # run or changed by the odometers. ``coordinated``: the coordinator's
        # ticks may be its only events
        beaconing.update(loss_rate=0.0, ldm_timeout_s=1.5)
        if motif == "quiet":
            beaconing.update(cam_freq_hz=0.5 / tick_s, positioning_sigma_m=0.0)
            policy = draw(st.sampled_from([_QUIET, _SEGMENT]))
            enter = draw(st.integers(8, min(n_ticks - 2, int((x2 - 10.0) / (4.0 * tick_s)))))
            coverage = [{"x": x2 - 4.0 * tick_s * enter - 20.0, "y": 0.0, "radius_m": 20.0}]
        else:
            beaconing["cam_freq_hz"] = 1.0 / tick_s
            policy = {"kind": "network_triggered", "min_interval_s": 3.0,
                      "coordination_interval_s": 1.0, "max_silent_fraction": 0.5}
    elif motif == "validated":
        # vehicle 2's retired ids linger, unannounced, beside its new one
        # until they expire, so a lock renewal on an expiry tick (each is
        # judged by awareness) reads whether the expiry landed first
        beaconing.update(cam_freq_hz=1.0 / tick_s, ldm_timeout_s=1.5, loss_rate=0.0)
        policy, change["notify_deactivation"] = {"kind": "periodic", "interval_s": 2.0}, False
        events = [{"vehicle_id": 1, "t": tick * tick_s, "app_id": "hd-map", "duration_s": 1.0}
                  for tick in range(1, n_ticks)]
    return {
        "name": f"differential-{motif}",
        "seed": draw(st.integers(0, 2**16)),
        "duration_s": n_ticks * tick_s,
        "tick_s": tick_s,
        "road": road,
        "fleet": fleet,
        "beaconing": beaconing,
        "policy": {**policy, **change},
        "pool": pool,
        "sba": sba,
        "locks": {"renewal_threshold": 1,
                  "validator_awareness_min": draw(st.sampled_from([0.5, 0.99])),
                  "events": events},
        "adversary": {"coverage": coverage},
    }


def check_invariants(config, result) -> None:
    """Engine contracts that hold on every run, whatever the radio layer does.

    The beacon counters equal the trace's beacon rows, no station id comes
    back under ``no_reuse``, the change records come one per vehicle and tick
    in trace order, and they account for every beacon's station id: until a
    vehicle's first change it beacons under that change's old ids, after a
    change under its new ids, and not at all inside the change's silence.
    Unless a provisioning call failed or gave up, or a change found no
    ticket, every pool kept ``min_concurrent_valid`` valid tickets. The
    largest switch gap is the largest over changes of the new id's first CAM
    before the vehicle's next change less the old id's last CAM since its
    previous change, where both were sent.
    """
    summary, rows = result.summary, result.trace_rows
    short = [key for key in summary["counters"] if key.startswith("replenish_failed_")
             or key in ("replenish_gave_up", "change_starved")]
    if not short:
        assert summary["safety"]["min_valid_tickets"] >= config.pool.min_concurrent_valid
    for kind, counter in (("CAM", "cams_sent"), ("DENM", "denms_sent")):
        assert summary["counters"].get(counter, 0) == sum(row["kind"] == kind for row in rows)
    assert summary["safety"]["sybil_violations"] == 0

    def tick(t):
        return int(round(t / config.tick_s))

    keys = [(tick(rec.t), rec.vehicle_id) for rec in result.change_records]
    assert keys == sorted(set(keys))
    changes_of, ticks_of = {}, {}
    for rec in result.change_records:
        changes_of.setdefault(rec.vehicle_id, []).append(rec)
        ticks_of.setdefault(rec.vehicle_id, []).append(tick(rec.t))
    first_id = {}
    for row in rows:
        if row["kind"] == "notice":
            continue
        vid, scope, now = row["sender_vehicle_id"], row["kind"], tick(row["t"])
        recs = changes_of.get(vid, [])
        k = bisect_right(ticks_of.get(vid, []), now)
        if k:
            rec = recs[k - 1]
            assert row["station_id"] == rec.new_ids[scope]
            assert now >= ticks_of[vid][k - 1] + int(round(rec.silence_s / config.tick_s))
        elif recs:
            assert row["station_id"] == recs[0].old_ids[scope]
        else:
            assert first_id.setdefault((vid, scope), row["station_id"]) == row["station_id"]
    cams_of = {}  # vehicle -> its CAM ticks, ascending
    for row in rows:
        if row["kind"] == "CAM":
            cams_of.setdefault(row["sender_vehicle_id"], []).append(tick(row["t"]))
    gaps = []
    for vid, changes in ticks_of.items():
        cams = cams_of.get(vid, [])
        for k, change in enumerate(changes):
            previous = changes[k - 1] if k else -math.inf
            following = changes[k + 1] if k + 1 < len(changes) else math.inf
            last = [c for c in cams if previous <= c < change]
            first = [c for c in cams if change <= c < following]
            if last and first:
                gaps.append(first[0] * config.tick_s - last[-1] * config.tick_s)
    assert summary["safety"]["max_stack_switch_gap_s"] == max(gaps, default=None)


def on_road(engine) -> dict:
    """Each vehicle still on the road at the end: its cursor and both odometers,
    floats by their bits. Not its kinematics, which a final quiet stretch leaves."""
    return {
        vid: (veh.cursor.seg_index, veh.cursor.offset_m.hex(),
              veh.trip.odometer_trip_m.hex(), veh.trip.odometer_since_change_m.hex())
        for vid, veh in engine.vehicles.items()
    }


def outputs(engine_cls, config, collect_trace=True) -> tuple:
    """The run, what ``on_road`` reads at its end, its summary, its trace as
    ``pseudosim run`` writes it (None if not collected) and its linkage.

    A traced run is checked against ``check_invariants`` on the way.
    """
    engine = engine_cls(config, collect_trace=collect_trace)
    result = engine.run()
    trace = None
    if collect_trace:
        check_invariants(config, result)
        trace = "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in result.trace_rows
        )
    return result, on_road(engine), result.summary_json(), trace, result.linkage.to_json()


def assert_engines_agree(raw) -> None:
    config = load_scenario(raw)
    ref, *want = outputs(ReferenceEngine, config)
    kept = first_and_latest(ref.store)
    # without a trace, quiet stretches build only the records the eavesdropper
    # keeps: the path the benchmark times
    for collect_trace in (True, False):
        run, *got = outputs(SimulationEngine, config, collect_trace)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == (want[2] if collect_trace else None)
        assert got[3] == want[3]
        assert repr(run.store.observations) == repr(kept.observations)
        assert run.store.notices == ref.store.notices


@pytest.mark.parametrize("motif", list(dict.fromkeys(_MOTIFS)), ids=str)
def test_event_kept_engine_matches_reference(motif):
    # each motif gets the profile's budget and a quarter more, times its
    # weight over 11, the weights' sum when the split was fixed: a new motif
    # takes examples of its own and moves no other motif's
    budget = settings.default.max_examples * 5 / 4
    share = math.ceil(budget * _MOTIFS.count(motif) / 11)

    @settings(max_examples=share)
    @given(scenarios([motif]))
    def agree(raw):
        assert_engines_agree(raw)

    agree()
