from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudosim.beaconing import (
    FleetLdm,
    LocalDynamicMap,
    NoticeSighting,
    Observation,
    ldm_quality,
    station_id_for,
)
from pseudosim.sba import AppScope, AuthorizationTicket


# tickets here are never signed; a stub stands in for the AA's signer
STUB_SIGNER = SimpleNamespace(sign=lambda data: b"")


def ticket(at_id="deadbeef00112233"):
    return AuthorizationTicket(
        at_id=at_id,
        app_permissions=("CAM", "DENM"),
        valid_from=0.0,
        valid_until=600.0,
        signer=STUB_SIGNER,
    )


def cam(sid, t, pos=(0.0, 0.0)):
    return Observation(t, sid, "CAM", pos, velocity=(1.0, 0.0), quasi_ids=(4.5, 1.8))


def test_station_id_scope_separation():
    tk = ticket()
    cam_id = station_id_for(tk, AppScope.CAM)
    denm_id = station_id_for(tk, AppScope.DENM)
    assert cam_id != denm_id
    assert len(cam_id) == 16 and len(denm_id) == 16
    # stable function of (ticket, scope)
    assert station_id_for(ticket(), AppScope.CAM) == cam_id
    assert station_id_for(ticket("aaaa0000aaaa0000"), AppScope.CAM) != cam_id


def test_ldm_upsert_and_timeout():
    ldm = LocalDynamicMap(timeout_s=1.5)
    ldm.receive(cam("s1", 0.0), now=0.0)
    ldm.receive(cam("s1", 0.5, pos=(5.0, 0.0)), now=0.5)
    assert len(ldm) == 1
    assert ldm.live_entries(0.5) == [("s1", 0.5)]

    # age == timeout is still live, strictly older is not
    assert len(ldm.live_entries(2.0)) == 1
    assert len(ldm.live_entries(2.0001)) == 0
    assert ldm.evict_expired(2.0) == 0
    assert ldm.evict_expired(2.0001) == 1
    assert len(ldm) == 0


def test_ldm_notice_drops_entry():
    ldm = LocalDynamicMap()
    ldm.receive(cam("s1", 0.0), now=0.0)
    ldm.receive(NoticeSighting(0.1, "s1", "CAM"), now=0.1)
    assert len(ldm) == 0
    # notice for an unknown id is a no-op
    ldm.receive(NoticeSighting(0.2, "zz", "CAM"), now=0.2)
    assert len(ldm) == 0


def test_denm_record_has_no_motion_and_stays_out_of_the_ldm():
    denm = Observation(0.0, "d1", "DENM", (9.0, 9.0))
    assert denm.velocity == (0.0, 0.0) and denm.quasi_ids is None
    ldm = LocalDynamicMap()
    ldm.receive(denm, now=0.0)
    assert len(ldm) == 0 and ldm.live_entries(0.0) == []


def test_quality_counts_ghost_and_missing():
    # neighbor 7 changed pseudonym from old->new; receiver still holds both
    ldm = LocalDynamicMap()
    ldm.receive(cam("old", 0.0), now=0.0)
    ldm.receive(cam("new", 0.4), now=0.4)
    owner_of = {"old": 7, "new": 7}

    q = ldm_quality(ldm, [7], owner_of, frozenset({"new"}), now=0.5)
    assert q.ghost_count == 1  # "old" is live but retired
    assert q.missing_count == 0
    assert q.awareness_ratio == 0.0  # two live entries for one neighbor

    # after the stale entry ages out, the picture is clean again
    q = ldm_quality(ldm, [7], owner_of, frozenset({"new"}), now=1.8)
    assert q.ghost_count == 0
    assert q.missing_count == 0
    assert q.awareness_ratio == 1.0


def test_quality_missing_neighbor():
    ldm = LocalDynamicMap()
    q = ldm_quality(ldm, [1, 2], {}, frozenset(), now=0.0)
    assert q.missing_count == 2
    assert q.awareness_ratio == 0.0


def test_quality_no_neighbors_is_perfect():
    ldm = LocalDynamicMap()
    q = ldm_quality(ldm, [], {}, frozenset(), now=0.0)
    assert q.awareness_ratio == 1.0
    assert q.ghost_count == 0 and q.missing_count == 0


def test_quality_ignores_denm_entries():
    ldm = LocalDynamicMap()
    ldm.receive(Observation(0.0, "d1", "DENM", (0.0, 0.0)), now=0.0)
    q = ldm_quality(ldm, [1], {"d1": 1}, frozenset(), now=0.0)
    # the DENM does not make vehicle 1 known, nor does it count as a ghost
    assert q.ghost_count == 0
    assert q.missing_count == 1


def test_quality_evicts_expired_entries_as_it_scores():
    ldm = LocalDynamicMap(timeout_s=1.5)
    ldm.receive(cam("old", 0.0), now=0.0)
    ldm.receive(cam("new", 0.5), now=0.5)
    q = ldm_quality(ldm, [7], {"old": 7, "new": 7}, frozenset({"new"}), now=1.75)
    assert (q.ghost_count, q.missing_count, q.awareness_ratio) == (0, 0, 1.0)
    assert ldm.last_seen == {"new": 0.5}  # "old" aged 1.75 > 1.5 and is gone


# --- the event-kept fleet LDM against per-vehicle reference maps ---------------------

_FLEET = range(4)
_vid = st.sampled_from(_FLEET)
_ALL_PAIRS = frozenset((a, b) for a in _FLEET for b in _FLEET)
_fleet_tick = st.fixed_dictionaries({
    # fresh lists: all in range of all, some pairs, or the lists kept
    "edges": st.none() | st.just(_ALL_PAIRS) | st.sets(st.tuples(_vid, _vid), max_size=6),
    "finish": st.sampled_from([None] * 8 + list(_FLEET)),  # leaves the road
    "changes": st.sets(_vid, max_size=2),
    "reuse": st.booleans(),  # changes go back to the vehicle's oldest id (round robin)
    "notify": st.booleans(),
    "mute": st.sets(_vid, max_size=2),  # a due CAM is not sent
    "lost": st.sets(st.tuples(_vid, _vid), max_size=6),  # (sender, receiver)
    "deaf": st.sets(_vid, max_size=2),  # miss every delivery of the tick
})


@pytest.mark.ci_budget
@given(
    # (tick_s, ldm_timeout_s); 3 ticks of 0.1 s come to just over 0.3 s
    clock=st.sampled_from([(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (0.25, 1.0), (0.1, 0.3)]),
    period=st.integers(1, 4),  # CAM period in ticks, at times longer than the timeout
    ticks=st.lists(_fleet_tick, min_size=8, max_size=20),
)
def test_fleet_ldm_matches_per_vehicle_reference(clock, period, ticks):
    """``FleetLdm`` driven as the engine drives it, against a ``LocalDynamicMap`` per vehicle.

    Each tick: a vehicle may finish (its id retires, it is dropped), the
    neighbour lists may be replaced, due entries expire and the counters are
    read as the lock validator reads them. Then ids change (retire, notice,
    activate a fresh or a reused id), due CAMs are sent or missed, notices and
    CAMs are delivered but for the lost ones, and the counters are read again.
    Every read must equal ``ldm_quality`` on the reference, and the
    fleet's on-air ids the test's own.
    """
    tick_s, timeout_s = clock
    owner_of, active = {}, set()  # the ground truth, kept by the test
    fleet = FleetLdm(timeout_s, tick_s, period, owner_of)
    refs = {vid: LocalDynamicMap(timeout_s) for vid in _FLEET}
    ids = {vid: [f"v{vid}.0"] for vid in _FLEET}  # in activation order, current last
    for vid in _FLEET:
        owner_of[ids[vid][0]] = vid
        active.add(ids[vid][0])
        fleet.activate(ids[vid][0])
    neighbors, last_cam = None, {}

    def retire(vid, notices):
        sid = ids[vid][-1]
        active.discard(sid)
        fleet.retire(sid)
        notices.append((vid, sid, list(neighbors[vid])))

    def check(now):
        assert fleet.active == active
        for vid, ref in refs.items():
            want = ldm_quality(ref, neighbors[vid], owner_of, frozenset(active), now)
            node, n = fleet.nodes[vid], len(neighbors[vid])
            assert (node.ghost, node.n_zero, node.n_one / n if n else 1.0) == (
                want.ghost_count, want.missing_count, want.awareness_ratio
            )
            assert node.entries.keys() == ref.last_seen.keys()  # scoring evicted the expired

    for tick, step in enumerate(ticks):
        now = tick * tick_s
        notices = []
        finished = step["finish"] in refs and tick > 0
        if finished:
            retire(step["finish"], notices)
            fleet.drop(step["finish"])
            del refs[step["finish"]]
        if neighbors is None or finished or step["edges"] is not None:
            edges = {(a, b) for a, b in step["edges"] or () if a != b and {a, b} <= refs.keys()}
            neighbors = {vid: sorted({b for a, b in edges if a == vid}
                                     | {a for a, b in edges if b == vid}) for vid in refs}
            fleet.relink(neighbors)
        fleet.expire(tick)
        check(now)
        for vid in sorted(step["changes"] & refs.keys()):
            retire(vid, notices)
            new = ids[vid][0] if step["reuse"] else f"v{vid}.{tick + 1}"
            if new in ids[vid]:
                ids[vid].remove(new)
            ids[vid].append(new)
            owner_of[new] = vid
            active.add(new)
            fleet.activate(new)
        cams = []
        for vid in sorted(refs):
            if vid in last_cam and tick - last_cam[vid] < period:
                continue
            if vid in step["mute"]:
                fleet.cut(vid)
            else:
                last_cam[vid] = tick
                cams.append(vid)
        def lost(sender):
            return {rid for s, rid in step["lost"] if s == sender} | step["deaf"]

        for sender, sid, receivers in notices if step["notify"] else ():
            for rid in receivers:
                if rid in refs and rid not in lost(sender):
                    refs[rid].receive(NoticeSighting(now, sid, "CAM"), now)
                    fleet.forget(rid, sid)
        for vid in cams:
            for rid in neighbors[vid]:
                if rid not in lost(vid):
                    refs[rid].receive(Observation(now, ids[vid][-1], "CAM", (0.0, 0.0)), now)
            fleet.heard(vid, ids[vid][-1], lost(vid), tick)
        check(now)
