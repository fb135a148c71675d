from pseudosim.beaconing import (
    LocalDynamicMap,
    NoticeSighting,
    Observation,
    ldm_quality,
    station_id_for,
)
from pseudosim.sba import AppScope, AuthorizationTicket


def ticket(at_id="deadbeef00112233"):
    return AuthorizationTicket(
        at_id=at_id,
        app_permissions=("CAM", "DENM"),
        valid_from=0.0,
        valid_until=600.0,
        issuer_signature=b"",
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
    assert ldm.live_entries(0.5)[0].last_seen == 0.5

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


def test_denm_record_has_no_motion_and_keeps_its_scope():
    denm = Observation(0.0, "d1", "DENM", (9.0, 9.0))
    assert denm.velocity == (0.0, 0.0) and denm.quasi_ids is None
    ldm = LocalDynamicMap()
    ldm.receive(denm, now=0.0)
    assert ldm.live_entries(0.0)[0].scope == "DENM"


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
