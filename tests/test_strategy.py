import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import ScanScope
from pseudosim.mobility import TripState
from pseudosim.sba import AppScope, AuthorizationTicket, SbaConfig, ServiceBasedCore, Supi
from pseudosim.strategy import (
    MAX_CUMULATIVE_LOCK_S,
    MAX_SINGLE_LOCK_S,
    CoordinationCandidate,
    LockLedger,
    NetworkTriggeredPolicy,
    PeriodicPolicy,
    PoolError,
    PseudonymPool,
    SegmentPolicy,
    SynchronizedPolicy,
    TriggerState,
    coordinate_network_change,
    evaluate_change_trigger,
    plan_change,
    rearm_trigger,
    replenish_pool,
    trigger_lower_bounds,
)


# tickets here are never signed; a stub stands in for the AA's signer
STUB_SIGNER = SimpleNamespace(sign=lambda data: b"")


def ticket(at_id, valid_from=0.0, valid_until=1000.0):
    return AuthorizationTicket(
        at_id=at_id,
        app_permissions=("CAM",),
        valid_from=valid_from,
        valid_until=valid_until,
        signer=STUB_SIGNER,
    )


def trip(changes=0, odo_trip=0.0, odo_since=0.0):
    return TripState(
        odometer_trip_m=odo_trip,
        odometer_since_change_m=odo_since,
        changes_this_trip=changes,
    )


# --- trigger sampling and evaluation -------------------------------------------


def test_segment_threshold_sampling_ranges():
    rng = np.random.default_rng(1)
    policy = SegmentPolicy()

    assert rearm_trigger(policy, 0, rng) == TriggerState()

    second = [rearm_trigger(policy, 1, rng) for _ in range(500)]
    dists = [s.threshold_distance_m for s in second]
    assert all(800.0 <= d <= 1500.0 for d in dists)
    assert max(dists) - min(dists) > 300.0  # actually spread out
    assert all(s.threshold_time_s is None for s in second)

    later = [rearm_trigger(policy, k, rng) for k in (2, 3, 7) for _ in range(200)]
    assert all(s.threshold_distance_m == 800.0 for s in later)
    assert all(120.0 <= s.threshold_time_s <= 360.0 for s in later)


def test_rearm_trigger_non_segment_is_empty():
    rng = np.random.default_rng(1)
    assert rearm_trigger(PeriodicPolicy(), 3, rng) == TriggerState()
    assert rearm_trigger(NetworkTriggeredPolicy(), 3, rng) == TriggerState()


def test_first_change_fires_for_every_policy():
    rng = np.random.default_rng(0)
    for policy in (PeriodicPolicy(), SegmentPolicy(), SynchronizedPolicy(), NetworkTriggeredPolicy()):
        t = trip(changes=0)
        trig = rearm_trigger(policy, 0, rng)
        assert evaluate_change_trigger(policy, t, trig, now=0.0, since_s=0.0)


def test_periodic_interval():
    policy = PeriodicPolicy(interval_s=300.0)
    trig = TriggerState()
    assert not evaluate_change_trigger(policy, trip(1), trig, now=0.0, since_s=299.9)
    assert evaluate_change_trigger(policy, trip(1), trig, now=0.0, since_s=300.0)
    # accumulated float error just below the interval still fires
    assert evaluate_change_trigger(policy, trip(1), trig, now=0.0, since_s=300.0 - 1e-12)


def test_segment_second_change_uses_trip_odometer():
    policy = SegmentPolicy()
    trig = TriggerState(threshold_distance_m=1000.0)
    assert not evaluate_change_trigger(policy, trip(1, odo_trip=999.0, odo_since=999.0), trig, 0.0,
                                       since_s=0.0)
    assert evaluate_change_trigger(policy, trip(1, odo_trip=1000.0, odo_since=0.0), trig, 0.0,
                                   since_s=0.0)


def test_segment_subsequent_is_conjunctive():
    policy = SegmentPolicy()
    trig = TriggerState(threshold_distance_m=800.0, threshold_time_s=200.0)
    assert not evaluate_change_trigger(policy, trip(2, odo_since=900.0), trig, 0.0, since_s=150.0)
    assert not evaluate_change_trigger(policy, trip(2, odo_since=700.0), trig, 0.0, since_s=250.0)
    assert evaluate_change_trigger(policy, trip(2, odo_since=800.0), trig, 0.0, since_s=200.0)


def test_synchronized_needs_interval_and_boundary():
    policy = SynchronizedPolicy(interval_s=10.0, window_s=10.0)
    trig = TriggerState()
    # interval not yet elapsed: boundary alone is not enough
    assert not evaluate_change_trigger(policy, trip(1), trig, now=20.0, since_s=9.0)
    # elapsed but off-boundary
    assert not evaluate_change_trigger(policy, trip(1), trig, now=24.0, since_s=12.0)
    # elapsed and on the boundary
    assert evaluate_change_trigger(policy, trip(1), trig, now=30.0, since_s=12.0)


def test_synchronized_boundary_respects_clock_skew():
    policy = SynchronizedPolicy(interval_s=10.0, window_s=10.0)
    trig = TriggerState()
    t = trip(1)
    # true time 8 s, skewed clock reads 10 s: boundary by the vehicle's clock
    assert evaluate_change_trigger(policy, t, trig, now=8.0, since_s=50.0, clock_skew_s=2.0)
    assert not evaluate_change_trigger(policy, t, trig, now=8.0, since_s=50.0, clock_skew_s=0.0)
    # negative local time wraps instead of crashing
    assert not evaluate_change_trigger(policy, t, trig, now=1.0, since_s=50.0, clock_skew_s=-3.0)
    assert evaluate_change_trigger(policy, t, trig, now=1.0, since_s=50.0, clock_skew_s=-1.0)


def test_synchronized_boundary_tolerance():
    policy = SynchronizedPolicy(interval_s=10.0, window_s=10.0)
    trig = TriggerState()
    t = trip(1)
    assert evaluate_change_trigger(policy, t, trig, now=29.99999999, since_s=50.0)
    assert evaluate_change_trigger(policy, t, trig, now=30.00000001, since_s=50.0)
    assert not evaluate_change_trigger(policy, t, trig, now=30.1, since_s=50.0)


def test_network_triggered_waits_for_command():
    policy = NetworkTriggeredPolicy()
    assert not evaluate_change_trigger(policy, trip(1), TriggerState(), 0.0, since_s=1e6)
    assert evaluate_change_trigger(policy, trip(1), TriggerState(pending_command=True), 0.0,
                                   since_s=0.0)


def below(x):
    return math.nextafter(x, -math.inf)


EPS = 1e-9  # the slack every threshold allows for accumulated float error


def test_no_change_yet_has_no_lower_bound():
    for policy in (PeriodicPolicy(), SegmentPolicy(), SynchronizedPolicy(), NetworkTriggeredPolicy()):
        assert trigger_lower_bounds(policy, trip(0), TriggerState()) == (-math.inf, 0.0)


def test_segment_first_leg_bound_is_metres_from_trip_start():
    policy, trig = SegmentPolicy(), TriggerState(threshold_distance_m=1000.0)
    edge = 1000.0 - EPS
    # the odometer since the change and the elapsed time play no part
    assert trigger_lower_bounds(policy, trip(1, odo_trip=edge, odo_since=0.0), trig) == (-math.inf, 0.0)
    assert trigger_lower_bounds(policy, trip(1, odo_trip=0.0, odo_since=edge), trig) == (-math.inf, edge)
    since_s, metres = trigger_lower_bounds(policy, trip(1, odo_trip=below(edge)), trig)
    assert since_s == -math.inf and metres == edge - below(edge) > 0.0
    assert evaluate_change_trigger(policy, trip(1, odo_trip=edge), trig, 0.0, since_s=0.0)
    assert not evaluate_change_trigger(policy, trip(1, odo_trip=below(edge)), trig, 0.0,
                                       since_s=0.0)


def test_segment_later_leg_bounds_are_time_and_metres_since_the_change():
    policy = SegmentPolicy()
    trig = TriggerState(threshold_distance_m=800.0, threshold_time_s=200.0)
    d_edge, t_edge = 800.0 - EPS, 200.0 - EPS
    at_edge = trip(2, odo_trip=5000.0, odo_since=d_edge)
    assert trigger_lower_bounds(policy, at_edge, trig) == (t_edge, 0.0)
    short = trip(2, odo_trip=5000.0, odo_since=below(d_edge))
    assert trigger_lower_bounds(policy, short, trig) == (t_edge, d_edge - below(d_edge))
    assert evaluate_change_trigger(policy, at_edge, trig, 0.0, since_s=t_edge)
    assert not evaluate_change_trigger(policy, short, trig, 0.0, since_s=t_edge)
    assert not evaluate_change_trigger(policy, at_edge, trig, 0.0, since_s=below(t_edge))  # early


def test_interval_policies_bound_only_the_time_since_the_change():
    edge = 30.0 - EPS
    for policy in (PeriodicPolicy(interval_s=30.0), SynchronizedPolicy(interval_s=30.0, window_s=10.0)):
        assert trigger_lower_bounds(policy, trip(1, odo_since=-1.0), TriggerState()) == (edge, 0.0)
        # now=30.0 sits on a synchronized window boundary
        assert evaluate_change_trigger(policy, trip(1), TriggerState(), 30.0, since_s=edge)
        assert not evaluate_change_trigger(policy, trip(1), TriggerState(), 30.0,
                                           since_s=below(edge))
    bounds = trigger_lower_bounds(NetworkTriggeredPolicy(), trip(3), TriggerState())
    assert bounds == (math.inf, 0.0)


def test_trigger_rejects_an_unknown_policy():
    class Custom:
        kind = "custom"

    with pytest.raises(TypeError, match="unknown policy"):
        trigger_lower_bounds(Custom(), trip(1), TriggerState())
    with pytest.raises(TypeError, match="unknown policy"):
        evaluate_change_trigger(Custom(), trip(1), TriggerState(), 0.0, since_s=0.0)


# --- locks ----------------------------------------------------------------------


def test_lock_grant_and_caps():
    ledger = LockLedger()
    d = ledger.request("app", 255.0, now=0.0, pseudonym_valid_until=1e9)
    assert d.granted and d.reason is None
    # the grant ends at now + duration
    assert ledger.locked(math.nextafter(255.0, 0.0)) and not ledger.locked(255.0)

    too_long = ledger.request("app", 255.1, now=300.0, pseudonym_valid_until=1e9)
    assert not too_long.granted and too_long.reason == "over_max_single"

    bad = ledger.request("app", 0.0, now=300.0, pseudonym_valid_until=1e9)
    assert not bad.granted and bad.reason == "invalid_duration"


def test_lock_chain_cumulative_cap():
    ledger = LockLedger(renewal_threshold=10)
    # back to back locks: 0-255, 255-510, 510-765 all fit
    for now in (0.0, 255.0, 510.0):
        assert ledger.request("app", 255.0, now, 1e9).granted
    # a fourth 255 s lock would stretch the run to 1020 s
    d = ledger.request("app", 255.0, 765.0, 1e9)
    assert not d.granted and d.reason == "over_cumulative"
    # but topping up to exactly 900 s is allowed
    assert ledger.request("app", 135.0, 765.0, 1e9).granted
    # a strict gap resets the run clock
    d = ledger.request("app", 255.0, 900.1, 1e9)
    assert d.granted


def test_lock_respects_pseudonym_validity():
    ledger = LockLedger()
    d = ledger.request("app", 100.0, now=0.0, pseudonym_valid_until=50.0)
    assert not d.granted and d.reason == "past_pseudonym_validity"
    assert ledger.request("app", 50.0, now=0.0, pseudonym_valid_until=50.0).granted


def test_locked_is_half_open():
    ledger = LockLedger()
    ledger.request("app", 10.0, now=0.0, pseudonym_valid_until=1e9)
    assert ledger.locked(0.0)
    assert ledger.locked(9.999)
    assert not ledger.locked(10.0)


def test_lock_renewal_needs_validator():
    ledger = LockLedger(renewal_threshold=3)
    for now in (0.0, 10.0, 20.0):
        assert ledger.request("hd-map", 10.0, now, 1e9).granted

    denied = ledger.request("hd-map", 10.0, 30.0, 1e9)
    assert not denied.granted and denied.reason == "network_rejected"

    # another application inside the same run is not throttled
    assert ledger.request("platoon", 10.0, 30.0, 1e9).granted

    approved = ledger.request("hd-map", 10.0, 30.0, 1e9, validator=lambda app, t: True)
    assert approved.granted

    vetoed = ledger.request("hd-map", 10.0, 40.0, 1e9, validator=lambda app, t: False)
    assert not vetoed.granted and vetoed.reason == "network_rejected"


def test_lock_renewal_counts_reset_after_gap():
    ledger = LockLedger(renewal_threshold=2)
    assert ledger.request("app", 10.0, 0.0, 1e9).granted
    assert ledger.request("app", 10.0, 10.0, 1e9).granted
    assert not ledger.request("app", 10.0, 20.0, 1e9).granted
    # strict gap: counts and run clock both reset
    assert ledger.request("app", 10.0, 31.0, 1e9).granted


@st.composite
def lock_request_seq(draw):
    n = draw(st.integers(1, 40))
    reqs = []
    now = 0.0
    for _ in range(n):
        now += draw(st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False))
        duration = draw(st.floats(-5.0, 300.0, allow_nan=False, allow_infinity=False))
        reqs.append((now, duration))
    return reqs


@pytest.mark.ci_budget
@given(lock_request_seq())
@settings(max_examples=settings.default.max_examples * 5 // 2)  # 150 at the default profile
def test_lock_invariants_fuzz(reqs):
    ledger = LockLedger(renewal_threshold=4)
    validity = 1e8
    spans = []  # merged coverage, rebuilt independently of the ledger
    grants = []  # (granted_at, expires_at) of every grant, kept by the test

    def locked_by_scan(t):
        return any(s <= t < e for s, e in grants)

    for now, duration in reqs:
        assert ledger.locked(now) == locked_by_scan(now)
        d = ledger.request("app", duration, now, validity, validator=lambda a, t: True)
        if d.granted:
            grants.append((now, now + duration))
        # queries go forward: any time from this request on, each grant's end among them
        for t in (now, *(e for _, e in grants if e >= now)):
            assert ledger.locked(t) == locked_by_scan(t)
        if not d.granted:
            continue
        granted_at, expires_at = grants[-1]
        assert expires_at - granted_at <= MAX_SINGLE_LOCK_S + 1e-9
        assert expires_at <= validity + 1e-6
        if spans and granted_at <= spans[-1][1] + 1e-9:
            spans[-1][1] = max(spans[-1][1], expires_at)
        else:
            spans.append([granted_at, expires_at])
        assert all(e - s <= MAX_CUMULATIVE_LOCK_S + 1e-6 for s, e in spans)


# --- pools ----------------------------------------------------------------------


def test_pool_construction_guards():
    with pytest.raises(PoolError):
        PseudonymPool("fancy", 2, 5, [AppScope.CAM])
    with pytest.raises(PoolError):
        PseudonymPool("no_reuse", 1, 5, [AppScope.CAM])
    with pytest.raises(PoolError):
        PseudonymPool("no_reuse", 3, 2, [AppScope.CAM])


def test_pool_rejects_duplicate_tickets():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM])
    pool.add_batch(AppScope.CAM, [ticket("t1")])
    with pytest.raises(PoolError):
        pool.add_batch(AppScope.CAM, [ticket("t1")])


def test_pool_activates_only_its_own_tickets():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM, AppScope.DENM])
    pool.add_batch(AppScope.CAM, [ticket("t1")])
    pool.add_batch(AppScope.DENM, [ticket("d1")])
    for scope, stranger in ((AppScope.CAM, "d1"), (AppScope.CAM, "t9"), (AppScope.DENM, "t1")):
        with pytest.raises(PoolError, match=f"^ticket {stranger} not in pool$"):
            pool.activate(scope, ticket(stranger))
    assert pool.active == {}
    pool.activate(AppScope.CAM, ticket("t1"))
    assert pool.active[AppScope.CAM].at_id == "t1"


def test_pool_queries_before_the_latest_raise():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM, AppScope.DENM])
    pool.add_batch(AppScope.CAM, [ticket("a", 0.0, 4.0), ticket("b", 2.0, 9.0)])
    pool.add_batch(AppScope.DENM, [ticket("d", 0.0, 9.0)])
    assert pool.valid_count(AppScope.DENM, 5.0) == 1
    queries = [
        lambda now: pool.valid_tickets(AppScope.CAM, now),
        lambda now: pool.valid_count(AppScope.CAM, now),
        lambda now: pool.min_valid_count(now),
        lambda now: pool.select_next(AppScope.CAM, now),
        lambda now: pool.needs_replenish(AppScope.CAM, now),
        lambda now: pool.replenish_need(AppScope.CAM, now),
    ]
    for query in queries:  # the pool's latest query, on the other scope, was at 5.0
        with pytest.raises(PoolError):
            query(3.0)
    assert [t.at_id for t in pool.valid_tickets(AppScope.CAM, 5.0)] == ["b"]
    assert pool.min_valid_count(5.0) == 1 and pool.latest == 5.0


def test_pool_validity_is_half_open():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM])
    pool.add_batch(AppScope.CAM, [ticket("t1", valid_until=50.0), ticket("t2")])
    assert pool.valid_count(AppScope.CAM, 49.9) == 2
    assert pool.valid_count(AppScope.CAM, 50.0) == 1


def test_round_robin_cycles_and_reuses():
    pool = PseudonymPool("round_robin", 2, 5, [AppScope.CAM])
    pool.add_batch(AppScope.CAM, [ticket("a"), ticket("b")])
    seen = []
    for _ in range(4):
        pick = pool.select_next(AppScope.CAM, now=0.0)
        seen.append(pick.at_id)
        pool.activate(AppScope.CAM, pick)
    assert seen == ["a", "b", "a", "b"]


def test_no_reuse_never_reactivates():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM])
    issued = [ticket("a"), ticket("b"), ticket("c")]
    pool.add_batch(AppScope.CAM, issued)
    order = []
    for _ in range(len(issued) + 1):  # a pool that hands back retired tickets fails, not hangs
        pick = pool.select_next(AppScope.CAM, now=0.0)
        if pick is None:
            break
        order.append(pick.at_id)
        pool.activate(AppScope.CAM, pick)
    else:
        pytest.fail(f"select_next still picks after {len(issued) + 1} changes: {order}")
    assert order == ["a", "b", "c"]
    # two retired plus one active: nothing left to change to
    assert pool.valid_count(AppScope.CAM, 0.0) == 1  # the active one


def test_select_never_returns_active():
    pool = PseudonymPool("round_robin", 2, 5, [AppScope.CAM])
    pool.add_batch(AppScope.CAM, [ticket("a"), ticket("b")])
    pick = pool.select_next(AppScope.CAM, 0.0)
    pool.activate(AppScope.CAM, pick)
    for _ in range(5):
        nxt = pool.select_next(AppScope.CAM, 0.0)
        assert nxt.at_id != pool.active[AppScope.CAM].at_id
        pool.activate(AppScope.CAM, nxt)


def test_plan_change_is_atomic_across_scopes():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM, AppScope.DENM])
    pool.add_batch(AppScope.CAM, [ticket("c1"), ticket("c2"), ticket("c3")])
    pool.add_batch(AppScope.DENM, [ticket("d1"), ticket("d2")])
    for scope, tid in ((AppScope.CAM, "c1"), (AppScope.DENM, "d1")):
        pool.activate(scope, next(t for t in pool.valid_tickets(scope, 0.0) if t.at_id == tid))

    plan = plan_change(pool, now=0.0)
    assert {s: t.at_id for s, t in plan.items()} == {AppScope.CAM: "c2", AppScope.DENM: "d2"}
    for scope, pick in plan.items():
        pool.activate(scope, pick)

    # DENM is now exhausted; the whole change must refuse
    assert plan_change(pool, now=0.0) is None
    assert pool.active[AppScope.CAM].at_id == "c2"


def test_min_valid_count_spans_scopes():
    pool = PseudonymPool("no_reuse", 2, 5, [AppScope.CAM, AppScope.DENM])
    pool.add_batch(AppScope.CAM, [ticket("c1"), ticket("c2"), ticket("c3")])
    pool.add_batch(AppScope.DENM, [ticket("d1"), ticket("d2")])
    assert pool.min_valid_count(0.0) == 2
    assert pool.needs_replenish(AppScope.DENM, 0.0) is False
    assert pool.replenish_need(AppScope.DENM, 0.0) == 3


@pytest.mark.parametrize("selection", ["no_reuse", "round_robin"])
def test_steady_until_spans_the_cached_counts_above_the_floor(selection):
    pool = PseudonymPool(selection, 2, 5, [AppScope.CAM, AppScope.DENM])
    c1 = ticket("c1", 0.0, 10.0)
    pool.add_batch(AppScope.CAM, [c1, ticket("c2", 0.0, 8.0), ticket("c3", 4.0, 10.0)])
    pool.add_batch(AppScope.DENM, [ticket("d1", 0.0, 9.0), ticket("d2", 0.0, 9.0)])
    assert pool.min_valid_count(0.0) == 2 and pool.steady_until == 4.0  # c3 comes due
    assert pool.min_valid_count(4.0) == 2 and pool.steady_until == 8.0  # c2 lapses
    pool.add_batch(AppScope.DENM, [ticket("d3", 0.0, 5.0)])  # lapses inside that window
    assert pool.steady_until == -math.inf
    assert pool.min_valid_count(4.5) == 3 and pool.steady_until == 5.0
    pool.activate(AppScope.CAM, c1)
    assert pool.steady_until == -math.inf
    assert pool.min_valid_count(9.0) == 0 and pool.steady_until == -math.inf  # below the floor


_half_steps = st.integers(0, 24).map(lambda k: k / 2.0)  # hits validity edges exactly
_pool_ops = st.lists(
    st.one_of(
        # a batch issued at the clock: (valid_from offset, lifetime) per ticket
        st.tuples(
            st.just("add"),
            st.lists(st.tuples(st.integers(-4, 4).map(lambda k: k / 2.0), _half_steps.map(lambda x: x + 0.5)), min_size=1, max_size=4),
        ),
        st.tuples(st.just("change"), st.booleans()),  # True: at an earlier now
        st.tuples(st.just("query"), _half_steps),  # advance the clock, then query
        st.tuples(st.just("past"), _half_steps),  # query this far before the clock
        st.tuples(st.just("again"), st.none()),  # repeat the last query's now
    ),
    max_size=60,
)


@pytest.mark.ci_budget
@pytest.mark.parametrize("selection", ["no_reuse", "round_robin"])
@given(ops=_pool_ops, back=_half_steps)
@settings(max_examples=max(200, settings.default.max_examples))
def test_pool_matches_full_scan_reference(selection, ops, back):
    pool = PseudonymPool(selection, 2, 5, [AppScope.CAM])
    ref = ScanScope(selection)
    clock = 0.0
    issued = 0

    def ids(tickets):
        return [t.at_id for t in tickets]

    def agree(now):
        """Every query at ``now``; before the latest query each one raises."""
        nonlocal last, latest
        last = now
        if now < latest:
            for query in (lambda: pool.valid_count(AppScope.CAM, now),
                          lambda: pool.min_valid_count(now),
                          lambda: pool.needs_replenish(AppScope.CAM, now),
                          lambda: pool.valid_tickets(AppScope.CAM, now),
                          lambda: pool.select_next(AppScope.CAM, now)):
                with pytest.raises(PoolError):
                    query()
            return None
        latest = now
        # the counts first and twice: a cached count must match a fresh scan
        count = len(ref.valid_tickets(now))
        for _ in range(2):
            assert pool.valid_count(AppScope.CAM, now) == count
            assert pool.min_valid_count(now) == count
            assert pool.needs_replenish(AppScope.CAM, now) == (count < 2)
        assert ids(pool.valid_tickets(AppScope.CAM, now)) == ids(ref.valid_tickets(now))
        assert pool.valid_count(AppScope.CAM, now) == count
        pick, expected = pool.select_next(AppScope.CAM, now), ref.select_next(now)
        assert (pick and pick.at_id) == (expected and expected.at_id)
        return pick

    last, latest = clock, -math.inf
    for op, arg in ops:
        if op == "add":
            batch = []
            for offset, lifetime in arg:
                batch.append(ticket(f"t{issued}", clock + offset, clock + offset + lifetime))
                issued += 1
            pool.add_batch(AppScope.CAM, batch)
            ref.tickets.extend(batch)
        elif op == "change":
            pick = agree(max(0.0, clock - back) if arg else clock)
            if pick is not None:
                pool.activate(AppScope.CAM, pick)
                ref.activate(pick)
        elif op == "query":
            clock += arg
            agree(clock)
        elif op == "past":
            agree(clock - arg)
        else:
            agree(last)
    agree(clock)


@pytest.mark.parametrize("selection", ["no_reuse", "round_robin"])
def test_cached_count_sees_tickets_coming_due_and_retiring(selection):
    pool = PseudonymPool(selection, 2, 5, [AppScope.CAM])
    early, late = ticket("early", 0.0, 10.0), ticket("late", 2.0, 10.0)
    pool.add_batch(AppScope.CAM, [early, late])
    assert pool.valid_count(AppScope.CAM, 0.0) == 1
    assert pool.valid_count(AppScope.CAM, 1.9) == 1
    assert pool.valid_count(AppScope.CAM, 2.0) == 2  # "late" came due
    pool.activate(AppScope.CAM, early)
    pool.activate(AppScope.CAM, late)  # retires "early"
    assert pool.valid_count(AppScope.CAM, 3.0) == (1 if selection == "no_reuse" else 2)
    assert pool.valid_count(AppScope.CAM, 10.0) == 0
    with pytest.raises(PoolError):  # queries go forward only
        pool.valid_count(AppScope.CAM, 1.0)


def test_replenish_pool_via_core_respects_batch_cap():
    core = ServiceBasedCore(seed=2, config=SbaConfig(at_batch_cap=4))
    supi = Supi(b"\x01" * 16)
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)

    pool = PseudonymPool("no_reuse", 2, 10, [AppScope.CAM])
    added = replenish_pool(pool, AppScope.CAM, cert, core, now=0.0)
    assert added == 4  # capped per batch
    assert pool.valid_count(AppScope.CAM, 0.0) == 4
    added = replenish_pool(pool, AppScope.CAM, cert, core, now=0.0)
    assert added == 4
    # a full pool asks for nothing
    pool2 = PseudonymPool("no_reuse", 2, 3, [AppScope.CAM])
    replenish_pool(pool2, AppScope.CAM, cert, core, now=0.0)
    assert replenish_pool(pool2, AppScope.CAM, cert, core, now=0.0) == 0


# --- coordination ----------------------------------------------------------------


def cand(vid, last=0.0, ready=True, due=True, silent=False):
    return CoordinationCandidate(vid, last, ready, due, silent)


def test_coordinator_budget_and_ordering():
    candidates = [cand(1, last=50.0), cand(2, last=10.0), cand(3, last=10.0), cand(4, last=30.0)]
    # floor(0.5 * 4) = 2 commands; oldest changes first, then lower id
    assert coordinate_network_change(candidates, 0.5) == [2, 3]


def test_coordinator_counts_current_silence_against_budget():
    candidates = [cand(1), cand(2), cand(3, silent=True), cand(4, silent=True)]
    assert coordinate_network_change(candidates, 0.5) == []
    candidates = [cand(1), cand(2), cand(3, silent=True), cand(4)]
    assert coordinate_network_change(candidates, 0.5) == [1]


def test_coordinator_filters_not_ready_not_due():
    candidates = [cand(1, ready=False), cand(2, due=False), cand(3)]
    assert coordinate_network_change(candidates, 1.0) == [3]


def test_coordinator_edge_cases():
    assert coordinate_network_change([], 0.5) == []
    # floor(0.5 * 3) = 1
    assert coordinate_network_change([cand(1), cand(2), cand(3)], 0.5) == [1]
    assert coordinate_network_change([cand(1)], 0.3) == []
