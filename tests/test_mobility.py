import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import neighbor_lists
from pseudosim.mobility import (
    RoadNetwork,
    RoadNetworkError,
    RoadSegment,
    RouteCursor,
    TripState,
    kinetic_neighbor_lists,
    leg_of,
    positioning_noise,
    region_query,
    step_kinematics,
    step_on_leg,
)


def two_segment_network():
    return RoadNetwork.build([
        RoadSegment("a", (0.0, 0.0), (100.0, 0.0), 30.0),
        RoadSegment("b", (100.0, 0.0), (100.0, 50.0), 20.0),
    ])


def test_segment_geometry():
    seg = RoadSegment("s", (0.0, 0.0), (3.0, 4.0), 10.0)
    assert seg.length_m == 5.0
    assert seg.direction == (0.6, 0.8)


def test_build_rejects_bad_networks():
    with pytest.raises(RoadNetworkError, match="no segments"):
        RoadNetwork.build([])
    with pytest.raises(RoadNetworkError, match="duplicate"):
        RoadNetwork.build([
            RoadSegment("a", (0, 0), (1, 0), 10.0),
            RoadSegment("a", (1, 0), (2, 0), 10.0),
        ])
    with pytest.raises(RoadNetworkError, match="zero length"):
        RoadNetwork.build([RoadSegment("a", (1, 1), (1, 1), 10.0)])
    with pytest.raises(RoadNetworkError, match="speed limit"):
        RoadNetwork.build([RoadSegment("a", (0, 0), (1, 0), 0.0)])


def test_validate_route():
    net = two_segment_network()
    net.validate_route(["a", "b"])
    with pytest.raises(RoadNetworkError, match="unknown segment"):
        net.validate_route(["a", "zz"])
    with pytest.raises(RoadNetworkError, match="route break"):
        net.validate_route(["b", "a"])
    with pytest.raises(RoadNetworkError, match="empty"):
        net.validate_route([])


def test_cursor_spillover_and_done():
    net = two_segment_network()
    cur = RouteCursor(net, ("a", "b"))
    assert cur.position() == (0.0, 0.0)

    moved = cur.advance(130.0)  # 100 on "a", 30 into "b"
    assert moved == 130.0
    assert cur.seg_index == 1
    assert cur.offset_m == 30.0
    assert cur.position() == (100.0, 30.0)
    assert not cur.done

    moved = cur.advance(100.0)  # only 20 m of road left
    assert moved == 20.0
    assert cur.done
    assert cur.position() == (100.0, 50.0)

    assert cur.advance(10.0) == 0.0  # parked


def test_cursor_rejects_negative_advance():
    cur = RouteCursor(two_segment_network(), ("a",))
    with pytest.raises(ValueError):
        cur.advance(-1.0)


def test_cursor_validates_route_on_build():
    with pytest.raises(RoadNetworkError):
        RouteCursor(two_segment_network(), ("b", "a"))


def test_step_kinematics():
    net = two_segment_network()
    cur = RouteCursor(net, ("a", "b"))
    kin, moved = step_kinematics(cur, 10.0, 0.5)
    assert moved == 5.0
    assert kin.position == (5.0, 0.0)
    assert kin.velocity == (10.0, 0.0)
    assert math.hypot(*kin.velocity) == 10.0

    # velocity turns with the segment
    cur.advance(95.0)
    kin, _ = step_kinematics(cur, 10.0, 0.5)
    assert kin.velocity == (0.0, 10.0)

    # parked vehicles report zero velocity
    cur.advance(1000.0)
    kin, moved = step_kinematics(cur, 10.0, 0.5)
    assert moved == 0.0
    assert kin.velocity == (0.0, 0.0)


@st.composite
def _routes(draw):
    """A route of 1-4 segments at any angle, some shorter than a tick's move.

    Each limit lies below, at or above the spec speed; the tick is 0.1 s or
    1/3 s, neither of them dyadic.
    """
    speed = draw(st.floats(2.0, 40.0))
    x, y = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    segments = []
    for i in range(draw(st.integers(1, 4))):
        angle, length = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.05, 30.0))
        end = (x + length * math.cos(angle), y + length * math.sin(angle))
        limit = speed * draw(st.sampled_from([0.5, 1.0, 1.5])) * draw(st.floats(0.9, 1.1))
        segments.append(RoadSegment(f"s{i}", (x, y), end, limit))
        x, y = end
    network = RoadNetwork.build(segments)
    return network, tuple(seg.id for seg in segments), speed, draw(st.sampled_from([0.1, 1 / 3]))


def _bits(*values):
    return [float.hex(v) for v in values]


@given(_routes())
def test_step_on_leg_equals_step_kinematics(case):
    """The engine's legs move a vehicle bit for bit as ``step_kinematics`` alone does.

    Along a leg ``step_on_leg`` moves the cursor; on the tick that reaches the
    segment's end ``step_kinematics`` crosses it and a new leg starts, until
    the route ends.
    """
    network, route, speed, tick_s = case
    alone, kept = RouteCursor(network, route), RouteCursor(network, route)
    leg = leg_of(kept, speed, tick_s)
    crossings = 0
    while not alone.done:
        want, want_moved = step_kinematics(alone, min(speed, alone.segment.speed_limit_mps), tick_s)
        pos = step_on_leg(kept, leg)
        if pos is None:
            got, moved = step_kinematics(kept, min(speed, leg.segment.speed_limit_mps), tick_s)
            pos, velocity = got.position, got.velocity
            crossings += 1
            leg = leg_of(kept, speed, tick_s)
        else:
            velocity, moved = leg.velocity, leg.step
        assert _bits(*pos, *velocity, moved) == _bits(*want.position, *want.velocity, want_moved)
        assert (kept.seg_index, kept.done) == (alone.seg_index, alone.done)
        assert _bits(kept.offset_m) == _bits(alone.offset_m)
    assert kept.done and crossings <= len(route)


def test_trip_state_odometers():
    trip = TripState()
    trip.advance(10.0, 1.0)
    trip.advance(10.0, 1.0)
    assert trip.odometer_trip_m == 20.0
    assert trip.odometer_since_change_m == 20.0
    assert trip.time_since_change_s == 2.0

    trip.note_change()
    assert trip.changes_this_trip == 1
    assert trip.odometer_trip_m == 20.0  # trip odometer survives the change
    assert trip.odometer_since_change_m == 0.0
    assert trip.time_since_change_s == 0.0


def test_region_query_closed_ball():
    positions = {3: (3.0, 4.0), 1: (0.0, 0.0), 2: (10.0, 0.0)}
    # (3,4) is at distance exactly 5: included
    assert region_query(positions, (0.0, 0.0), 5.0) == [1, 3]
    assert region_query(positions, (0.0, 0.0), 4.9) == [1]
    assert region_query({}, (0.0, 0.0), 5.0) == []


# integer coordinates put many pairs at exactly the radius (3-4-5 triangles)
_coords = st.tuples(st.integers(-12, 12).map(float), st.integers(-12, 12).map(float))


@given(
    positions=st.dictionaries(st.integers(0, 30), _coords, max_size=12),
    radius=st.sampled_from([0.0, 1.0, 5.0, 7.5, 10.0]),
)
@settings(max_examples=200)
def test_neighbor_lists_match_region_query(positions, radius):
    lists, _ = kinetic_neighbor_lists(positions, dict.fromkeys(positions, 1.0), radius, 12.0)
    assert sorted(lists) == sorted(positions)
    for vid, pos in positions.items():
        others = {k: p for k, p in positions.items() if k != vid}
        assert lists[vid] == region_query(others, pos, radius)
    assert neighbor_lists(positions, radius) == lists  # the reference agrees


# --- neighbour lists kept for their safe horizon ------------------------------------


@pytest.mark.parametrize("base", [0.0, 1234.5, 1e6])
@pytest.mark.parametrize("radius", [300.0, 7.25])
def test_horizon_is_zero_on_and_next_to_the_range(base, radius):
    exact = base + radius
    for x, inside in [
        (exact, True),
        (math.nextafter(exact, -math.inf), True),
        (math.nextafter(exact, math.inf), False),
    ]:
        positions = {1: (base, -base), 2: (x, -base)}
        lists, safe_ticks = kinetic_neighbor_lists(positions, {1: 1.0, 2: 1.0}, radius, 2e6)
        assert lists == neighbor_lists(positions, radius)
        assert lists[1] == ([2] if inside else [])
        assert safe_ticks == 0  # within the float margin of the range


def test_horizon_counts_whole_ticks_of_approach():
    # 40 m of slack closing at up to 2 x 5 m per tick: 3 whole ticks, not 4
    lists, safe_ticks = kinetic_neighbor_lists({1: (0.0, 0.0), 2: (140.0, 0.0)},
                                               {1: 5.0, 2: 5.0}, 100.0, 1000.0)
    assert lists == {1: [], 2: []}
    assert safe_ticks == 3
    assert kinetic_neighbor_lists({1: (0.0, 0.0)}, {1: 5.0}, 100.0, 0.0)[1] == math.inf


@st.composite
def _trajectories(draw):
    """Vehicles on their own random polylines, up to 1e6 m from the origin.

    Speed limits below a vehicle's speed slow it on some legs. The radius is
    random, or exactly the first two vehicles' starting distance, or one ulp
    either side of it.
    """
    tick_s = draw(st.sampled_from([0.05, 0.1, 0.5]))
    scale = draw(st.sampled_from([0.0, 1e3, 1e6]))
    segments, routes, speeds = [], {}, {}
    for vid in range(draw(st.integers(2, 6))):
        x = draw(st.floats(-scale, scale)) if scale else 0.0
        y = draw(st.floats(-scale, scale)) if scale else 0.0
        route = []
        for leg in range(draw(st.integers(1, 4))):
            angle = draw(st.floats(0.0, 2 * math.pi))
            length = draw(st.floats(1.0, 300.0))
            end = (x + length * math.cos(angle), y + length * math.sin(angle))
            sid = f"{vid}-{leg}"
            segments.append(RoadSegment(sid, (x, y), end, draw(st.floats(1.0, 40.0))))
            route.append(sid)
            x, y = end
        routes[vid] = tuple(route)
        speeds[vid] = draw(st.floats(0.5, 40.0))
    network = RoadNetwork.build(segments)
    cursors = {vid: RouteCursor(network, route) for vid, route in routes.items()}
    start = math.dist(cursors[0].position(), cursors[1].position())
    radius = draw(st.one_of(
        st.floats(1.0, 400.0),
        st.sampled_from([start, math.nextafter(start, 0.0), math.nextafter(start, math.inf)]),
    ))
    return network, cursors, speeds, tick_s, max(radius, 1e-3)


@given(_trajectories(), st.integers(20, 120))
@settings(max_examples=200)
def test_kept_neighbor_lists_match_fresh_ones(case, n_ticks):
    network, cursors, speeds, tick_s, radius = case
    reach = {vid: speed * tick_s for vid, speed in speeds.items()}
    until = -1
    for tick in range(n_ticks):
        if tick:
            for vid, cur in cursors.items():
                step_kinematics(cur, min(speeds[vid], cur.segment.speed_limit_mps), tick_s)
        positions = {vid: cur.position() for vid, cur in cursors.items()}
        if tick > until:
            kept, safe_ticks = kinetic_neighbor_lists(positions, reach, radius, network.extent_m)
            until = tick + safe_ticks
        assert kept == neighbor_lists(positions, radius), tick


def test_positioning_noise_sigma_zero_consumes_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert positioning_noise((1.0, 2.0), 0.0, rng) == (1.0, 2.0)
    assert rng.bit_generator.state == before


def test_positioning_noise_deterministic():
    a = positioning_noise((0.0, 0.0), 1.0, np.random.default_rng(7))
    b = positioning_noise((0.0, 0.0), 1.0, np.random.default_rng(7))
    assert a == b
    assert a != (0.0, 0.0)
