"""Road network, vehicle kinematics and trip bookkeeping.

Geometry is 2D planar, metres. Roads are polylines of straight segments;
vehicles follow a route (an ordered list of segment ids) at the speed the
engine hands them each step. There is no lane model and no car-following;
trajectories only need to be plausible enough to carry identifiers around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

Point = tuple[float, float]

_JOIN_TOL = 1e-9


@dataclass(frozen=True)
class RoadSegment:
    id: str
    start: Point
    end: Point
    speed_limit_mps: float

    @cached_property
    def length_m(self) -> float:
        return math.dist(self.start, self.end)

    @cached_property
    def direction(self) -> Point:
        # unit vector; zero-length segments are rejected at network build
        dx = self.end[0] - self.start[0]
        dy = self.end[1] - self.start[1]
        n = math.hypot(dx, dy)
        return (dx / n, dy / n)


class RoadNetworkError(ValueError):
    pass


@dataclass
class RoadNetwork:
    """Validated set of segments addressable by id."""

    segments: dict[str, RoadSegment]

    @staticmethod
    def build(segments: Iterable[RoadSegment]) -> "RoadNetwork":
        by_id: dict[str, RoadSegment] = {}
        for seg in segments:
            if seg.id in by_id:
                raise RoadNetworkError(f"duplicate segment id {seg.id!r}")
            if seg.length_m <= 0.0:
                raise RoadNetworkError(f"segment {seg.id!r} has zero length")
            if seg.length_m == math.inf:  # math.dist overflows; the direction would be NaN
                raise RoadNetworkError(f"segment {seg.id!r} is too long to measure")
            if seg.speed_limit_mps <= 0.0:
                raise RoadNetworkError(f"segment {seg.id!r} speed limit must be positive")
            by_id[seg.id] = seg
        if not by_id:
            raise RoadNetworkError("network has no segments")
        return RoadNetwork(segments=by_id)

    @cached_property
    def extent_m(self) -> float:
        """The largest coordinate magnitude of any segment end."""
        return max(abs(c) for seg in self.segments.values() for c in (*seg.start, *seg.end))

    def validate_route(self, route: Sequence[str]) -> None:
        """A route must exist and be contiguous end-to-start."""
        if not route:
            raise RoadNetworkError("route is empty")
        for sid in route:
            if sid not in self.segments:
                raise RoadNetworkError(f"route references unknown segment {sid!r}")
        for prev, nxt in zip(route, route[1:]):
            a = self.segments[prev].end
            b = self.segments[nxt].start
            if math.dist(a, b) > _JOIN_TOL:
                raise RoadNetworkError(
                    f"route break between {prev!r} and {nxt!r}: {a} vs {b}"
                )


@dataclass
class Kinematics:
    position: Point
    velocity: Point


@dataclass
class RouteCursor:
    """Position along a route, advanced in distance increments."""

    network: RoadNetwork
    route: tuple[str, ...]
    seg_index: int = 0
    offset_m: float = 0.0
    done: bool = False

    def __post_init__(self):
        self.network.validate_route(self.route)

    @property
    def segment(self) -> RoadSegment:
        return self.network.segments[self.route[self.seg_index]]

    def position(self) -> Point:
        seg = self.segment
        d = seg.direction
        return (seg.start[0] + d[0] * self.offset_m, seg.start[1] + d[1] * self.offset_m)

    def advance(self, distance_m: float) -> float:
        """Move forward, spilling over segment ends; returns distance moved.

        The cursor clamps at the end of the final segment and flips ``done``;
        the returned value is then shorter than requested.
        """
        if distance_m < 0.0:
            raise ValueError("cannot advance backwards")
        moved = 0.0
        remaining = distance_m
        while remaining > 0.0 and not self.done:
            seg_len = self.segment.length_m
            room = seg_len - self.offset_m
            if remaining < room:
                self.offset_m += remaining
                moved += remaining
                remaining = 0.0
            else:
                moved += room
                remaining -= room
                if self.seg_index + 1 < len(self.route):
                    self.seg_index += 1
                    self.offset_m = 0.0
                else:
                    self.offset_m = seg_len
                    self.done = True
        return moved


def step_kinematics(cursor: RouteCursor, speed_mps: float, dt_s: float) -> tuple[Kinematics, float]:
    """Advance one tick at the given speed; returns new state and metres moved."""
    moved = cursor.advance(speed_mps * dt_s)
    d = cursor.segment.direction
    vel = (0.0, 0.0) if cursor.done else (d[0] * speed_mps, d[1] * speed_mps)
    return Kinematics(position=cursor.position(), velocity=vel), moved


class Leg(NamedTuple):
    """A cursor's current segment, the metres a tick moves on it and the velocity."""

    segment: RoadSegment
    step: float
    velocity: Point


def leg_of(cursor: RouteCursor, speed_mps: float, dt_s: float) -> Leg:
    """The cursor's leg at ``speed_mps`` capped by the segment's speed limit."""
    seg = cursor.segment
    speed, d = min(speed_mps, seg.speed_limit_mps), seg.direction
    return Leg(seg, speed * dt_s, (d[0] * speed, d[1] * speed))


def step_on_leg(cursor: RouteCursor, leg: Leg) -> Optional[Point]:
    """``step_kinematics``'s float operations, in its order, on a tick inside the leg:
    the new position, or None, moving nothing, on the tick that reaches its end."""
    seg = leg.segment
    if not leg.step < seg.length_m - cursor.offset_m:
        return None
    cursor.offset_m += leg.step
    d, offset = seg.direction, cursor.offset_m
    return (seg.start[0] + d[0] * offset, seg.start[1] + d[1] * offset)


@dataclass
class TripState:
    """Odometers the change policies consult. Distances in metres, times in seconds."""

    odometer_trip_m: float = 0.0
    odometer_since_change_m: float = 0.0
    time_since_change_s: float = 0.0
    changes_this_trip: int = 0

    def advance(self, distance_m: float, dt_s: float) -> None:
        self.odometer_trip_m += distance_m
        self.odometer_since_change_m += distance_m
        self.time_since_change_s += dt_s

    def note_change(self) -> None:
        self.odometer_since_change_m = 0.0
        self.time_since_change_s = 0.0
        self.changes_this_trip += 1


def region_query(
    positions: Mapping[int, Point], center: Point, radius_m: float
) -> list[int]:
    """Ids of vehicles within the closed ball, ascending, self included if present."""
    out = [
        vid
        for vid, pos in positions.items()
        if math.dist(pos, center) <= radius_m
    ]
    return sorted(out)


def kinetic_neighbor_lists(
    positions: Mapping[int, Point], reach: Mapping[int, float], radius_m: float, extent_m: float
) -> tuple[dict[int, list[int]], float]:
    """Each vehicle's peers within range, and how many more ticks that holds.

    Peers lie within the closed ball, ascending, self excluded. Each pair is
    measured once: ``math.dist`` is symmetric, so each list equals
    ``region_query`` around that vehicle over the others.

    ``reach`` bounds each vehicle's move per tick, ``extent_m`` the road's
    coordinates (``RoadNetwork.extent_m``). A pair at distance ``d`` cannot
    cross ``radius_m`` within ``k`` ticks while ``k * (reach_a + reach_b +
    margin) <= |d - radius_m| - margin``: the safe horizon of kinetic data
    structures. The margin, 1e-7 of ``1 m + radius_m + extent_m``, absorbs
    float rounding, which grows with the coordinates, and segment joins up to
    1e-9 m apart. The horizon is 0 where the margin eats a pair's slack.
    """
    margin = 1e-7 * (1.0 + radius_m + extent_m)
    ids = sorted(positions)
    out: dict[int, list[int]] = {vid: [] for vid in ids}
    dist = math.dist
    horizon = math.inf  # fewer than two vehicles: no pair can cross
    for i, a in enumerate(ids):
        pa, ra, near_a = positions[a], reach[a] + margin, out[a]
        for b in ids[i + 1:]:
            d = dist(pa, positions[b])
            if d <= radius_m:
                near_a.append(b)
                out[b].append(a)
            ticks = (abs(d - radius_m) - margin) / (ra + reach[b])
            if ticks < horizon:
                horizon = ticks
    return out, horizon if horizon == math.inf else max(0, math.floor(horizon))


def positioning_noise(
    position: Point, sigma_m: float, rng: np.random.Generator
) -> Point:
    """Gaussian measurement error. sigma 0 is exact and consumes no randomness."""
    if sigma_m == 0.0:
        return position
    dx, dy = rng.normal(0.0, sigma_m, size=2)
    return (position[0] + dx, position[1] + dy)
