"""Scenario configuration: JSON schema, strict validation, canonical form.

Configs are plain JSON: ``load_scenario`` takes a path to a JSON file (a
string is always a path) or the dict it holds. Validation is strict: unknown
fields are rejected and every violation is reported as ``field: message`` so
a bad file fails loudly and completely rather than one complaint at a time.
The canonical form (all defaults materialized, keys sorted) is what gets
digested into run summaries, so two configs that mean the same thing hash the
same.

Each field is stated once. Its default lives on its dataclass (the change
policies in ``strategy``, ``SbaConfig`` in ``sba``, the attacker's motion
model in ``adversary``, the rest here); its kind and bounds live in that
section's table in ``_SCHEMA``. One generic reader (``_read``) turns a JSON
section, a fleet row, a road segment, a lock event or a coverage post into
dataclass arguments from the two, and one generic walk
(``ScenarioConfig.canonical_dict``) turns the dataclasses back into plain
data. Rules that relate several fields are written out in
``load_scenario`` and its section parsers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Any, Collection, Optional, Union

from .adversary import CoveragePost, MotionModel
from .mobility import RoadNetwork, RoadNetworkError, RoadSegment
from .sba import TOKEN_SCHEMES, SbaConfig
from .strategy import (
    MAX_SINGLE_LOCK_S,
    ChangePolicy,
    NetworkTriggeredPolicy,
    PeriodicPolicy,
    SegmentPolicy,
    SynchronizedPolicy,
    SELECTION_NO_REUSE,
    SELECTION_ROUND_ROBIN,
)

MAX_CAM_FREQ_HZ = 10.0
MAX_TICKS = 10**7  # a run must end: round(duration_s / tick_s) may not exceed this
MAX_TICKETS = 10**4  # a pool's size and floor, and a provisioning batch, may not exceed this


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: int
    route: tuple[str, ...]
    speed_mps: float
    depart_s: float = 0.0
    length_m: float = 4.5
    width_m: float = 1.8
    clock_skew_s: float = 0.0


@dataclass(frozen=True)
class BeaconingConfig:
    cam_freq_hz: float = 10.0
    denm_interval_s: Optional[float] = None
    radio_range_m: float = 300.0
    ldm_timeout_s: float = 1.5
    positioning_sigma_m: float = 1.0
    loss_rate: float = 0.0


@dataclass(frozen=True)
class PolicyConfig:
    policy: ChangePolicy = field(default_factory=PeriodicPolicy)
    silence_s: float = 0.0
    notify_deactivation: bool = False


@dataclass(frozen=True)
class PoolConfig:
    size: int = 20
    min_concurrent_valid: int = 2
    selection: str = SELECTION_NO_REUSE


@dataclass(frozen=True)
class LockEvent:
    vehicle_id: int
    t: float
    app_id: str
    duration_s: float


@dataclass(frozen=True)
class LockConfig:
    renewal_threshold: int = 3
    validator_awareness_min: float = 0.8
    events: tuple[LockEvent, ...] = ()


@dataclass(frozen=True)
class AdversaryConfig(MotionModel):
    coverage: Union[str, tuple[CoveragePost, ...]] = "full"
    use_quasi_identifiers: bool = True
    anonymity_region_m: float = 500.0


@dataclass(kw_only=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int
    duration_s: float
    tick_s: float = 0.05
    road: RoadNetwork
    fleet: tuple[VehicleSpec, ...]
    beaconing: BeaconingConfig
    policy: PolicyConfig
    pool: PoolConfig
    sba: SbaConfig
    locks: LockConfig
    adversary: AdversaryConfig

    def canonical_dict(self) -> dict:
        """Fully-defaulted plain-dict form; key order fixed by json sort."""
        out = _plain(self)
        policy = out["policy"]
        policy.update(policy.pop("policy"), kind=self.policy.policy.kind)
        segments = sorted(self.road.segments.values(), key=lambda s: s.id)
        out["road"] = {"segments": [_plain(seg) for seg in segments]}
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """This config under another seed; only the seed needs validating."""
        ctx = _Ctx()
        seed = _field(_SCHEMA[ScenarioConfig]["seed"], {"seed": seed}, "seed", "", ctx)
        if ctx.violations:
            raise ConfigError(ctx.violations)
        return replace(self, seed=seed)


def _plain(value: Any) -> Any:
    """Dataclasses to dicts of their fields and tuples to lists, recursively."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    names = _names(type(value))
    return {n: _plain(getattr(value, n)) for n in names} if names else value


@functools.cache
def _names(cls: type) -> tuple[str, ...]:
    """The field names of a dataclass in order; empty for any other type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()


# --- field kinds ----------------------------------------------------------------


class _Invalid(Exception):
    pass


class _Kind:
    """How a table row reads one JSON value: a type check, then bounds."""

    null_is_default = False  # whether null reads as an absent field
    missing = "required"  # the violation for an absent field without a default

    def __init__(self, *, gt=None, ge=None, le=None):
        self.bounds = [(op, b) for op, b in ((">", gt), (">=", ge), ("<=", le)) if b is not None]

    def parse(self, value):
        value = self.convert(value)
        for op, bound in self.bounds:
            if not _HOLDS[op](value, bound):
                raise _Invalid(f"must be {op} {bound}")
        return value


class _Num(_Kind):
    """A finite number, stored as float."""

    null_is_default = True

    def convert(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _Invalid("must be a number")
        value = float(value)
        if not math.isfinite(value):
            raise _Invalid("must be finite")
        return value


class _Int(_Kind):
    def convert(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Invalid("must be an integer")
        return value


class _Bool(_Kind):
    def convert(self, value):
        if not isinstance(value, bool):
            raise _Invalid("must be a boolean")
        return value


class _Choice(_Kind):
    def __init__(self, *choices: str):
        super().__init__()
        self.choices = choices

    def convert(self, value):
        if not isinstance(value, str) or value not in self.choices:
            raise _Invalid(f"must be one of {list(self.choices)}")
        return value


class _Text(_Kind):
    """A non-empty string."""

    missing = "must be a non-empty string"

    def convert(self, value):
        if not isinstance(value, str) or not value:
            raise _Invalid(self.missing)
        return value


class _Point(_Kind):
    """An [x, y] pair of finite numbers, stored as a tuple."""

    missing = "must be an [x, y] pair of finite numbers"

    def convert(self, value):
        if not isinstance(value, list) or len(value) != 2:
            raise _Invalid(self.missing)
        try:
            return tuple(_Num().convert(v) for v in value)
        except _Invalid:
            raise _Invalid(self.missing) from None


class _Route(_Kind):
    """A non-empty array of segment ids, stored as a tuple."""

    missing = "must be a non-empty array of segment ids"

    def convert(self, value):
        if not isinstance(value, list) or not value or not all(isinstance(s, str) for s in value):
            raise _Invalid(self.missing)
        return tuple(value)


_HOLDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

_POLICIES = {
    cls.kind: cls
    for cls in (PeriodicPolicy, SegmentPolicy, SynchronizedPolicy, NetworkTriggeredPolicy)
}

# One table per section: field name -> kind and bounds. Fields without a row
# (lock events, coverage, the policy object) are parsed by hand.
_SCHEMA: dict[type, dict[str, _Kind]] = {
    ScenarioConfig: {
        "name": _Text(),
        "seed": _Int(ge=0),
        "duration_s": _Num(gt=0.0),
        "tick_s": _Num(gt=0.0),
    },
    RoadSegment: {
        "id": _Text(),
        "start": _Point(),
        "end": _Point(),
        "speed_limit_mps": _Num(gt=0.0),
    },
    VehicleSpec: {
        "vehicle_id": _Int(ge=0),
        "route": _Route(),
        "speed_mps": _Num(gt=0.0),
        "depart_s": _Num(ge=0.0),
        # far below where the attacker's quasi-identifier key, metres / 0.01, overflows
        "length_m": _Num(gt=0.0, le=1e6),
        "width_m": _Num(gt=0.0, le=1e6),
        "clock_skew_s": _Num(),
    },
    BeaconingConfig: {
        "cam_freq_hz": _Num(gt=0.0, le=MAX_CAM_FREQ_HZ),
        "denm_interval_s": _Num(gt=0.0),  # defaults to None, so null keeps DENMs off
        "radio_range_m": _Num(gt=0.0),
        "ldm_timeout_s": _Num(gt=0.0),
        "positioning_sigma_m": _Num(ge=0.0, le=1e6),  # far below where a position overflows
        "loss_rate": _Num(ge=0.0, le=0.999),
    },
    PolicyConfig: {"silence_s": _Num(ge=0.0), "notify_deactivation": _Bool()},
    PeriodicPolicy: {"interval_s": _Num(gt=0.0)},
    SegmentPolicy: {
        "second_change_min_m": _Num(gt=0.0),
        "second_change_max_m": _Num(gt=0.0),
        "subsequent_min_distance_m": _Num(gt=0.0),
        "subsequent_time_min_s": _Num(gt=0.0),
        "subsequent_time_max_s": _Num(gt=0.0),
    },
    SynchronizedPolicy: {"interval_s": _Num(gt=0.0), "window_s": _Num(gt=0.0)},
    NetworkTriggeredPolicy: {
        "min_interval_s": _Num(gt=0.0),
        "coordination_interval_s": _Num(gt=0.0),
        "max_silent_fraction": _Num(ge=0.0, le=1.0),
    },
    PoolConfig: {
        "size": _Int(ge=1, le=MAX_TICKETS),
        "min_concurrent_valid": _Int(ge=2, le=MAX_TICKETS),
        "selection": _Choice(SELECTION_NO_REUSE, SELECTION_ROUND_ROBIN),
    },
    SbaConfig: {
        "token_ttl_s": _Num(gt=0.0),
        "sig_scheme": _Choice(*TOKEN_SCHEMES),
        "ec_lifetime_s": _Num(gt=0.0),
        "at_lifetime_s": _Num(gt=0.0),
        "at_stagger_s": _Num(ge=0.0),
        "at_batch_cap": _Int(ge=1, le=MAX_TICKETS),
    },
    LockConfig: {"renewal_threshold": _Int(ge=1), "validator_awareness_min": _Num(ge=0.0, le=1.0)},
    LockEvent: {
        "vehicle_id": _Int(ge=0),
        "t": _Num(ge=0.0),
        "app_id": _Text(),
        "duration_s": _Num(gt=0.0, le=MAX_SINGLE_LOCK_S),
    },
    AdversaryConfig: {
        "sigma0_m": _Num(ge=1e-6),  # far above where sigma * sigma underflows to 0
        "beta_m_per_s": _Num(ge=0.0),
        "no_match_cost": _Num(ge=1e-6),  # far above where a grid unit, it / 2**30, underflows to 0
        "max_gap_s": _Num(gt=0.0),
        "use_quasi_identifiers": _Bool(),
        "anonymity_region_m": _Num(gt=0.0),
    },
    CoveragePost: {"x": _Num(), "y": _Num(), "radius_m": _Num(gt=0.0)},
}


# --- reading ----------------------------------------------------------------------


class _Ctx:
    def __init__(self):
        self.violations: list[str] = []

    def err(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")


def _join(path: str, key: str) -> str:
    # top-level fields have an empty parent path
    return f"{path}.{key}" if path else key


def _section(obj: Any, path: str, allowed: Collection[str], ctx: _Ctx) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        ctx.err(path, "must be an object")
        return {}
    for key in sorted(obj):
        if key not in allowed:
            ctx.err(_join(path, key), "unknown field")
    return obj


def _field(kind: _Kind, obj: dict, key: str, path: str, ctx: _Ctx, default=MISSING):
    """One value read by its table row; on error, the default (None if there is none)."""
    fallback = None if default is MISSING else default
    if key not in obj or (obj[key] is None and kind.null_is_default):
        if default is MISSING:
            ctx.err(_join(path, key), kind.missing)
        return fallback
    try:
        return kind.parse(obj[key])
    except _Invalid as exc:
        ctx.err(_join(path, key), str(exc))
        return fallback


@functools.cache
def _rows(cls: type) -> tuple[tuple[str, _Kind, Any], ...]:
    """Name, kind and default of each field of ``cls`` that its table lists."""
    table = _SCHEMA[cls]
    return tuple((f.name, table[f.name], f.default) for f in fields(cls) if f.name in table)


def _values(cls: type, obj: dict, path: str, ctx: _Ctx) -> dict:
    """Keyword arguments for ``cls`` from its table's fields."""
    return {
        name: _field(kind, obj, name, path, ctx, default)
        for name, kind, default in _rows(cls)
    }


def _read(cls: type, obj: Any, path: str, ctx: _Ctx) -> dict:
    """Reject the unknown fields of a section, then read its table's fields."""
    return _values(cls, _section(obj, path, _names(cls), ctx), path, ctx)


def tick_of(t: float, tick_s: float) -> float:
    """The tick ``t`` rounds to, in validation and the engine's schedules alike;
    inf where ``t / tick_s`` overflows."""
    ticks = t / tick_s
    return round(ticks) if math.isfinite(ticks) else ticks


def _in_run(t: float, duration_s: float, tick_s: float) -> bool:
    """Whether ``t`` falls on one of the ``round(duration_s / tick_s)`` ticks run."""
    if t >= duration_s:
        return False
    end = tick_of(duration_s, tick_s)
    # a tick longer than the run, or too short to count, is reported on its own
    return tick_s > duration_s or math.isinf(end) or tick_of(t, tick_s) < end


def _parse_policy(obj: Optional[dict], ctx: _Ctx) -> PolicyConfig:
    shared = {"kind"} | set(_SCHEMA[PolicyConfig])
    own = {name for cls in _POLICIES.values() for name in _names(cls)}
    obj = _section(obj, "policy", shared | own, ctx)
    kind = _field(_Choice(*_POLICIES), obj, "kind", "policy", ctx, PolicyConfig().policy.kind)
    cls = _POLICIES[kind]
    for key in sorted(set(obj) - set(_names(cls)) - shared):
        ctx.err(f"policy.{key}", f"not a {kind} policy field")
    policy = cls(**_values(cls, obj, "policy", ctx))
    if isinstance(policy, SegmentPolicy):
        if policy.second_change_max_m < policy.second_change_min_m:
            ctx.err("policy.second_change_max_m", "must be >= second_change_min_m")
        if policy.subsequent_time_max_s < policy.subsequent_time_min_s:
            ctx.err("policy.subsequent_time_max_s", "must be >= subsequent_time_min_s")
    return PolicyConfig(policy=policy, **_values(PolicyConfig, obj, "policy", ctx))


def _parse_road(obj: Optional[dict], ctx: _Ctx) -> Optional[RoadNetwork]:
    obj = _section(obj, "road", {"segments"}, ctx)
    rows = obj.get("segments")
    if not isinstance(rows, list) or not rows:
        ctx.err("road.segments", "must be a non-empty array")
        return None
    segments = [_read(RoadSegment, row, f"road.segments[{i}]", ctx) for i, row in enumerate(rows)]
    if ctx.violations:
        # cheap structural errors first; skip network build on broken input
        return None
    try:
        return RoadNetwork.build(RoadSegment(**seg) for seg in segments)
    except RoadNetworkError as exc:
        ctx.err("road", str(exc))
        return None


def _parse_fleet(
    rows: Any, road: Optional[RoadNetwork], duration_s: Optional[float], tick_s: float, ctx: _Ctx
) -> tuple[VehicleSpec, ...]:
    if not isinstance(rows, list) or not rows:
        ctx.err("fleet", "must be a non-empty array")
        return ()
    fleet = []
    seen: set[int] = set()
    for i, row in enumerate(rows):
        path = f"fleet[{i}]"
        spec = _read(VehicleSpec, row, path, ctx)
        vid, route = spec["vehicle_id"], spec["route"]
        whole = None not in spec.values()
        if vid in seen:
            ctx.err(f"{path}.vehicle_id", f"duplicate vehicle id {vid}")
            whole = False
        elif vid is not None:
            seen.add(vid)
        if road is not None and route is not None:
            try:
                road.validate_route(route)
            except RoadNetworkError as exc:
                ctx.err(f"{path}.route", str(exc))
                whole = False
        if duration_s is not None and not _in_run(spec["depart_s"], duration_s, tick_s):
            ctx.err(f"{path}.depart_s", "must be before the end of the run")
        if whole:
            fleet.append(VehicleSpec(**spec))
    return tuple(fleet)


def _parse_locks(
    obj: Optional[dict], fleet: tuple[VehicleSpec, ...], duration_s: Optional[float],
    tick_s: float, ctx: _Ctx,
) -> LockConfig:
    obj = _section(obj, "locks", _names(LockConfig), ctx)
    rows = obj.get("events", [])
    if not isinstance(rows, list):
        ctx.err("locks.events", "must be an array")
        rows = []
    departs = {v.vehicle_id: tick_of(v.depart_s, tick_s) for v in fleet}
    events = []
    for i, row in enumerate(rows):
        path = f"locks.events[{i}]"
        ev = _read(LockEvent, row, path, ctx)
        vid = ev["vehicle_id"]
        if vid is not None and fleet and vid not in departs:
            ctx.err(f"{path}.vehicle_id", f"no such vehicle {vid}")
        elif None in ev.values():
            continue
        elif duration_s is not None and not _in_run(ev["t"], duration_s, tick_s):
            ctx.err(f"{path}.t", "must be before the end of the run")
        elif vid in departs and tick_of(ev["t"], tick_s) < departs[vid]:
            ctx.err(f"{path}.t", f"must not be before vehicle {vid} departs")
        else:
            events.append(LockEvent(**ev))
    return LockConfig(events=tuple(events), **_values(LockConfig, obj, "locks", ctx))


def _parse_adversary(obj: Optional[dict], ctx: _Ctx) -> AdversaryConfig:
    obj = _section(obj, "adversary", _names(AdversaryConfig), ctx)
    coverage = obj.get("coverage", "full")
    if isinstance(coverage, list):
        coverage = tuple(
            CoveragePost(**_read(CoveragePost, row, f"adversary.coverage[{i}]", ctx))
            for i, row in enumerate(coverage)
        )
    elif coverage != "full":
        ctx.err("adversary.coverage", 'must be "full" or an array of posts')
        coverage = "full"
    return AdversaryConfig(coverage=coverage, **_values(AdversaryConfig, obj, "adversary", ctx))


def read_json(path: Union[str, os.PathLike]) -> Any:
    """The JSON value in the file at ``path``; bad UTF-8 or JSON is a ``ConfigError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"json: {exc}"]) from exc


def load_scenario(source: Union[str, os.PathLike, dict]) -> ScenarioConfig:
    """Parse and validate a scenario from a path or a dict.

    Raises ``ConfigError`` listing every violation when anything is wrong.
    """
    raw = source if isinstance(source, dict) else read_json(source)
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])

    ctx = _Ctx()
    top = _read(ScenarioConfig, raw, "", ctx)
    duration_s, tick_s = top["duration_s"], top["tick_s"]
    if duration_s is not None and tick_s > duration_s:
        ctx.err("tick_s", "must not exceed duration_s")
    elif duration_s is not None and not tick_of(duration_s, tick_s) <= MAX_TICKS:
        ctx.err("tick_s", f"must leave at most {MAX_TICKS} ticks in duration_s")

    road = _parse_road(raw.get("road"), ctx)
    fleet = _parse_fleet(raw.get("fleet"), road, duration_s, tick_s, ctx)

    beaconing = BeaconingConfig(**_read(BeaconingConfig, raw.get("beaconing"), "beaconing", ctx))
    ratio = (1.0 / beaconing.cam_freq_hz) / tick_s
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        ctx.err("beaconing.cam_freq_hz", "beacon period must be a whole number of ticks")

    pool = PoolConfig(**_read(PoolConfig, raw.get("pool"), "pool", ctx))
    if pool.size < pool.min_concurrent_valid:
        ctx.err("pool.size", "must be >= min_concurrent_valid")

    policy = _parse_policy(raw.get("policy"), ctx)
    if not tick_of(policy.silence_s, tick_s) <= MAX_TICKS:  # it outlasts every run
        ctx.err("policy.silence_s", f"must last at most {MAX_TICKS} ticks")

    config = ScenarioConfig(
        road=road,
        fleet=fleet,
        beaconing=beaconing,
        policy=policy,
        pool=pool,
        sba=SbaConfig(**_read(SbaConfig, raw.get("sba"), "sba", ctx)),
        locks=_parse_locks(raw.get("locks"), fleet, duration_s, tick_s, ctx),
        adversary=_parse_adversary(raw.get("adversary"), ctx),
        **top,
    )
    if ctx.violations:
        raise ConfigError(sorted(ctx.violations))
    return config
