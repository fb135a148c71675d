"""A scenario that passes validation runs to completion, whatever its numbers.

``load_scenario`` is the one gate: a config it accepts must neither crash
nor hang the engine. The property test takes a small generated scenario
(``test_differential.scenarios``) and sets up to three of the numbers the
config table reads to extreme values and table bounds: a float row to an
extreme finite value, an integer row to 0, 2**31, 2**63 - 1 or 2**64.
The named inputs below once passed validation and then hung or crashed a
run.
"""

import json
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudosim import config as cfg
from pseudosim.adversary import (
    CoveragePost,
    MotionModel,
    Tracklet,
    _cost_matrix,
    associate_across_gap,
    gap_cost,
)
from pseudosim.config import ConfigError, load_scenario
from pseudosim.engine import SimulationEngine
from pseudosim.mobility import RoadSegment
from test_differential import scenarios

_EXTREMES = [5e-324, 1e-308, 1e16, 1e300, 1e308]
_INT_EXTREMES = [0, 2**31, 2**63 - 1, 2**64]


def _numbers(raw):
    """(container, key, kind) of every number the config table reads in ``raw``."""
    policy = cfg._POLICIES[raw["policy"]["kind"]]
    places = [(raw, cfg.ScenarioConfig), (raw["beaconing"], cfg.BeaconingConfig),
              (raw["policy"], cfg.PolicyConfig), (raw["policy"], policy),
              (raw["pool"], cfg.PoolConfig), (raw["sba"], cfg.SbaConfig),
              (raw["locks"], cfg.LockConfig),
              (raw["adversary"], cfg.AdversaryConfig)]
    places += [(v, cfg.VehicleSpec) for v in raw["fleet"]]
    places += [(ev, cfg.LockEvent) for ev in raw["locks"]["events"]]
    places += [(seg, RoadSegment) for seg in raw["road"]["segments"]]
    if isinstance(raw["adversary"]["coverage"], list):
        places += [(post, CoveragePost) for post in raw["adversary"]["coverage"]]
    out = []
    for obj, cls in places:
        for key, kind in cfg._SCHEMA[cls].items():
            if isinstance(kind, (cfg._Num, cfg._Int)):
                out.append((obj, key, kind))
            elif isinstance(kind, cfg._Point):
                out += [(obj[key], 0, cfg._Num()), (obj[key], 1, cfg._Num())]
    return out


def _accepts(kind, value) -> bool:
    try:
        kind.parse(value)
    except cfg._Invalid:
        return False
    return True


@st.composite
def extreme_scenarios(draw):
    """A generated scenario of at most three vehicles with up to three extreme numbers.

    Each number takes a value its own row accepts: an extreme, a float's
    negated extreme or a bound of the row. Rules between fields may still
    reject the config.
    """
    raw = draw(scenarios([None]))
    raw["fleet"] = raw["fleet"][:3]
    kept = {v["vehicle_id"] for v in raw["fleet"]}
    raw["locks"]["events"] = [ev for ev in raw["locks"]["events"] if ev["vehicle_id"] in kept]
    numbers = _numbers(raw)
    for i in draw(st.lists(st.integers(0, len(numbers) - 1), min_size=1, max_size=3, unique=True)):
        obj, key, kind = numbers[i]
        if isinstance(kind, cfg._Int):
            extremes = _INT_EXTREMES
        else:
            extremes = _EXTREMES + [-v for v in _EXTREMES]
        values = extremes + [bound for _, bound in kind.bounds]
        obj[key] = draw(st.sampled_from([v for v in values if _accepts(kind, v)]))
    return raw


@pytest.mark.ci_budget
@given(extreme_scenarios())
def test_a_validated_scenario_runs_to_completion(raw):
    try:
        config = load_scenario(raw)
    except ConfigError:
        return
    result = SimulationEngine(config, collect_trace=True).run()
    result.summary_json()
    result.linkage.to_json()


def _scenario(scenarios_dir, name, **sections):
    raw = json.loads((scenarios_dir / name).read_text())
    for section, values in sections.items():
        raw.setdefault(section, {}).update(values)
    return raw


def _outputs(raw):
    result = SimulationEngine(load_scenario(raw), collect_trace=True).run()
    summary = dict(result.summary, config_digest=None)
    return json.dumps(summary, sort_keys=True), result.trace_rows, result.linkage.to_json()


@pytest.mark.parametrize("name, section, key", [
    ("baseline_single.json", "sba", "at_lifetime_s"),
    ("baseline_single.json", "policy", "interval_s"),
    ("symmetric_crossing.json", "beaconing", "ldm_timeout_s"),
])
def test_a_time_past_the_run_is_never(scenarios_dir, name, section, key):
    # a wake or an expiry after the run's last tick is never reached: a run
    # with 1e300 s writes what a run with 1e6 s writes, and as fast
    start = time.perf_counter()
    far = _outputs(_scenario(scenarios_dir, name, **{section: {key: 1e300}}))
    assert time.perf_counter() - start < 1.0
    assert far == _outputs(_scenario(scenarios_dir, name, **{section: {key: 1e6}}))


def test_pools_and_batches_at_the_ticket_budget_run(scenarios_dir):
    # every row that sizes a provisioning call at its bound: the admission and
    # each expiry of a whole pool provision MAX_TICKETS tickets per scope at once
    budget = cfg.MAX_TICKETS
    raw = _scenario(scenarios_dir, "baseline_single.json",
                    pool={"size": budget, "min_concurrent_valid": budget},
                    sba={"at_batch_cap": budget, "at_lifetime_s": 10.0},
                    policy={"interval_s": 1.0})
    raw["duration_s"] = 20.0
    summary = SimulationEngine(load_scenario(raw)).run().summary
    counters = summary["counters"]
    assert "replenish_gave_up" not in counters
    assert summary["safety"]["min_valid_tickets"] == budget
    # CAM and DENM pools filled at admission, and again as the first batch expires at 10 s
    assert counters["tickets_issued"] == 40018 and summary["n_changes"] == 19


@pytest.mark.parametrize("speed", [5e-324, 1e-308])
def test_a_vehicle_too_slow_to_cover_a_policy_distance_never_changes_again(scenarios_dir, speed):
    raw = _scenario(scenarios_dir, "segment_trip.json")
    for vehicle in raw["fleet"]:
        vehicle["speed_mps"] = speed
    summary = SimulationEngine(load_scenario(raw)).run().summary
    assert summary["n_changes"] == 0  # only the initial activations


@pytest.mark.parametrize("name", ["symmetric_crossing.json", "latency_fleet.json"])
def test_a_no_match_cost_whose_grid_unit_underflows_is_rejected(scenarios_dir, name):
    raw = _scenario(scenarios_dir, name, adversary={"no_match_cost": 5e-324})
    with pytest.raises(ConfigError) as err:
        load_scenario(raw)
    assert err.value.violations == ["adversary.no_match_cost: must be >= 1e-06"]


def test_a_segment_too_long_to_measure_is_rejected(scenarios_dir):
    raw = _scenario(scenarios_dir, "baseline_single.json")
    segment = raw["road"]["segments"][0]
    segment["start"], segment["end"] = [-1e308, 0], [1e308, 0]
    with pytest.raises(ConfigError) as err:
        load_scenario(raw)
    assert err.value.violations == [f"road: segment {segment['id']!r} is too long to measure"]


@pytest.mark.parametrize("section, values, violation", [
    ("beaconing", {"positioning_sigma_m": 1e308},
     "beaconing.positioning_sigma_m: must be <= 1000000.0"),
    ("policy", {"silence_s": 1e308}, "policy.silence_s: must last at most 10000000 ticks"),
    ("policy", {"silence_s": 1e7}, "policy.silence_s: must last at most 10000000 ticks"),
])
def test_a_number_no_run_can_use_is_rejected(scenarios_dir, section, values, violation):
    # noise that large makes positions infinite, and a silence of 1e308 s
    # makes a tick count too large for the summary's float
    raw = _scenario(scenarios_dir, "baseline_single.json", **{section: values})
    with pytest.raises(ConfigError) as err:
        load_scenario(raw)
    assert err.value.violations == [violation]


def test_an_overflowing_miss_over_an_overflowing_sigma_is_never_matched():
    # the miss and the uncertainty both overflow after a 2 s gap: inf / inf
    model = MotionModel(beta_m_per_s=1e308)
    ending = Tracklet("a", "CAM", 0.0, 1.0, (0.0, 0.0), (0.0, 0.0), (1e308, 0.0), None)
    starting = Tracklet("b", "CAM", 3.0, 4.0, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), None)
    assert gap_cost(ending, starting, model) == math.inf
    assert _cost_matrix([ending], [starting], model).tolist() == [[math.inf]]
    assert associate_across_gap([ending], [starting], model).pairs == []
