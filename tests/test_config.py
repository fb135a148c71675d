import copy
import json

import pytest

from pseudosim.adversary import CoveragePost, MotionModel
from pseudosim.config import MAX_TICKETS, MAX_TICKS, ConfigError, load_scenario
from pseudosim.strategy import PeriodicPolicy, SegmentPolicy


def minimal_config(**over):
    cfg = {
        "name": "unit",
        "seed": 1,
        "duration_s": 10.0,
        "tick_s": 0.1,
        "road": {
            "segments": [
                {"id": "a", "start": [0.0, 0.0], "end": [500.0, 0.0], "speed_limit_mps": 30.0},
            ]
        },
        "fleet": [
            {"vehicle_id": 1, "route": ["a"], "speed_mps": 10.0},
        ],
    }
    cfg.update(over)
    return cfg


def violations_of(cfg, **kw):
    with pytest.raises(ConfigError) as err:
        load_scenario(cfg, **kw)
    return err.value.violations


def test_minimal_config_defaults():
    cfg = load_scenario(minimal_config())
    assert cfg.name == "unit"
    assert cfg.tick_s == 0.1
    assert cfg.beaconing.cam_freq_hz == 10.0
    assert cfg.beaconing.loss_rate == 0.0
    assert isinstance(cfg.policy.policy, PeriodicPolicy)
    assert cfg.pool.size == 20 and cfg.pool.min_concurrent_valid == 2
    assert cfg.pool.selection == "no_reuse"
    assert cfg.sba.at_lifetime_s == 600.0
    assert cfg.adversary.coverage == "full"
    assert cfg.locks.events == ()
    assert cfg.fleet[0].length_m == 4.5
    assert cfg.fleet[0].clock_skew_s == 0.0


def test_accepts_dict_and_path(tmp_path, monkeypatch):
    obj = minimal_config()
    from_dict = load_scenario(obj)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    from_path = load_scenario(path)
    assert from_dict.digest() == from_path.digest()

    # a string is always a path, even one that starts with a brace
    (tmp_path / "{x}.json").write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert load_scenario("{x}.json").digest() == from_dict.digest()


def test_digest_ignores_key_order_and_fills_defaults():
    obj = minimal_config()
    reordered = dict(reversed(list(obj.items())))
    assert load_scenario(obj).digest() == load_scenario(reordered).digest()

    # explicitly writing a default value changes nothing
    explicit = minimal_config(tick_s=0.1, pool={"size": 20})
    assert load_scenario(explicit).digest() == load_scenario(minimal_config()).digest()


def test_with_seed_changes_only_seed():
    base = load_scenario(minimal_config())
    reseeded = base.with_seed(99)
    assert reseeded.seed == 99
    assert reseeded.digest() != base.digest()
    a, b = base.canonical_dict(), reseeded.canonical_dict()
    a.pop("seed"), b.pop("seed")
    assert a == b


def test_with_seed_validates_only_the_seed():
    base = load_scenario(minimal_config())
    reseeded = base.with_seed(7)
    # the same config and digest as a full reload under the new seed
    assert reseeded == load_scenario({**base.canonical_dict(), "seed": 7})
    assert reseeded.digest() == load_scenario(minimal_config(seed=7)).digest()
    assert base.seed == 1
    for bad, message in [(-1, "seed: must be >= 0"), (True, "seed: must be an integer"),
                         (2.0, "seed: must be an integer")]:
        with pytest.raises(ConfigError) as err:
            base.with_seed(bad)
        assert err.value.violations == [message]


def test_unknown_fields_rejected():
    cfg = minimal_config(extra_knob=1)
    cfg["beaconing"] = {"cam_freq_hz": 10.0, "mystery": 2}
    v = violations_of(cfg)
    assert "extra_knob: unknown field" in v
    assert "beaconing.mystery: unknown field" in v


def test_missing_required_fields():
    v = violations_of({"name": "x"})
    assert "seed: required" in v
    assert "duration_s: required" in v
    assert "fleet: must be a non-empty array" in v
    assert "road.segments: must be a non-empty array" in v


def test_violations_are_sorted_and_complete():
    cfg = minimal_config(seed=-1, tick_s=20.0)
    cfg["fleet"][0]["speed_mps"] = 0.0
    v = violations_of(cfg)
    assert v == sorted(v)
    assert v == [
        "beaconing.cam_freq_hz: beacon period must be a whole number of ticks",
        "fleet[0].speed_mps: must be > 0.0",
        "seed: must be >= 0",
        "tick_s: must not exceed duration_s",
    ]


def test_beacon_period_must_align_to_ticks():
    ok = minimal_config()
    ok["beaconing"] = {"cam_freq_hz": 5.0}  # 0.2 s period on 0.1 s ticks
    load_scenario(ok)

    bad = minimal_config()
    bad["beaconing"] = {"cam_freq_hz": 3.0}
    v = violations_of(bad)
    assert "beaconing.cam_freq_hz: beacon period must be a whole number of ticks" in v

    too_fast = minimal_config()
    too_fast["beaconing"] = {"cam_freq_hz": 20.0}
    v = violations_of(too_fast)
    assert any(s.startswith("beaconing.cam_freq_hz:") for s in v)

    # the period in ticks overflows to inf
    too_slow = minimal_config()
    too_slow["beaconing"] = {"cam_freq_hz": 5e-324}
    v = violations_of(too_slow)
    assert v == ["beaconing.cam_freq_hz: beacon period must be a whole number of ticks"]


def test_vanishing_tick_is_a_violation():
    # duration_s / tick_s and the beacon period in ticks both overflow to inf;
    # the departure and lock tick checks must not raise on them either
    cfg = minimal_config(tick_s=5e-324)
    cfg["fleet"][0]["depart_s"] = 1.0
    cfg["locks"] = {"events": [{"vehicle_id": 1, "t": 2.0, "app_id": "a", "duration_s": 1.0}]}
    assert violations_of(cfg) == [
        "beaconing.cam_freq_hz: beacon period must be a whole number of ticks",
        "tick_s: must leave at most 10000000 ticks in duration_s",
    ]


def test_tick_count_is_capped():
    # a finite but unbounded tick count would validate and then never finish
    assert violations_of(minimal_config(tick_s=1e-300)) == [
        "tick_s: must leave at most 10000000 ticks in duration_s"
    ]
    assert 1e6 / 0.1 == MAX_TICKS
    load_scenario(minimal_config(duration_s=1e6))
    assert violations_of(minimal_config(duration_s=1e6 + 0.1)) == [
        "tick_s: must leave at most 10000000 ticks in duration_s"
    ]


def test_adversary_sigma0_lower_bound():
    # sigma0_m * sigma0_m must not underflow to 0 when beta_m_per_s is 0
    cfg = minimal_config(adversary={"sigma0_m": 1e-170, "beta_m_per_s": 0.0})
    assert violations_of(cfg) == ["adversary.sigma0_m: must be >= 1e-06"]
    load_scenario(minimal_config(adversary={"sigma0_m": 1e-6, "beta_m_per_s": 0.0}))


def test_motion_model_rows_reject_what_the_model_rejects():
    # AdversaryConfig is a MotionModel: a value its check would refuse must be
    # a violation, never a ValueError out of load_scenario
    cfg = minimal_config(adversary={"sigma0_m": 0.0, "beta_m_per_s": -1.0,
                                    "no_match_cost": 0.0, "max_gap_s": 0.0})
    assert violations_of(cfg) == [
        "adversary.beta_m_per_s: must be >= 0.0",
        "adversary.max_gap_s: must be > 0.0",
        "adversary.no_match_cost: must be >= 1e-06",
        "adversary.sigma0_m: must be >= 1e-06",
    ]
    loaded = load_scenario(minimal_config(adversary={"no_match_cost": 7.5, "max_gap_s": 12.0}))
    assert isinstance(loaded.adversary, MotionModel)
    assert (loaded.adversary.no_match_cost, loaded.adversary.max_gap_s) == (7.5, 12.0)


def test_road_points_are_pairs_of_finite_numbers():
    for bad in ([float("nan"), 0.0], ["5", 0.0], [True, 0.0], [0.0, 0.0, 5.0], [0.0], None):
        cfg = minimal_config()
        cfg["road"]["segments"][0]["start"] = bad
        assert violations_of(cfg) == [
            "road.segments[0].start: must be an [x, y] pair of finite numbers"
        ]
    cfg = minimal_config()
    del cfg["road"]["segments"][0]["end"]
    cfg["road"]["segments"][0]["id"] = ""
    assert violations_of(cfg) == [
        "road.segments[0].end: must be an [x, y] pair of finite numbers",
        "road.segments[0].id: must be a non-empty string",
    ]


def test_loss_rate_upper_bound():
    cfg = minimal_config()
    cfg["beaconing"] = {"loss_rate": 1.0}
    v = violations_of(cfg)
    assert "beaconing.loss_rate: must be <= 0.999" in v


def test_route_contiguity_checked_per_vehicle():
    cfg = minimal_config()
    cfg["road"]["segments"].append(
        {"id": "b", "start": [600.0, 0.0], "end": [700.0, 0.0], "speed_limit_mps": 30.0}
    )
    cfg["fleet"][0]["route"] = ["a", "b"]  # 100 m hole between the segments
    v = violations_of(cfg)
    assert any(s.startswith("fleet[0].route:") and "route break" in s for s in v)


def test_duplicate_vehicle_ids_rejected():
    cfg = minimal_config()
    cfg["fleet"].append({"vehicle_id": 1, "route": ["a"], "speed_mps": 5.0})
    v = violations_of(cfg)
    assert "fleet[1].vehicle_id: duplicate vehicle id 1" in v


def test_fleet_row_reports_every_violation_at_once():
    cfg = minimal_config()
    cfg["fleet"] = [
        {"vehicle_id": -1, "route": ["a"], "speed_mps": 0.0, "length_m": 0.0},
        {"vehicle_id": 1, "route": [], "speed_mps": 10.0, "depart_s": 10.0},
        {"vehicle_id": 1, "route": ["zz"], "speed_mps": -1.0, "colour": "red"},
    ]
    assert violations_of(cfg) == [
        "fleet[0].length_m: must be > 0.0",
        "fleet[0].speed_mps: must be > 0.0",
        "fleet[0].vehicle_id: must be >= 0",
        "fleet[1].depart_s: must be before the end of the run",
        "fleet[1].route: must be a non-empty array of segment ids",
        "fleet[2].colour: unknown field",
        "fleet[2].route: route references unknown segment 'zz'",
        "fleet[2].speed_mps: must be > 0.0",
        "fleet[2].vehicle_id: duplicate vehicle id 1",
    ]


def test_departure_inside_run():
    cfg = minimal_config()
    cfg["fleet"][0]["depart_s"] = 10.0  # duration is 10
    v = violations_of(cfg)
    assert "fleet[0].depart_s: must be before the end of the run" in v

    # 9.96 s rounds to tick 100 of a 100-tick run: the vehicle would never enrol
    cfg["fleet"][0]["depart_s"] = 9.96
    v = violations_of(cfg)
    assert "fleet[0].depart_s: must be before the end of the run" in v

    cfg["fleet"][0]["depart_s"] = 9.94  # tick 99, the last one
    assert load_scenario(cfg).fleet[0].depart_s == 9.94


def test_policy_kind_specific_fields():
    cfg = minimal_config(policy={"kind": "periodic", "window_s": 5.0})
    v = violations_of(cfg)
    assert "policy.window_s: not a periodic policy field" in v

    cfg = minimal_config(policy={"kind": "segment", "second_change_min_m": 900.0,
                                 "second_change_max_m": 850.0})
    v = violations_of(cfg)
    assert "policy.second_change_max_m: must be >= second_change_min_m" in v

    cfg = minimal_config(policy={"kind": "segment", "subsequent_time_min_s": 90.0,
                                 "subsequent_time_max_s": 60.0})
    assert violations_of(cfg) == ["policy.subsequent_time_max_s: must be >= subsequent_time_min_s"]

    cfg = minimal_config(policy={"kind": "nope"})
    v = violations_of(cfg)
    assert any(s.startswith("policy.kind:") for s in v)

    loaded = load_scenario(minimal_config(policy={"kind": "segment"}))
    assert isinstance(loaded.policy.policy, SegmentPolicy)
    assert loaded.policy.policy.second_change_max_m == 1500.0


def test_network_triggered_fraction_bounds():
    cfg = minimal_config(policy={"kind": "network_triggered", "max_silent_fraction": 1.5})
    v = violations_of(cfg)
    assert "policy.max_silent_fraction: must be <= 1.0" in v


def test_a_section_or_event_list_of_the_wrong_type_is_named():
    cfg = minimal_config(beaconing=[10.0], pool="big", locks={"events": {"t": 1.0}},
                         policy={"kind": "periodic", "notify_deactivation": 1})
    assert violations_of(cfg) == [
        "beaconing: must be an object",
        "locks.events: must be an array",
        "policy.notify_deactivation: must be a boolean",
        "pool: must be an object",
    ]


def test_pool_bounds():
    cfg = minimal_config(pool={"size": 2, "min_concurrent_valid": 3})
    v = violations_of(cfg)
    assert "pool.size: must be >= min_concurrent_valid" in v

    cfg = minimal_config(pool={"min_concurrent_valid": 1})
    v = violations_of(cfg)
    assert "pool.min_concurrent_valid: must be >= 2" in v

    # a first admission would ask for 10**12 tickets in one batch
    cfg = minimal_config(pool={"size": 10**12}, sba={"at_batch_cap": 10**12})
    assert violations_of(cfg) == [f"pool.size: must be <= {MAX_TICKETS}",
                                  f"sba.at_batch_cap: must be <= {MAX_TICKETS}"]
    cfg = minimal_config(pool={"size": MAX_TICKETS, "min_concurrent_valid": MAX_TICKETS + 1})
    assert violations_of(cfg) == [f"pool.min_concurrent_valid: must be <= {MAX_TICKETS}"]


def test_lock_event_validation():
    base = {"vehicle_id": 1, "t": 1.0, "app_id": "hd-map", "duration_s": 10.0}

    cfg = minimal_config(locks={"events": [dict(base, duration_s=255.1)]})
    v = violations_of(cfg)
    assert "locks.events[0].duration_s: must be <= 255.0" in v

    cfg = minimal_config(locks={"events": [dict(base, t=10.0)]})
    v = violations_of(cfg)
    assert "locks.events[0].t: must be before the end of the run" in v

    cfg = minimal_config(locks={"events": [dict(base, t=9.96)]})
    v = violations_of(cfg)
    assert "locks.events[0].t: must be before the end of the run" in v

    late_start = minimal_config(locks={"events": [dict(base, t=1.0)]})
    late_start["fleet"][0]["depart_s"] = 2.0
    v = violations_of(late_start)
    assert v == ["locks.events[0].t: must not be before vehicle 1 departs"]

    late_start["locks"]["events"][0]["t"] = 1.96  # same tick as the departure
    assert load_scenario(late_start).locks.events[0].t == 1.96

    cfg = minimal_config(locks={"events": [dict(base, vehicle_id=9)]})
    v = violations_of(cfg)
    assert "locks.events[0].vehicle_id: no such vehicle 9" in v

    loaded = load_scenario(minimal_config(locks={"events": [base]}))
    assert loaded.locks.events[0].app_id == "hd-map"


def test_adversary_coverage_posts():
    cfg = minimal_config(adversary={"coverage": [{"x": 0.0, "y": 0.0, "radius_m": 100.0}]})
    loaded = load_scenario(cfg)
    assert loaded.adversary.coverage == (CoveragePost(0.0, 0.0, 100.0),)

    cfg = minimal_config(adversary={"coverage": "partial"})
    v = violations_of(cfg)
    assert 'adversary.coverage: must be "full" or an array of posts' in v

    cfg = minimal_config(adversary={"coverage": [{"x": 0.0, "y": 0.0, "radius_m": 0.0}]})
    v = violations_of(cfg)
    assert "adversary.coverage[0].radius_m: must be > 0.0" in v


def test_clock_skew_may_be_negative():
    cfg = minimal_config()
    cfg["fleet"][0]["clock_skew_s"] = -0.4
    assert load_scenario(cfg).fleet[0].clock_skew_s == -0.4


def test_bad_json_and_non_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_scenario(str(bad))
    assert err.value.violations[0].startswith("json:")

    listy = tmp_path / "listy.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError) as err:
        load_scenario(listy)
    assert err.value.violations == ["config: must be a JSON object"]

    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    with pytest.raises(ConfigError) as err:
        load_scenario(utf16)
    assert err.value.violations[0].startswith("json: ")


def test_config_error_message_joins_violations():
    try:
        load_scenario(minimal_config(seed=-1, duration_s=0.0))
    except ConfigError as err:
        assert "seed: must be >= 0" in str(err)
        assert ";" in str(err)
    else:
        pytest.fail("expected ConfigError")


def test_checked_in_scenarios_all_load(scenarios_dir):
    for path in sorted(scenarios_dir.glob("*.json")):
        cfg = load_scenario(path)
        assert cfg.digest()


def test_loading_does_not_mutate_source_dict():
    obj = minimal_config()
    snapshot = copy.deepcopy(obj)
    load_scenario(obj)
    assert obj == snapshot


# Each config reaches a parser branch the suite scenarios in
# tests/golden_digests.json do not; the hex values pin its canonical form.
_BRANCH_CONFIGS = {
    "network_triggered": dict(policy={
        "kind": "network_triggered", "min_interval_s": 60, "coordination_interval_s": 0.5,
        "max_silent_fraction": 0.25, "silence_s": 2, "notify_deactivation": True,
    }),
    "synchronized": dict(policy={"kind": "synchronized", "interval_s": 120, "window_s": 4.0}),
    "segment": dict(policy={
        "kind": "segment", "second_change_min_m": 500, "second_change_max_m": 900.0,
        "subsequent_min_distance_m": 400.0, "subsequent_time_min_s": 30.0,
        "subsequent_time_max_s": 90,
    }),
    "coverage_posts": dict(adversary={
        "coverage": [{"x": 0, "y": 5.5, "radius_m": 100}, {"x": -20.0, "y": 0.0, "radius_m": 50.0}],
        "use_quasi_identifiers": False, "beta_m_per_s": 0,
    }),
    "round_robin": dict(pool={"selection": "round_robin", "size": 8, "min_concurrent_valid": 3}),
    "asymmetric_sba": dict(sba={
        "sig_scheme": "asymmetric", "token_ttl_s": 60, "ec_lifetime_s": 3600.0,
        "at_lifetime_s": 120.0, "at_stagger_s": 1.5, "at_batch_cap": 16,
    }),
    "denm_set": dict(beaconing={"denm_interval_s": 1, "cam_freq_hz": 5}),
    "denm_null": dict(beaconing={"denm_interval_s": None}),
    "lock_events": dict(locks={
        "renewal_threshold": 2, "validator_awareness_min": 0.5,
        "events": [
            {"vehicle_id": 1, "t": 1, "app_id": "hd-map", "duration_s": 10},
            {"vehicle_id": 1, "t": 2.5, "app_id": "platoon", "duration_s": 255.0},
        ],
    }),
    "null_numbers": dict(
        tick_s=None,
        beaconing={"radio_range_m": None, "loss_rate": None},
        sba={"token_ttl_s": None},
        fleet=[{"vehicle_id": 1, "route": ["a"], "speed_mps": 10, "length_m": None}],
    ),
}

_BRANCH_DIGESTS = {
    "asymmetric_sba": "b24772ce3f0b597cbe6afe54e0572820e9e3f3c9e1741494369408771759aaab",
    "coverage_posts": "45e8c8c3e38403e83fe78672dc6a54b705d2d620db97e5f394dadfddbc54f191",
    "denm_null": "c457c793d79b63b90b7fdf2d0bb0756dc44fdf8224e80c89e532545937c5e8d5",
    "denm_set": "b11c4ba28216377148be6de40a22aae2b47f8179624d108f90c5d6feb79283ea",
    "lock_events": "6a5bc04faf1d9d8e7170688bd40cd570a980f982938116cadddf6e388ca018b2",
    "network_triggered": "b1e33987d2f9bd7620eabb14b1b351afd230a907f14b857605801ab13eb0ab6b",
    "null_numbers": "24614afac873fda35a415a286ba7fa0a415955ec5197d137bb433a6db4362f81",
    "round_robin": "25ccb6935d6b62ac28bb27e0a5f78553b4aa4a26d2c9fc2a93d2a7f0a876ab00",
    "segment": "f9e41b84018ce5baef88ef6e2c2446a6db45cd59213b952ac8df5fe53e18e694",
    "synchronized": "0f9ebd7b882039e3ec807212e5912be45af948c0e436fafaac38e08e729ca696",
}


@pytest.mark.parametrize("branch", sorted(_BRANCH_CONFIGS))
def test_branch_digests_pinned(branch):
    config = load_scenario(minimal_config(**_BRANCH_CONFIGS[branch]))
    assert config.digest() == _BRANCH_DIGESTS[branch]
