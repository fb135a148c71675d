import collections
import dataclasses
import gc
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import pseudosim.adversary as adv
from oracle_support import (
    anonymity_sizes_loop,
    assignment_outcome,
    build_tracklets_loop,
    link_full_scan,
    mk_tracklet,
    random_instance,
    rank_on_grid,
    relabel_station_ids,
    solve_exhaustive,
)
from pseudosim.adversary import (
    AttackMetrics,
    CoveragePost,
    Eavesdropper,
    MotionModel,
    NoticeSighting,
    Observation,
    ObservationStore,
    TruthData,
    associate_across_gap,
    build_tracklets,
    evaluate_attack,
    gap_cost,
    link,
    load_trace,
    semantic_match,
)


def obs(sid, t, pos, vel=(10.0, 0.0), scope="CAM", quasi=(4.5, 1.8)):
    return Observation(t=t, station_id=sid, scope=scope, position=pos,
                       velocity=vel, quasi_ids=quasi)


def store_of(*observations):
    store = ObservationStore()
    store.observations.extend(observations)
    store.finalize()
    return store


def linear_track(sid, t0, t1, x0, vx=10.0, dt=1.0, quasi=None):
    """CAM observations of a vehicle moving along the x axis."""
    out = []
    t = t0
    while t <= t1 + 1e-9:
        out.append(obs(sid, t, (x0 + vx * (t - t0), 0.0), (vx, 0.0), quasi=quasi))
        t += dt
    return out


# --- observation plumbing -------------------------------------------------------


def test_store_finalize_orders_by_time_keeping_arrival_order():
    store = store_of(
        obs("bb", 2.0, (0, 0)), obs("aa", 2.0, (0, 0)), obs("cc", 1.0, (0, 0))
    )
    assert [(o.t, o.station_id) for o in store.observations] == [
        (1.0, "cc"), (2.0, "bb"), (2.0, "aa")
    ]


# few ids and times, so that times and (t, station_id) keys repeat; -0.0 and 0.0 tie
_key_t = st.one_of(st.sampled_from([-0.0, 0.0, 0.1, 1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
_key_id = st.sampled_from(["aa", "ab", "b", "c0"])
_spot = st.tuples(st.sampled_from([-0.0, 0.0, 1.5]), st.floats(-1e3, 1e3))
_heard = st.lists(st.one_of(
    st.builds(Observation, _key_t, _key_id, st.just("CAM"), _spot, _spot, st.none() | _spot),
    st.builds(Observation, _key_t, _key_id, st.just("DENM"), _spot, st.just((0.0, 0.0)),
              st.none()),
), max_size=40)


@pytest.mark.ci_budget
@given(_heard, st.lists(st.builds(NoticeSighting, _key_t, _key_id, st.just("CAM")),
                        max_size=20))
def test_finalize_orders_like_a_stable_sort_by_time(observations, notices):
    store = ObservationStore()
    store.observations.extend(observations)
    store.notices.extend(notices)
    store.finalize()
    by_time = operator.attrgetter("t")
    # the very same records in the same order, so records of one time keep their order
    for log, heard in ((store.observations, observations), (store.notices, notices)):
        assert [id(r) for r in log] == [id(r) for r in sorted(heard, key=by_time)]


def test_eavesdropper_full_coverage():
    ear = Eavesdropper(posts=None)
    assert ear.hear(obs("aa", 0.0, (1e6, 1e6)), true_position=(1e6, 1e6))
    assert len(ear.store.observations) == 1


def test_eavesdropper_posts_filter_on_true_position():
    ear = Eavesdropper(posts=[CoveragePost(0.0, 0.0, 100.0)])
    # reported position is outside, true position inside: heard
    assert ear.hear(obs("aa", 0.0, (500.0, 0.0)), true_position=(100.0, 0.0))
    # reported inside, true outside: not heard
    assert not ear.hear(obs("bb", 0.0, (0.0, 0.0)), true_position=(100.1, 0.0))
    assert [o.station_id for o in ear.store.observations] == ["aa"]

    assert ear.hear_notice(NoticeSighting(0.0, "aa", "CAM"), (0.0, 0.0))
    assert not ear.hear_notice(NoticeSighting(0.0, "aa", "CAM"), (200.0, 0.0))


_where = st.tuples(st.sampled_from([0.0, 40.0, 100.0]), st.just(0.0))
_post = st.builds(CoveragePost, st.sampled_from([0.0, 50.0]), st.just(0.0),
                  st.sampled_from([10.0, 60.0]))
_posts = st.none() | st.lists(_post, max_size=2)


@pytest.mark.ci_budget
@given(_heard, _posts, st.data())
def test_eavesdropper_keeps_what_a_full_log_links(observations, posts, data):
    # records arrive in non-decreasing time, as the engine's ticks send them
    sends = [(0, o, data.draw(_where)) for o in sorted(observations, key=operator.attrgetter("t"))]
    ear, log = Eavesdropper(posts), ObservationStore()
    log.observations = [rec for _, rec, pos in sends if ear.covers(pos)]
    i = 0
    while i < len(sends):  # one record through hear, or up to three through hear_all
        n = data.draw(st.integers(0, 3))
        if n:
            ear.hear_all((), sends[i:i + n])
        else:
            ear.hear(*sends[i][1:])
        i += n or 1
    assert max(collections.Counter(map(operator.attrgetter("station_id"),
                                       ear.store.observations)).values(), default=0) <= 2
    for store in (ear.store, log):
        store.finalize()
    # repr tells -0.0 from 0.0 where == would not
    assert repr(build_tracklets(ear.store)) == repr(build_tracklets(log))


@pytest.mark.ci_budget
@given(st.none() | st.lists(_post, min_size=1, max_size=2), st.data())
def test_hearing_what_retained_picks_fills_the_store_as_hearing_all(posts, data):
    """A quiet stretch hears of each id only what ``Eavesdropper.retained`` picks.

    Each id's store holds 0, 1 or 2 of its records, then the stretch's beacons
    interleave by tick and roster, under listening posts or none. Hearing the
    picks must leave the store as hearing every beacon does, record for
    record and slot for slot, also once each id is heard once more after it."""
    ids = ["a", "b", "c"]
    covered = (posts[0].x, posts[0].y) if posts else (0.0, 0.0)
    before = [(0, obs(sid, 0.0, (float(n), 0.0)), covered)
              for sid in ids for n in range(data.draw(st.integers(0, 2)))]
    ticks = data.draw(st.lists(st.lists(st.sampled_from(ids), unique=True), max_size=8))
    stretch = [(0, obs(sid, 1.0 + tick, (float(tick), 1.0)), data.draw(_where))
               for tick, senders in enumerate(ticks) for sid in sorted(senders)]
    after = [(0, obs(sid, 20.0, (2.0, 2.0)), covered) for sid in ids]
    every, picking = Eavesdropper(posts), Eavesdropper(posts)
    for ear in (every, picking):
        ear.hear_all((), before)
    picked = {id(send) for sid in ids
              for send in picking.retained(sid, [s for s in stretch if s[1].station_id == sid],
                                           operator.itemgetter(2))}
    every.hear_all((), stretch)
    picking.hear_all((), [send for send in stretch if id(send) in picked])
    assert repr(picking.store.observations) == repr(every.store.observations)
    for ear in (every, picking):
        ear.hear_all((), after)
        ear.store.finalize()
    assert repr(picking.store.observations) == repr(every.store.observations)


def test_build_tracklets_aggregates_per_id():
    store = store_of(
        obs("aa", 0.0, (0.0, 0.0), (10.0, 0.0)),
        obs("aa", 1.0, (10.0, 0.0), (10.0, 0.0)),
        obs("aa", 2.0, (20.0, 0.0), (11.0, 0.0)),
        obs("bb", 1.5, (500.0, 0.0), (9.0, 0.0)),
    )
    trs = build_tracklets(store)
    assert [tr.station_id for tr in trs] == ["aa", "bb"]
    aa = trs[0]
    assert (aa.t_first, aa.t_last) == (0.0, 2.0)
    assert aa.pos_first == (0.0, 0.0)
    assert aa.pos_last == (20.0, 0.0)
    assert aa.vel_last == (11.0, 0.0)
    assert aa.duration == 2.0


@pytest.mark.ci_budget
@given(_heard)
def test_build_tracklets_matches_the_record_loop(observations):
    store = ObservationStore()
    store.observations = observations  # not finalized: any order
    # repr tells -0.0 from 0.0 where == would not
    assert repr(build_tracklets(store)) == repr(build_tracklets_loop(store))


# --- gap cost --------------------------------------------------------------------


def test_gap_cost_worked_example():
    model = MotionModel(sigma0_m=1.0, beta_m_per_s=2.0)
    ending = mk_tracklet("aa", 0.0, 0.0, pos_last=(0.0, 0.0), vel_last=(10.0, 0.0))
    starting = mk_tracklet("bb", 2.0, 2.0, pos_first=(25.0, 0.0))
    # extrapolate to (20, 0), miss 5 m, sigma = 1 + 2*2 = 5
    assert gap_cost(ending, starting, model) == 1.0


def test_gap_cost_infeasible_gaps():
    model = MotionModel(max_gap_s=30.0)
    e = mk_tracklet("aa", 0.0, 10.0)
    assert gap_cost(e, mk_tracklet("bb", 10.0, 11.0), model) >= 1e14  # zero gap
    assert gap_cost(e, mk_tracklet("bb", 9.0, 12.0), model) >= 1e14  # backwards
    assert gap_cost(e, mk_tracklet("bb", 40.1, 41.0), model) >= 1e14  # too late
    assert gap_cost(e, mk_tracklet("bb", 40.0, 41.0), model) < 1e14  # exactly max_gap


_MAX_GAPS = (30.0, 2.5)
# gaps at and around the feasibility edges of both windows above
_EDGE_GAPS = [0.0, -0.0, -1.0, 5e-324, 0.1, 2.5, math.nextafter(2.5, math.inf),
              30.0, math.nextafter(30.0, math.inf), math.nextafter(30.0, 0.0)]
_coord = st.one_of(
    st.floats(-5e3, 5e3),
    st.sampled_from([0.0, 1e150, -1e150, 1e300, -1e300]),  # squares overflow to inf
)


@st.composite
def _gap_instance(draw):
    t_last = draw(st.sampled_from([0.0, 10.0, 1234.5]))
    endings = [
        mk_tracklet(f"e{i}", t_last - 1.0, t_last, pos_last=(draw(_coord), draw(_coord)),
                    vel_last=(draw(_coord), draw(_coord)))
        for i in range(draw(st.integers(1, 4)))
    ]
    gaps = st.one_of(st.sampled_from(_EDGE_GAPS), st.floats(-40.0, 40.0))
    startings = []
    for j in range(draw(st.integers(1, 4))):
        t_first = draw(st.sampled_from([e.t_last for e in endings])) + draw(gaps)
        startings.append(mk_tracklet(f"s{j}", t_first, t_first + 1.0,
                                     pos_first=(draw(_coord), draw(_coord))))
    model = MotionModel(sigma0_m=draw(st.sampled_from([1.0, 0.25])),
                        beta_m_per_s=draw(st.sampled_from([2.0, 0.0, 0.3])),
                        max_gap_s=draw(st.sampled_from(_MAX_GAPS)))
    return endings, startings, model


@given(_gap_instance())
@settings(max_examples=150)
def test_cost_matrix_equals_gap_cost_on_every_cell(instance):
    endings, startings, model = instance
    matrix = adv._cost_matrix(endings, startings, model)
    assert matrix.shape == (len(endings), len(startings))
    for i, e in enumerate(endings):
        for j, s in enumerate(startings):
            assert matrix[i, j] == gap_cost(e, s, model)


def test_cost_matrix_feasibility_edges():
    model = MotionModel(max_gap_s=30.0)
    e = mk_tracklet("aa", 0.0, 10.0, pos_last=(3.0, 4.0), vel_last=(1.0, 0.0))
    starts = [10.0, 9.0, 40.0, math.nextafter(40.0, math.inf)]
    matrix = adv._cost_matrix([e], [mk_tracklet("s", t, t) for t in starts], model)
    assert matrix[0].tolist() == [math.inf, math.inf, (33.0**2 + 4.0**2) / 61.0**2, math.inf]


# --- assignment ------------------------------------------------------------------


def test_associate_simple_continuation():
    model = MotionModel()
    e = mk_tracklet("aa", 0.0, 5.0, pos_last=(50.0, 0.0), vel_last=(10.0, 0.0))
    s = mk_tracklet("bb", 7.0, 12.0, pos_first=(70.0, 0.0))
    res = associate_across_gap([e], [s], model)
    assert res.pairs == [("aa", "bb")]
    assert assignment_outcome(res, [e], [s], model) == ([], [], 0.0)


def test_associate_prefers_no_match_when_too_costly():
    # matching costs more than leaving both sides unmatched
    model = MotionModel(sigma0_m=1.0, beta_m_per_s=2.0, no_match_cost=50.0)
    e = mk_tracklet("aa", 0.0, 5.0, pos_last=(0.0, 0.0), vel_last=(0.0, 0.0))
    s = mk_tracklet("bb", 6.0, 7.0, pos_first=(100.0, 0.0))  # cost 100^2/9 > 100
    res = associate_across_gap([e], [s], model)
    assert res.pairs == []
    assert assignment_outcome(res, [e], [s], model) == (["aa"], ["bb"], 100.0)


def test_infeasible_gap_is_never_matched_whatever_the_no_match_cost():
    e = mk_tracklet("aa", 0.0, 10.0)
    for s in (mk_tracklet("bb", 5.0, 6.0), mk_tracklet("bb", 40.5, 41.0)):  # backwards, too late
        model = MotionModel(no_match_cost=1e300)
        res = associate_across_gap([e], [s], model)
        assert res.pairs == [] and assignment_outcome(res, [e], [s], model)[2] == 2e300


def test_associate_empty_sides():
    model = MotionModel(no_match_cost=50.0)
    e = mk_tracklet("aa", 0.0, 5.0)
    res = associate_across_gap([e], [], model)
    assert res.pairs == [] and assignment_outcome(res, [e], [], model) == (["aa"], [], 50.0)
    res = associate_across_gap([], [], model)
    assert assignment_outcome(res, [], [], model)[2] == 0.0


def test_associate_extra_startings_absorbed_by_padding():
    model = MotionModel()
    e = mk_tracklet("aa", 0.0, 5.0, pos_last=(50.0, 0.0), vel_last=(10.0, 0.0))
    s_good = mk_tracklet("bb", 7.0, 12.0, pos_first=(70.0, 0.0))
    s_far1 = mk_tracklet("cc", 7.0, 12.0, pos_first=(5000.0, 0.0))
    s_far2 = mk_tracklet("dd", 7.0, 12.0, pos_first=(-5000.0, 0.0))
    res = associate_across_gap([e], [s_good, s_far1, s_far2], model)
    assert res.pairs == [("aa", "bb")]
    _, unmatched_startings, total = assignment_outcome(res, [e], [s_good, s_far1, s_far2], model)
    assert sorted(unmatched_startings) == ["cc", "dd"]
    assert total == 0.0 + 50.0 * 2


def test_exact_tie_canonicalized_lexicographically():
    # mirror-symmetric crossing: both startings sit at the same point, so all
    # four pair costs are exactly equal and the solver must pick the
    # lexicographically smallest matching
    model = MotionModel(sigma0_m=1.0, beta_m_per_s=2.0, no_match_cost=50.0)
    e_w = mk_tracklet("aa", 0.0, 0.0, pos_last=(-10.0, 0.0), vel_last=(10.0, 0.0))
    e_e = mk_tracklet("bb", 0.0, 0.0, pos_last=(10.0, 0.0), vel_last=(-10.0, 0.0))
    s1 = mk_tracklet("cc", 2.0, 2.0, pos_first=(0.0, 10.0), vel_last=(0.0, 10.0))
    s2 = mk_tracklet("dd", 2.0, 2.0, pos_first=(0.0, 10.0), vel_last=(0.0, 10.0))

    costs = {
        (e.station_id, s.station_id): gap_cost(e, s, model)
        for e in (e_w, e_e) for s in (s1, s2)
    }
    assert len(set(costs.values())) == 1  # the four-way tie is exact

    res = associate_across_gap([e_w, e_e], [s1, s2], model)
    assert res.pairs == [("aa", "cc"), ("bb", "dd")]

    oracle = solve_exhaustive([e_w, e_e], [s1, s2], model)
    assert oracle.n_optima == 2  # straight and crossed matchings tie
    assert assignment_outcome(res, [e_w, e_e], [s1, s2], model)[2] == oracle.total
    assert sorted(res.pairs) == sorted(oracle.pairs)


def test_associate_matches_exhaustive_oracle():
    rng = np.random.default_rng(77)
    model = MotionModel()
    unique_checked = 0
    for _ in range(120):
        endings, startings = random_instance(rng)
        res = associate_across_gap(endings, startings, model)
        oracle = solve_exhaustive(endings, startings, model)
        assert res.pairs == oracle.pairs  # ties included
        total = assignment_outcome(res, endings, startings, model)[2]
        assert total == oracle.total == oracle.float_min  # exact float equality
        unique_checked += oracle.n_optima == 1
    assert unique_checked > 30


def test_lex_min_assignment_matches_enumeration_on_small_grids(monkeypatch):
    # dense ties on a coarse grid, where the solve often lands on another optimum;
    # every component of a grid, however small, shares its one solve, and only a
    # grid with tied optima is ever searched for another optimum on its face
    solve, restore = adv._augmenting_paths, adv._restore
    solves, searches = [], []
    monkeypatch.setattr(adv, "_augmenting_paths",
                        lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(adv, "_restore",
                        lambda *args: searches.append(restore(*args)) or searches[-1])
    rng = np.random.default_rng(8)
    moved, shapes = 0, set()
    for _ in range(300):
        n_e, n_s = (int(n) for n in rng.integers(1, 6, size=2))
        pad = 2
        grid = rng.integers(0, 2 * pad + 2, size=(n_e, n_s)).astype(float)
        _, keys = rank_on_grid(grid, pad)
        least = min(keys)
        tied = len({k[1] for k in keys if k[0] == least[0]}) > 1
        solves.clear()
        searches.clear()
        assert adv._lex_min_assignment(grid, pad) == list(least[1])
        assert len(solves) == 1
        assert tied or not searches
        moved += any(searches)  # a search found another optimum
        shapes.add((n_e, n_s))
    assert moved >= 30
    # every shape of a small epoch, whose grid associate_across_gap enumerates
    assert {(n_e, size - n_e) for size in range(2, adv._SMALL_EPOCH + 1)
            for n_e in range(1, size)} <= shapes


def test_coincident_tracklets_pair_in_id_order_whatever_the_input_order():
    # 40 x 40 exact ties, far beyond the exhaustive oracle: ending k takes starting k
    model = MotionModel()
    endings = [mk_tracklet(f"e{k:02d}", 0.0, 1.0, pos_last=(5.0, 0.0), vel_last=(10.0, 0.0))
               for k in range(40)]
    startings = [mk_tracklet(f"s{k:02d}", 2.0, 3.0, pos_first=(16.0, 0.0)) for k in range(40)]
    rng = np.random.default_rng(40)
    for _ in range(3):
        res = associate_across_gap([endings[k] for k in rng.permutation(40)],
                                   [startings[k] for k in rng.permutation(40)], model)
        assert res.pairs == [(f"e{k:02d}", f"s{k:02d}") for k in range(40)]
        assert assignment_outcome(res, endings, startings, model)[:2] == ([], [])
        assert res.pair_costs == [1.0 / 9.0] * 40  # miss 1 m, sigma 3 m


def test_pair_tying_two_no_matches_is_matched():
    # the pair costs exactly as much as leaving both sides unmatched; a match ranks first
    model = MotionModel(sigma0_m=1.0, beta_m_per_s=0.0, no_match_cost=50.0)
    e = mk_tracklet("aa", 0.0, 0.0)
    s = mk_tracklet("bb", 1.0, 1.0, pos_first=(10.0, 0.0))
    assert gap_cost(e, s, model) == 2 * model.no_match_cost
    res = associate_across_gap([e], [s], model)
    assert res.pairs == [("aa", "bb")]
    assert assignment_outcome(res, [e], [s], model) == ([], [], 100.0)


def test_tie_grid_totals_stay_exact():
    # any total, scaled by size + 1 and plus a rank below size + 1, is an exact float
    for size in range(1, 10**5 + 1):
        _, pad = adv._tie_grid(np.empty((size, 0)), 50.0)
        assert size * (size + 1) * (2 * pad + 1) + size < 2**53
        assert pad >= 2**16  # a unit stays below no_match_cost / 65536


@pytest.mark.ci_budget
@given(st.integers(0, 2**32 - 1))
def test_small_epochs_solve_exactly_like_the_matrix_path(seed):
    # every shape the enumeration takes, on dense-tie grids with clipped cells and
    # on random tracklets with infeasible gaps and exact ties; a no-match cost of
    # 2**30 or 2**36 makes a grid unit 1 or 64, so grid totals tie where floats do not
    rng = np.random.default_rng(seed)
    models = [MotionModel(), MotionModel(no_match_cost=2.0**30),
              MotionModel(no_match_cost=2.0**36)]
    sizes = [(n_e, size - n_e) for size in range(2, adv._SMALL_EPOCH + 1)
             for n_e in range(1, size)]
    for n_e, n_s in sizes:
        pad = 2
        grid = rng.integers(0, 2 * pad + 2, size=(n_e, n_s))
        assert adv._lex_min_enumerated(grid.tolist(), pad) == adv._lex_min_assignment(
            grid.astype(float), pad)

        endings, startings = [], []
        while len(endings) < n_e or len(startings) < n_s:
            endings, startings = random_instance(rng, max_side=adv._SMALL_EPOCH)
        endings, startings = endings[:n_e], startings[:n_s]
        for model in models:
            small = associate_across_gap(endings, startings, model)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(adv, "_SMALL_EPOCH", 0)
                matrix = associate_across_gap(endings, startings, model)
            assert small == matrix
            assert [c.hex() for c in small.pair_costs] == [c.hex() for c in matrix.pair_costs]
            assert assignment_outcome(small, endings, startings, model)[2].hex() == (
                assignment_outcome(matrix, endings, startings, model)[2].hex())


_IMPORT_GUARD = """
import sys
import tempfile
from pathlib import Path
import pseudosim, pseudosim.config, pseudosim.engine, pseudosim.cli
from pseudosim import adversary as adv, run_scenario
assert "scipy" not in sys.modules, "imported by import pseudosim"
for name in ("latency_fleet.json", "symmetric_crossing.json"):
    run_scenario(f"{sys.argv[1]}/{name}")
    assert "scipy" not in sys.modules, f"imported by a run of {name}"
ending = adv.Tracklet("e", "CAM", 0.0, 1.0, (0.0, 0.0), (0.0, 0.0), (1.0, 0.0), None)
startings = [adv.Tracklet(f"s{k}", "CAM", 2.0, 3.0, (k, 0.0), (k, 0.0), (1.0, 0.0), None)
             for k in range(adv._SMALL_EPOCH)]
assert adv.associate_across_gap([ending], startings, adv.MotionModel()).pairs == [("e", "s1")]
sys.path.insert(0, sys.argv[2])
from test_golden import GOLDEN, attacker_digest  # link and evaluate_attack, epochs over 6
with tempfile.TemporaryDirectory() as tmp:
    assert attacker_digest(Path(tmp)) == GOLDEN["attacker_replay"]
assert "scipy" not in sys.modules, "imported by the attacker"
"""


def test_pseudosim_never_imports_scipy(scenarios_dir):
    src = str(Path(adv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(scenarios_dir),
                           str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _far_apart(tracklets, dx):
    return [dataclasses.replace(tr, pos_first=(tr.pos_first[0] + dx, tr.pos_first[1]),
                                pos_last=(tr.pos_last[0] + dx, tr.pos_last[1]))
            for tr in tracklets]


@pytest.mark.ci_budget
@given(st.integers(0, 2**32 - 1))
def test_an_epoch_of_two_far_apart_instances_solves_like_each_alone(seed):
    # no pair across the two instances is matchable, so they are separate
    # components; every epoch here has at most 24 tracklets, so one grid unit.
    # The union is solved as it is and with the whole epoch solved, not enumerated
    rng = np.random.default_rng(seed)
    model = MotionModel()
    near = random_instance(rng)
    far = [_far_apart(side, 1e6) for side in random_instance(rng)]
    alone = [associate_across_gap(*instance, model) for instance in (near, far)]
    union = associate_across_gap(near[0] + far[0], near[1] + far[1], model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adv, "_SMALL_EPOCH", 0)
        assert associate_across_gap(near[0] + far[0], near[1] + far[1], model) == union
    assert union.pairs == sorted(alone[0].pairs + alone[1].pairs)  # ties included
    union_ends, union_starts, union_total = assignment_outcome(
        union, near[0] + far[0], near[1] + far[1], model)
    (near_ends, near_starts, near_total), (far_ends, far_starts, far_total) = (
        assignment_outcome(a, *instance, model) for a, instance in zip(alone, (near, far)))
    assert union_ends == sorted(near_ends + far_ends)
    assert union_starts == sorted(near_starts + far_starts)
    assert dict(zip(union.pairs, union.pair_costs)) == {
        pair: cost for a in alone for pair, cost in zip(a.pairs, a.pair_costs)}
    assert union_total == pytest.approx(near_total + far_total)


def _best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


@pytest.mark.parametrize("n, bound_s", [(240, 0.1), (480, 0.5)])
def test_a_fully_tied_epoch_takes_one_solve_and_bounded_time(n, bound_s):
    # every pair ties, so every assignment of n pairs is optimal; the face walk
    # fixes ending k to starting k with no solve beyond the first
    model = MotionModel()
    endings = [mk_tracklet(f"e{k:03d}", 0.0, 1.0, pos_last=(5.0, 0.0), vel_last=(10.0, 0.0))
               for k in range(n)]
    startings = [mk_tracklet(f"s{k:03d}", 2.0, 3.0, pos_first=(16.0, 0.0)) for k in range(n)]
    elapsed, res = _best_time(lambda: associate_across_gap(endings, startings, model), 2)
    assert res.pairs == [(f"e{k:03d}", f"s{k:03d}") for k in range(n)]
    assert elapsed <= bound_s


def test_a_dense_random_epoch_is_solved_optimally_in_bounded_time():
    # 240 x 240 with every pair matchable: one component of 480 tracklets
    rng = np.random.default_rng(240)
    model = MotionModel(no_match_cost=1e6)
    endings = [mk_tracklet(f"e{k:03d}", 0.0, 1.0, pos_last=tuple(rng.uniform(-50, 50, 2)),
                           vel_last=tuple(rng.uniform(-10, 10, 2))) for k in range(240)]
    startings = [mk_tracklet(f"s{k:03d}", 2.0, 3.0, pos_first=tuple(rng.uniform(-50, 50, 2)))
                 for k in range(240)]
    grid, pad = adv._tie_grid(adv._cost_matrix(endings, startings, model), model.no_match_cost)
    assert (grid <= 2 * pad).all()
    elapsed, res = _best_time(lambda: associate_across_gap(endings, startings, model), 2)
    assert elapsed <= 1.0
    # scipy as an independent oracle: the same least grid total
    padded = np.full((480, 480), float(pad))
    padded[:240, :240] = grid
    padded[240:, 240:] = 0.0
    rows, cols = linear_sum_assignment(padded)
    starting = {tr.station_id: j for j, tr in enumerate(startings)}
    total = pad * (480 - 2 * len(res.pairs)) + sum(
        grid[int(e[1:]), starting[s]] for e, s in res.pairs)
    assert total == padded[rows, cols].sum()


# --- semantic matching ------------------------------------------------------------


def test_semantic_chains_non_overlapping_same_dimensions():
    a = mk_tracklet("aa", 0.0, 10.0, quasi_ids=(4.5, 1.8))
    b = mk_tracklet("bb", 12.0, 20.0, quasi_ids=(4.504, 1.796))  # same 0.01 bucket
    c = mk_tracklet("cc", 22.0, 30.0, quasi_ids=(4.5, 1.8))
    assert semantic_match([c, a, b]) == [("aa", "bb"), ("bb", "cc")]


def test_semantic_quantization_boundary():
    a = mk_tracklet("aa", 0.0, 10.0, quasi_ids=(4.5, 1.8))
    b = mk_tracklet("bb", 12.0, 20.0, quasi_ids=(4.506, 1.8))  # rounds to 4.51
    assert semantic_match([a, b]) == []


def test_semantic_overlap_makes_group_ambiguous():
    a = mk_tracklet("aa", 0.0, 10.0, quasi_ids=(4.5, 1.8))
    b = mk_tracklet("bb", 5.0, 20.0, quasi_ids=(4.5, 1.8))
    assert semantic_match([a, b]) == []
    # touching end/start counts as overlap too
    c = mk_tracklet("cc", 10.0, 20.0, quasi_ids=(4.5, 1.8))
    assert semantic_match([a, c]) == []


def test_semantic_ignores_missing_quasi_ids():
    a = mk_tracklet("aa", 0.0, 10.0, quasi_ids=None)
    b = mk_tracklet("bb", 12.0, 20.0, quasi_ids=None)
    assert semantic_match([a, b]) == []


# --- full pipeline -----------------------------------------------------------------


def test_link_kinematic_epoch_sweep_builds_chain():
    rows = (
        linear_track("aa", 0.0, 5.0, 0.0)          # ends at x=50 moving +10
        + linear_track("bb", 7.0, 12.0, 70.0)      # resumes exactly on extrapolation
        + linear_track("cc", 14.0, 20.0, 140.0)
    )
    store = store_of(*rows)
    result = link(store, MotionModel(), use_quasi_identifiers=False)
    assert result.semantic_pairs == []
    assert result.predicted_pairs == [("aa", "bb"), ("bb", "cc")]
    # "aa" was already explained when "cc" appeared, so only "bb" was a candidate
    assert [c.station_ids for c in result.chains] == [["aa", "bb", "cc"]]
    assert result.chains[0].score == 0.0


def test_link_semantic_takes_precedence_over_kinematics():
    rows = (
        linear_track("aa", 0.0, 5.0, 0.0, quasi=(4.5, 1.8))
        + linear_track("bb", 7.0, 12.0, 70.0, quasi=(4.5, 1.8))
    )
    result = link(store_of(*rows), MotionModel())
    assert result.semantic_pairs == [("aa", "bb")]
    assert result.predicted_pairs == [("aa", "bb")]
    assert result.assignments == []  # nothing left for the kinematic stage

    blind = link(store_of(*rows), MotionModel(), use_quasi_identifiers=False)
    assert blind.semantic_pairs == []
    assert blind.predicted_pairs == [("aa", "bb")]  # kinematics recovers it


def test_link_scopes_never_mix():
    cam = linear_track("aa", 0.0, 5.0, 0.0)
    denm = [obs("dd", 7.0, (70.0, 0.0), scope="DENM", quasi=None)]
    result = link(store_of(*(cam + denm)), MotionModel(), use_quasi_identifiers=False)
    # the DENM start is never explained by a CAM ending
    assert result.predicted_pairs == []


def test_link_gap_beyond_window_stays_unmatched():
    rows = linear_track("aa", 0.0, 5.0, 0.0) + linear_track("bb", 40.0, 45.0, 400.0)
    result = link(store_of(*rows), MotionModel(max_gap_s=30.0), use_quasi_identifiers=False)
    assert result.predicted_pairs == []


@st.composite
def _multi_epoch_store(draw):
    """Tracklets on a 0.5 s grid, so epochs share instants and gaps hit max_gap_s."""
    store = ObservationStore()
    for k in range(draw(st.integers(0, 14))):
        t0 = 0.5 * draw(st.integers(0, 120))
        t1 = t0 + 0.5 * draw(st.integers(0, 6))
        scope = draw(st.sampled_from(["CAM", "CAM", "DENM"]))
        quasi = draw(st.sampled_from([None, (4.5, 1.8), (4.0, 1.7)])) if scope == "CAM" else None
        x0 = draw(st.floats(-200.0, 200.0))
        vx = draw(st.sampled_from([-10.0, 0.0, 10.0, 25.0]))
        sid = f"{draw(st.integers(0, 2**32)):08x}{k:02d}"
        t = t0
        while t <= t1:
            store.observations.append(
                Observation(t, sid, scope, (x0 + vx * (t - t0), 0.0), (vx, 0.0), quasi))
            t += 0.5
    store.finalize()
    return store


@given(_multi_epoch_store(), st.sampled_from([30.0, 5.0, 2.5, 0.5]), st.booleans())
@settings(max_examples=150)
def test_link_matches_full_candidate_scan(store, max_gap, use_quasi):
    model = MotionModel(max_gap_s=max_gap)
    result = link(store, model, use_quasi_identifiers=use_quasi)
    predicted, assignments = link_full_scan(store, model, use_quasi)
    assert result.predicted_pairs == predicted
    assert result.assignments == assignments
    # chain scores sum the gap cost of each kinematic link in chain order
    by_id = {tr.station_id: tr for tr in result.tracklets}
    kinematic = {p for a in assignments for p in a.pairs}
    for chain in result.chains:
        score = 0.0
        for old, new in zip(chain.station_ids, chain.station_ids[1:]):
            if (old, new) in kinematic:
                score += gap_cost(by_id[old], by_id[new], model)
        assert chain.score == score


@pytest.mark.ci_budget
@given(_multi_epoch_store(), st.randoms(use_true_random=False),
       st.sampled_from([30.0, 2.5]), st.booleans())
@settings(max_examples=settings.default.max_examples * 5 // 2)  # 150 at the default profile
def test_link_is_unchanged_by_the_order_of_one_times_records(store, rnd, max_gap, use_quasi):
    """An id sends at most once per time, so no linkage reads the order within a time."""
    shuffled = ObservationStore()
    for _, records in itertools.groupby(store.observations, key=operator.attrgetter("t")):
        records = list(records)
        rnd.shuffle(records)
        shuffled.observations += records
    arrived = list(shuffled.observations)
    shuffled.finalize()
    assert shuffled.observations == arrived
    model = MotionModel(max_gap_s=max_gap)
    linked = [link(s, model, use_quasi_identifiers=use_quasi).to_json() for s in (shuffled, store)]
    assert linked[0] == linked[1]


# --- scoring ------------------------------------------------------------------------


def truth_for(owner_of, truth_pairs, changes=(), silence_of=None):
    return TruthData(
        owner_of=owner_of,
        truth_pairs=truth_pairs,
        changes=changes,
        silence_of=silence_of or {},
    )


def test_evaluate_attack_accuracy_counts_only_observed_pairs():
    rows = linear_track("aa", 0.0, 5.0, 0.0) + linear_track("bb", 7.0, 12.0, 70.0)
    result = link(store_of(*rows), MotionModel(), use_quasi_identifiers=False)
    truth = truth_for(
        {"aa": 1, "bb": 1, "zz": 1},
        [("aa", "bb"), ("bb", "zz")],  # "zz" was never heard
    )
    m = evaluate_attack(result, truth)
    assert m.n_truth_pairs == 1
    assert m.link_accuracy == 1.0
    assert m.n_predicted_pairs == 1


def test_evaluate_attack_traceability_longest_run():
    rows = (
        linear_track("aa", 0.0, 10.0, 0.0)
        + linear_track("bb", 11.0, 21.0, 110.0)
        + linear_track("cc", 60.0, 70.0, 600.0)  # 39 s gap: never linked
    )
    result = link(store_of(*rows), MotionModel(max_gap_s=30.0), use_quasi_identifiers=False)
    assert result.predicted_pairs == [("aa", "bb")]
    truth = truth_for({"aa": 1, "bb": 1, "cc": 1}, [("aa", "bb"), ("bb", "cc")])
    m = evaluate_attack(result, truth)
    assert m.link_accuracy == 0.5
    # longest correctly-chained run is aa+bb = 20 s of 30 s observed
    assert m.traceability == pytest.approx(20.0 / 30.0)


def test_evaluate_attack_traceability_reads_only_cam_tracklets():
    cams = (
        linear_track("aa", 0.0, 10.0, 0.0)
        + linear_track("bb", 11.0, 21.0, 110.0)
        + linear_track("cc", 60.0, 70.0, 600.0)
    )
    denms = [obs("dd", t, (300.0, 0.0), (0.0, 0.0), scope="DENM", quasi=None)
             for t in (30.0, 50.0)]
    model = MotionModel(max_gap_s=30.0)
    with_denm = link(store_of(*cams, *denms), model, use_quasi_identifiers=False)
    cam_only = link(store_of(*cams), model, use_quasi_identifiers=False)
    assert [tr.scope for tr in with_denm.tracklets].count("DENM") == 1
    owners = {"aa": 1, "bb": 1, "cc": 1, "dd": 1}  # the DENM's owner is known
    m = evaluate_attack(with_denm, truth_for(owners, [("aa", "bb"), ("bb", "cc")]))
    # aa+bb = 20 s of the 30 s of CAM tracklets; counting dd's 20 s would give 0.4
    assert m.traceability == pytest.approx(20.0 / 30.0)
    assert m.traceability == evaluate_attack(
        cam_only, truth_for(owners, [("aa", "bb"), ("bb", "cc")])).traceability


def test_evaluate_attack_traceability_skips_a_tracklet_of_no_known_vehicle():
    rows = (
        linear_track("aa", 0.0, 10.0, 0.0)
        + linear_track("bb", 11.0, 21.0, 110.0)
        + linear_track("cc", 60.0, 70.0, 600.0)
    )
    result = link(store_of(*rows), MotionModel(max_gap_s=30.0), use_quasi_identifiers=False)
    m = evaluate_attack(result, truth_for({"aa": 1, "bb": 1}, [("aa", "bb")]))
    # "cc" has no owner, so it is no vehicle's: aa+bb is all of vehicle 1's 20 s
    assert m.traceability == 1.0
    assert (m.n_truth_pairs, m.n_correct_pairs) == (1, 1)


def test_evaluate_attack_degenerate_cases_score_one():
    empty = link(ObservationStore(), MotionModel())
    m = evaluate_attack(empty, truth_for({}, []))
    assert m == AttackMetrics(1.0, 1.0, 1.0, 0, 0, 0)


def test_evaluate_attack_anonymity_sets():
    class Rec:
        def __init__(self, t, vehicle_id, position, silence_s):
            self.t = t
            self.vehicle_id = vehicle_id
            self.position = position
            self.silence_s = silence_s
            self.old_ids = {"CAM": "x"}

    changes = [Rec(10.0, 1, (0.0, 0.0), 2.0), Rec(11.0, 2, (100.0, 0.0), 2.0)]
    silence_of = {1: [(10.0, 12.0, (0.0, 0.0))], 2: [(11.0, 13.0, (100.0, 0.0))]}
    empty = link(ObservationStore(), MotionModel())

    # overlapping silences within 500 m: both changes hide among two vehicles
    m = evaluate_attack(empty, truth_for({}, [], changes, silence_of), anonymity_region_m=500.0)
    assert m.mean_anonymity_set == 2.0

    # shrink the region: each vehicle is alone
    m = evaluate_attack(empty, truth_for({}, [], changes, silence_of), anonymity_region_m=50.0)
    assert m.mean_anonymity_set == 1.0

    # zero silence still counts the change itself as a singleton set
    changes = [Rec(10.0, 1, (0.0, 0.0), 0.0)]
    m = evaluate_attack(empty, truth_for({}, [], changes, {}))
    assert m.mean_anonymity_set == 1.0


# offsets from a change position at, one ulp inside and one ulp outside 500 m,
# and far away
_RADIUS_OFFSETS = [
    (300.0, 400.0), (-300.0, 400.0), (500.0, 0.0), (0.0, -500.0),
    (300.0, math.nextafter(400.0, 0.0)), (300.0, math.nextafter(400.0, math.inf)),
    (math.nextafter(500.0, 0.0), 0.0), (math.nextafter(500.0, math.inf), 0.0),
    (0.0, 0.0), (353.5533905932738, 353.5533905932738), (1e200, 0.0),
    # dx*dx + dy*dy rounds above 500**2 although math.dist gives exactly 500
    (-15.922121808320032, 499.74642173518464), (493.62311285618796, 79.6003922990782),
]


@st.composite
def _silences(draw):
    center = st.sampled_from([(0.0, 0.0), (1000.0, -250.0), (0.1, 0.7)])
    offset = st.one_of(st.sampled_from(_RADIUS_OFFSETS),
                       st.tuples(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0)))
    changes, silence_of = [], {}
    for vid in range(1, draw(st.integers(1, 6)) + 1):
        for _ in range(draw(st.integers(0, 3))):
            t = 0.5 * draw(st.integers(0, 20))
            silence_s = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
            cx, cy = draw(center)
            dx, dy = draw(offset)
            pos = (cx + dx, cy + dy)
            changes.append(SimpleNamespace(
                t=t, silence_s=silence_s, position=draw(center),
                old_ids=draw(st.sampled_from([{"CAM": "x"}, {}]))))
            silence_of.setdefault(vid, []).append((t, t + silence_s, pos))
    return changes, silence_of


_BUDGETS = (adv._ANONYMITY_CELLS, 1, 2, 5)


def sizes_per_budget(changes, silence_of, region_m=500.0):
    """Budget -> ``_anonymity_set_sizes`` with chunks of that many cells, per ``_BUDGETS``."""
    out = {}
    for budget in _BUDGETS:
        with mock.patch.object(adv, "_ANONYMITY_CELLS", budget):
            out[budget] = adv._anonymity_set_sizes(truth_for({}, [], changes, silence_of), region_m)
    return out


@pytest.mark.ci_budget
@given(_silences(), st.sampled_from([500.0, 50.0, 1e-200, 1e300]))
@settings(max_examples=150)
def test_anonymity_set_sizes_match_the_interval_loop(silences, region_m):
    changes, silence_of = silences
    expected = anonymity_sizes_loop(changes, silence_of, region_m)
    assert sizes_per_budget(changes, silence_of, region_m) == dict.fromkeys(_BUDGETS, expected)


def test_anonymity_set_counts_points_on_the_radius():
    def rec(position):
        return SimpleNamespace(t=0.0, silence_s=1.0, position=position, old_ids={"CAM": "x"})

    silence_of = {
        1: [(0.0, 1.0, (0.0, 0.0))],
        2: [(0.0, 1.0, (300.0, 400.0))],  # exactly 500 m from the first change
        3: [(0.0, 1.0, (300.0, math.nextafter(400.0, 0.0)))],
        4: [(0.0, 1.0, (math.nextafter(500.0, math.inf), 0.0))],
        5: [(2.0, 3.0, (0.0, 0.0))],  # silent later: never overlaps
        6: [(0.0, 1.0, (-15.922121808320032, 499.74642173518464))],  # squares round past 500
    }
    changes = [rec((0.0, 0.0))]
    assert adv._anonymity_set_sizes(truth_for({}, [], changes, silence_of), 500.0) == [4]
    assert anonymity_sizes_loop(changes, silence_of, 500.0) == [4]


@st.composite
def _silences_on_a_clock(draw):
    """Changes on a 0.1 s clock, each with its silence interval as the engine keeps it.

    Starts coincide, silences may all be zero, an interval may end on the
    float another one starts at (0.1 + 0.2 is 3 * 0.1), and change positions
    lie on, just inside and just outside the radius of one another.
    """
    silences = [0.0] if draw(st.booleans()) else [0.0, 0.1, 0.2, 1.2000000010000003, 2.0]
    spot = st.sampled_from([(0.0, 0.0), *_RADIUS_OFFSETS])
    changes, silence_of = [], {}
    for vid in range(1, draw(st.integers(2, 6)) + 1):
        for _ in range(draw(st.integers(1, 3))):
            t = draw(st.integers(0, 12)) * 0.1
            silence_s, pos = draw(st.sampled_from(silences)), draw(spot)
            changes.append(SimpleNamespace(t=t, silence_s=silence_s, position=pos,
                                           old_ids={"CAM": "x"}))
            silence_of.setdefault(vid, []).append((t, t + silence_s, pos))
    return changes, silence_of


@pytest.mark.ci_budget
@given(_silences_on_a_clock())
@settings(max_examples=settings.default.max_examples * 5 // 2)  # 150 at the default profile
def test_anonymity_window_matches_the_interval_loop(silences):
    changes, silence_of = silences
    expected = anonymity_sizes_loop(changes, silence_of, 500.0)
    assert sizes_per_budget(changes, silence_of) == dict.fromkeys(_BUDGETS, expected)


def change_at(t, position=(0.0, 0.0), silence_s=1.0, old_ids=None):
    return SimpleNamespace(t=t, silence_s=silence_s, position=position,
                           old_ids={"CAM": "x"} if old_ids is None else old_ids)


def test_anonymity_sizes_without_an_old_id_are_empty():
    silence_of = {1: [(0.0, 1.0, (0.0, 0.0))]}
    assert adv._anonymity_set_sizes(truth_for({}, [], [], silence_of), 500.0) == []
    changes = [change_at(0.0, old_ids={}), change_at(5.0, old_ids={})]
    assert sizes_per_budget(changes, silence_of) == dict.fromkeys(_BUDGETS, [])


def test_anonymity_empty_window_between_full_ones():
    silence_of = {1: [(0.0, 1.0, (0.0, 0.0)), (9.0, 10.0, (0.0, 0.0))],
                  2: [(0.0, 1.0, (10.0, 0.0))]}
    # the middle change's window holds no interval at all, nor does one with no intervals
    changes = [change_at(0.0), change_at(4.0), change_at(9.0)]
    assert sizes_per_budget(changes, silence_of) == dict.fromkeys(_BUDGETS, [2, 1, 1])
    assert sizes_per_budget(changes, {}) == dict.fromkeys(_BUDGETS, [1, 1, 1])


def test_anonymity_window_larger_than_the_budget():
    silence_of = {vid: [(0.0, 1.0, (float(vid), 0.0))] for vid in range(8)}
    silence_of[8] = [(3.0, 4.0, (0.0, 0.0))]
    changes = [change_at(0.0), change_at(3.0), change_at(0.5, position=(1e4, 0.0))]
    expected = anonymity_sizes_loop(changes, silence_of)
    assert expected == [8, 1, 1]
    assert sizes_per_budget(changes, silence_of) == dict.fromkeys(_BUDGETS, expected)


def test_anonymity_owner_split_across_chunks(monkeypatch):
    # vehicle 1 is silent at 0 s and at 10 s (twice within the second window)
    silence_of = {
        1: [(0.0, 1.0, (0.0, 0.0)), (10.0, 11.0, (5.0, 0.0)), (10.5, 11.0, (6.0, 0.0))],
        2: [(0.0, 1.0, (20.0, 0.0))],
        3: [(10.0, 11.0, (30.0, 0.0))],
    }
    changes = [change_at(0.0), change_at(10.0)]
    expected = anonymity_sizes_loop(changes, silence_of)
    assert expected == [2, 2]
    assert sizes_per_budget(changes, silence_of) == dict.fromkeys(_BUDGETS, expected)

    # each chunk's (change, owner) flags stay within the budget
    flags = []

    def zeros(shape, dtype):
        flags.append(shape)
        return np.zeros(shape, dtype=dtype)

    monkeypatch.setattr(adv, "_ANONYMITY_CELLS", 6)
    monkeypatch.setattr(adv, "np", SimpleNamespace(**{**vars(np), "zeros": zeros}))
    assert adv._anonymity_set_sizes(truth_for({}, [], changes, silence_of), 500.0) == expected
    assert flags == [(2, 3)]
    flags.clear()
    monkeypatch.setattr(adv, "_ANONYMITY_CELLS", 5)
    assert adv._anonymity_set_sizes(truth_for({}, [], changes, silence_of), 500.0) == expected
    assert flags == [(1, 3), (1, 3)]


# --- relabeling and trace replay ------------------------------------------------------


def test_relabel_preserves_structure():
    rows = linear_track("aa", 0.0, 5.0, 0.0) + linear_track("bb", 7.0, 12.0, 70.0)
    store = store_of(*rows)
    store.notices.append(NoticeSighting(5.0, "aa", "CAM"))
    store.finalize()

    out, mapping = relabel_station_ids(store, np.random.default_rng(5))
    assert sorted(mapping) == ["aa", "bb"]
    assert len(set(mapping.values())) == 2
    assert {o.station_id for o in out.observations} == set(mapping.values())
    assert out.notices[0].station_id == mapping["aa"]
    assert len(out.observations) == len(store.observations)
    assert [o.t for o in out.observations] == sorted(o.t for o in store.observations)

    # linkage is isomorphic under the relabeling for a unique optimum
    base = link(store, MotionModel(), use_quasi_identifiers=False)
    relinked = link(out, MotionModel(), use_quasi_identifiers=False)
    mapped = [(mapping[a], mapping[b]) for a, b in base.predicted_pairs]
    assert relinked.predicted_pairs == mapped


def test_relabel_is_seed_deterministic():
    store = store_of(*linear_track("aa", 0.0, 5.0, 0.0))
    _, m1 = relabel_station_ids(store, np.random.default_rng(9))
    _, m2 = relabel_station_ids(store, np.random.default_rng(9))
    assert m1 == m2


def test_load_trace_roundtrip(tmp_path):
    rows = [
        {"kind": "CAM", "t": 0.1, "station_id": "aa", "x": 1.0, "y": 2.0,
         "vx": 10.0, "vy": 0.0, "sender_vehicle_id": 1, "quasi_ids": [4.5, 1.8]},
        {"kind": "DENM", "t": 0.2, "station_id": "dd", "x": 1.5, "y": 2.0,
         "vx": 0.0, "vy": 0.0, "sender_vehicle_id": 1, "quasi_ids": None},
        {"kind": "notice", "t": 0.3, "station_id": "aa", "scope": "CAM",
         "sender_vehicle_id": 1},
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    store = load_trace(str(path))
    assert len(store.observations) == 2
    cam = store.observations[0]
    assert (cam.station_id, cam.scope, cam.t) == ("aa", "CAM", 0.1)
    assert cam.position == (1.0, 2.0)
    assert cam.velocity == (10.0, 0.0)
    assert cam.quasi_ids == (4.5, 1.8)
    denm = store.observations[1]
    assert denm.scope == "DENM" and denm.quasi_ids is None
    assert store.notices == [NoticeSighting(0.3, "aa", "CAM")]


# signed zeros often: one field can hold 0.0 in one row and -0.0 in another
_num = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
_xy = st.tuples(_num, _num)
_sid = st.text("0123456789abcdef", min_size=1, max_size=16)
_broadcasts = st.lists(st.one_of(
    st.builds(Observation, _num, _sid, st.just("CAM"), _xy, _xy, st.none() | _xy),
    # a NamedTuple's defaulted fields would be drawn too: a DENM carries no motion
    st.builds(Observation, _num, _sid, st.just("DENM"), _xy, st.just((0.0, 0.0)), st.none()),
    st.builds(NoticeSighting, _num, _sid, st.sampled_from(["CAM", "DENM"])),
), max_size=30)


@pytest.mark.ci_budget
@given(_broadcasts, st.integers(0, 99))
@settings(max_examples=settings.default.max_examples * 5 // 2)  # 150 at the default profile
def test_trace_row_round_trips_through_load_trace(tmp_path_factory, records, sender):
    # the rows as ``pseudosim run --trace`` writes them
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_text("".join(
        json.dumps(adv.trace_row(sender, r), sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    ))
    store = load_trace(str(path))
    by_time = operator.attrgetter("t")  # records of one time stay in file order
    # repr, not ==: a -0.0 read back as 0.0 compares equal
    assert repr(store.observations) == repr(sorted(
        (r for r in records if type(r) is Observation), key=by_time
    ))
    assert repr(store.notices) == repr(sorted(
        (r for r in records if type(r) is NoticeSighting), key=by_time
    ))


def _write_lines(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_trace_rejects_trailing_data_on_a_line(tmp_path):
    row = json.dumps({"kind": "CAM", "t": 0.1, "station_id": "aa", "x": 1.0, "y": 2.0,
                      "vx": 10.0, "vy": 0.0})
    with pytest.raises(json.JSONDecodeError, match="Extra data"):
        load_trace(_write_lines(tmp_path, [row, f"{row} {row}"]))


def test_load_trace_skips_blank_lines_and_unknown_kinds(tmp_path):
    cam = {"kind": "CAM", "t": 1, "station_id": "aa", "x": 3, "y": -2, "vx": 10,
           "vy": 0, "quasi_ids": [4.5, 1.8]}
    path = _write_lines(tmp_path, [
        "", "   \t ", json.dumps({"kind": "lock", "t": 0.5, "vehicle_id": 1}),
        json.dumps({"t": 0.6, "station_id": "zz"}), f"  {json.dumps(cam)}  ",
        json.dumps({"kind": "notice", "t": 2, "station_id": "aa", "scope": "CAM"}),
    ])
    store = load_trace(path)
    assert len(store.observations) == 1
    o = store.observations[0]
    assert (o.t, o.position, o.velocity) == (1.0, (3.0, -2.0), (10.0, 0.0))
    # integer values in the file come back as floats
    assert all(type(v) is float for v in (o.t, *o.position, *o.velocity))
    assert store.notices == [NoticeSighting(2.0, "aa", "CAM")]
    assert type(store.notices[0].t) is float


def _unshared_read(path):
    """``load_trace``'s records built with nothing shared: each line's own
    ``json.loads`` values, with ``float`` where ``load_trace`` converts."""
    observations, notices = [], []
    with open(path, encoding="utf-8") as fh:
        for row in map(json.loads, filter(str.strip, fh)):
            if row["kind"] == "notice":
                notices.append(NoticeSighting(float(row["t"]), row["station_id"], row["scope"]))
                continue
            quasi = row.get("quasi_ids")
            observations.append(Observation(
                float(row["t"]), row["station_id"], row["kind"],
                (float(row["x"]), float(row["y"])), (float(row["vx"]), float(row["vy"])),
                None if quasi is None else tuple(quasi),
            ))
    by_time = operator.attrgetter("t")
    return sorted(observations, key=by_time), sorted(notices, key=by_time)


def test_load_trace_shares_only_values_that_are_identical(tmp_path):
    # equal is not identical: -0.0 == 0.0, 4 == 4.0 and 1 == True, so a store
    # that shared every equal value would print differently from the file
    def cam(sid, t, vx, vy, quasi):
        return json.dumps({"kind": "CAM", "t": t, "station_id": sid, "x": 1.0, "y": 2.0,
                           "vx": vx, "vy": vy, "quasi_ids": quasi})

    path = _write_lines(tmp_path, [
        cam("aa", 0.0, 0.0, -0.0, [0.0, -0.0]),
        cam("bb", -0.0, -0.0, 0.0, [-0.0, 0.0]),
        cam("aa", -0.0, -0.0, -0.0, [-0.0, -0.0]),
        cam("bb", 0.0, 0.0, 0.0, [0.0, 0.0]),
        cam("cc", 1.0, 10.0, 0.0, [4.0, 2.0]),
        cam("cc", 1.0, 10.0, 0.0, [4, 2]),
        cam("1", 2.0, 10.0, 0.0, [4.0, 2.0]),
        '{"kind": "notice", "t": -0.0, "station_id": "1", "scope": "CAM"}',
        '{"kind": "notice", "t": 0.0, "station_id": "1", "scope": "CAM"}',
    ])
    store = load_trace(path)
    assert repr((store.observations, store.notices)) == repr(_unshared_read(path))
    o = store.observations  # in file order: no time is out of order
    assert o[0].station_id is o[2].station_id and o[1].station_id is o[3].station_id
    assert o[4].t is o[5].t and o[4].velocity is o[5].velocity is o[6].velocity
    assert o[4].quasi_ids is o[6].quasi_ids


def test_load_trace_holds_a_few_hundred_bytes_per_row(tmp_path):
    # 40 vehicles x 150 ticks, a new id every 30 ticks, noisy positions: what
    # repeats (ids, times, velocities, quasi-ids) is held once
    rng = np.random.default_rng(3)
    rows = []
    for tick in range(150):
        noise = rng.normal(0.0, 1.0, size=(40, 2)).tolist()
        for vid in range(40):
            record = obs(f"{vid:04x}{tick // 30:012x}", tick / 10,
                         (vid * 40.0 + tick + noise[vid][0], 3.5 + noise[vid][1]),
                         (10.0 + vid / 4, 0.0), quasi=(4.0 + vid / 100, 1.8))
            rows.append(json.dumps(adv.trace_row(vid, record), sort_keys=True,
                                   separators=(",", ":")))
    path = _write_lines(tmp_path, rows)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = load_trace(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(store.observations) == 6000
    assert held / len(store.observations) <= 300  # about 557 with nothing shared


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_trace_rejects_non_finite_numbers(tmp_path, constant):
    # Python's json accepts these constants, and the solver would fail far from the file
    cam = {"kind": "CAM", "t": 0.1, "station_id": "aa", "x": 1.0, "y": 2.0,
           "vx": 10.0, "vy": 0.0}
    bad = json.dumps(cam).replace('"x": 1.0', f'"x": {constant}')
    path = _write_lines(tmp_path, [json.dumps(cam), "", bad])
    with pytest.raises(ValueError, match=f"line 3: non-finite number {constant}$"):
        load_trace(path)


@pytest.mark.parametrize("field, literal, shown", [
    ('"x": 1.0', '"x": 1e999', "inf"), ('"vy": 0.0', '"vy": -1e999', "-inf"),
    ('"t": 0.1', '"t": 1E400', "inf"), ("1.8]", "1e309]", "inf"),
])
def test_load_trace_rejects_numbers_that_overflow_to_infinity(tmp_path, field, literal, shown):
    # json turns such literals into inf without calling parse_constant
    cam = json.dumps({"kind": "CAM", "t": 0.1, "station_id": "aa", "x": 1.0, "y": 2.0,
                      "vx": 10.0, "vy": 0.0, "quasi_ids": [4.5, 1.8]})
    path = _write_lines(tmp_path, [cam, cam.replace(field, literal)])
    with pytest.raises(ValueError, match=f"line 2: non-finite number {shown}$"):
        load_trace(path)
    notice = '{"kind": "notice", "t": 1e999, "station_id": "aa", "scope": "CAM"}'
    with pytest.raises(ValueError, match="line 1: non-finite number inf$"):
        load_trace(_write_lines(tmp_path, [notice]))


@pytest.mark.ci_budget
@pytest.mark.parametrize("field, literal, message", [
    # float() would read a string: "nan" as NaN, "4.5" as 4.5
    ('"x": 1.0', '"x": "nan"', "x is not a finite number: 'nan'"),
    ('"t": 0.1', '"t": "0.1"', "t is not a finite number: '0.1'"),
    ('"vy": 0.0', '"vy": null', "vy is not a finite number: None"),
    ('"x": 1.0', '"x": ' + "9" * 400, f"x is not a finite number: {'9' * 400}"),
    # link would fail far from the file, in semantic_match
    ("[4.5, 1.8]", '["4.5", 1.8]', "quasi_ids[0] is not a finite number: '4.5'"),
    ("[4.5, 1.8]", "[4.5]", "quasi_ids is not a pair of finite numbers: [4.5]"),
    ("[4.5, 1.8]", "[4.5, 1.8, 2.0]",
     "quasi_ids is not a pair of finite numbers: [4.5, 1.8, 2.0]"),
    ("[4.5, 1.8]", "[4.5, [1.8]]", "quasi_ids[1] is not a finite number: [1.8]"),
    ("[4.5, 1.8]", '"4.5 1.8"', "quasi_ids is not a pair of finite numbers: '4.5 1.8'"),
    ("[4.5, 1.8]", "4.5", "quasi_ids is not a pair of finite numbers: 4.5"),
], ids=["x-nan-string", "t-string", "vy-null", "x-int-too-large", "quasi-string",
        "quasi-one", "quasi-three", "quasi-nested", "quasi-string-whole", "quasi-number"])
def test_load_trace_rejects_a_value_that_is_not_a_number(tmp_path, field, literal, message):
    cam = json.dumps({"kind": "CAM", "t": 0.1, "station_id": "aa", "x": 1.0, "y": 2.0,
                      "vx": 10.0, "vy": 0.0, "quasi_ids": [4.5, 1.8]})
    bad = cam.replace(field, literal)
    assert bad != cam
    with pytest.raises(ValueError, match=f"line 2: {re.escape(message)}$"):
        load_trace(_write_lines(tmp_path, [cam, bad]))
    notice = '{"kind": "notice", "t": "nan", "station_id": "aa", "scope": "CAM"}'
    with pytest.raises(ValueError, match="line 1: t is not a finite number: 'nan'$"):
        load_trace(_write_lines(tmp_path, [notice]))


def _readable_row(kind):
    if kind == "notice":
        return {"kind": kind, "t": 0.1, "station_id": "1", "scope": "CAM"}
    return {"kind": kind, "t": 0.1, "station_id": "1", "x": 1.0, "y": 2.0, "vx": 10.0, "vy": 0.0}


@pytest.mark.parametrize("kind", ["CAM", "DENM", "notice"])
@pytest.mark.parametrize("change, message", [
    # a file that mixed "1" and 1 once loaded, and link then failed in build_tracklets
    ({"station_id": 1}, "station_id is not a string: 1"),
    ({"station_id": True}, "station_id is not a string: True"),
    ({"station_id": None}, "station_id is not a string: None"),
    ({"station_id": ...}, "missing field station_id"),
    ({"t": ...}, "missing field t"),
], ids=["id-int", "id-true", "id-null", "no-id", "no-t"])
def test_load_trace_rejects_a_station_id_that_is_not_a_string_or_a_missing_field(
    tmp_path, kind, change, message
):
    good = _readable_row(kind)
    bad = {key: change.get(key, value) for key, value in good.items() if change.get(key) is not ...}
    path = _write_lines(tmp_path, [json.dumps(good), json.dumps(bad)])
    with pytest.raises(ValueError, match=f"line 2: {re.escape(message)}$"):
        load_trace(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "2", "null"])
def test_load_trace_rejects_a_row_that_is_not_an_object(tmp_path, line):
    good = json.dumps(_readable_row("CAM"))
    message = f"line 2: not a JSON object: {re.escape(repr(json.loads(line)))}$"
    with pytest.raises(ValueError, match=message):
        load_trace(_write_lines(tmp_path, [good, line]))


@pytest.mark.parametrize("kind, missing", [
    ("CAM", "x"), ("CAM", "vy"), ("DENM", "y"), ("notice", "scope")])
def test_load_trace_names_a_missing_field(tmp_path, kind, missing):
    row = _readable_row(kind)
    del row[missing]
    with pytest.raises(ValueError, match=f"line 1: missing field {missing}$"):
        load_trace(_write_lines(tmp_path, [json.dumps(row)]))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_trace_leaves_the_collector_as_it_found_it(tmp_path, enabled, monkeypatch):
    cam = json.dumps({"kind": "CAM", "t": 0.1, "station_id": "aa", "x": 1.0, "y": 2.0,
                      "vx": 10.0, "vy": 0.0})
    seen = []
    real_decoder = json.JSONDecoder

    class Spy(real_decoder):  # records the collector's state while rows are decoded
        def raw_decode(self, s, idx=0):
            seen.append(gc.isenabled())
            return super().raw_decode(s, idx)

    monkeypatch.setattr(adv.json, "JSONDecoder", Spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_trace(_write_lines(tmp_path, [cam]))
        assert gc.isenabled() is enabled
        with pytest.raises(json.JSONDecodeError):
            load_trace(_write_lines(tmp_path, [cam, "{"]))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # paused while the store was built


@pytest.mark.parametrize("field, value", [
    ("sigma0_m", 0.0), ("sigma0_m", -1.0), ("sigma0_m", math.inf), ("sigma0_m", math.nan),
    ("beta_m_per_s", -0.5), ("beta_m_per_s", math.inf), ("beta_m_per_s", math.nan),
    ("no_match_cost", 0.0), ("no_match_cost", -1.0), ("no_match_cost", math.nan),
    ("max_gap_s", 0.0), ("max_gap_s", -3.0), ("max_gap_s", math.nan),
])
def test_motion_model_rejects_out_of_range_parameters(field, value):
    with pytest.raises(ValueError, match=f"MotionModel.{field} out of range"):
        MotionModel(**{field: value})


@pytest.mark.parametrize("no_match_cost", [math.inf, 5e-324, 2.0**-1045])
def test_motion_model_rejects_a_no_match_cost_without_a_grid_unit(no_match_cost):
    # a grid unit, no_match_cost / 2**30, of inf or 0 made an infeasible or a
    # zero cost NaN on the tie grid: every grid is now free of NaN
    with pytest.raises(ValueError, match="MotionModel.no_match_cost out of range"):
        MotionModel(no_match_cost=no_match_cost)
    model = MotionModel(no_match_cost=2.0**-1044)  # the least unit left: 2**-1074
    endings = [mk_tracklet(f"e{i}", 0.0, 1.0, pos_last=(10.0 * i, 0.0)) for i in range(4)]
    startings = [mk_tracklet(f"s{i}", 0.5 if i == 1 else 2.0, 3.0, pos_first=(10.0 * i, 0.0))
                 for i in range(4)]  # s1 starts before every ending ends
    grid, _ = adv._tie_grid(adv._cost_matrix(endings, startings, model), model.no_match_cost)
    assert not np.isnan(grid).any()
    pairs = associate_across_gap(endings, startings, model).pairs
    assert pairs == [("e0", "s0"), ("e2", "s2"), ("e3", "s3")]  # the zero-cost continuations


def test_motion_model_validates_before_any_cost_is_computed():
    # a zero sigma used to divide by zero in gap_cost and in every small epoch
    with pytest.raises(ValueError, match="sigma0_m"):
        MotionModel(0.0, 0.0)
    model = MotionModel(sigma0_m=1e-6, beta_m_per_s=0.0, no_match_cost=1e300, max_gap_s=1e-9)
    assert model.beta_m_per_s == 0.0
