"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE NN <name>: PASS/FAIL`` line (run with
``pytest -s`` to see them on success). The checks are deliberately
independent of the implementation: brute-force oracles, re-derived
ground truth, and byte-level artifact comparison.
"""

import csv
import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

from conftest import SUITE
from oracle_support import (
    assignment_outcome,
    random_instance,
    relabel_station_ids,
    solve_exhaustive,
)
from pseudosim import cli, run_scenario
from pseudosim.adversary import (
    MotionModel,
    associate_across_gap,
    gap_cost,
    link,
)
from pseudosim.mobility import TripState
from pseudosim.sba import (
    SCHEME_ASYMMETRIC,
    SCHEME_MAC,
    SERVICE_AT_PROVISION,
    SERVICE_V2X_MESSAGING,
    AccessPolicy,
    AdditionalScope,
    AppScope,
    AsymmetricTokenSigner,
    MacTokenSigner,
    NetworkRepository,
    NfProfile,
    NfType,
    TokenClaims,
    VerificationError,
    issue_token,
    verify_access_token,
)
from pseudosim.strategy import LockLedger, SegmentPolicy, evaluate_change_trigger, rearm_trigger


class _Criterion:
    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num:02d} {self.name}: {status}")
        return False


def criterion(num, name):
    return _Criterion(num, name)


def truth_pairs_of(change_records):
    pairs = []
    for rec in change_records:
        for scope, old in sorted(rec.old_ids.items()):
            pairs.append((old, rec.new_ids[scope]))
    return pairs


@pytest.fixture(scope="module")
def suite(run_cached):
    return {name: run_cached(name) for name in SUITE}


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_B64_CHARS = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)


def test_criterion_01_token_forgery_rejection():
    with criterion(1, "token_forgery_rejection"):
        mac = MacTokenSigner(b"\x42" * 32)
        asym = AsymmetricTokenSigner(b"\x07" * 32)
        verifiers = {SCHEME_MAC: mac, SCHEME_ASYMMETRIC: asym}
        producer = NfProfile("af-1", NfType.V2X_AF, (SERVICE_V2X_MESSAGING,))
        claims = TokenClaims(
            issuer="nrf-1",
            subject="amf-1",
            audience="V2X_AF",
            scope=(SERVICE_V2X_MESSAGING,),
            expiration=600.0,
        )
        wire_mac = issue_token(claims, mac).serialize()
        wire_asym = issue_token(claims, asym).serialize()

        attempted = rejected = 0
        start = time.perf_counter()
        # every single-character substitution of the full MAC wire form
        for pos in range(len(wire_mac)):
            original = wire_mac[pos]
            for ch in _B64_CHARS + ".=":
                if ch == original:
                    continue
                mutated = wire_mac[:pos] + ch + wire_mac[pos + 1 :]
                attempted += 1
                try:
                    verify_access_token(
                        mutated, producer, SERVICE_V2X_MESSAGING, 10.0, verifiers
                    )
                except VerificationError:
                    rejected += 1
        # a sample of substitutions on the asymmetric wire form
        for pos in range(len(wire_asym)):
            original = wire_asym[pos]
            for ch in "A-5":
                if ch == original:
                    continue
                mutated = wire_asym[:pos] + ch + wire_asym[pos + 1 :]
                attempted += 1
                try:
                    verify_access_token(
                        mutated, producer, SERVICE_V2X_MESSAGING, 10.0, verifiers
                    )
                except VerificationError:
                    rejected += 1
        elapsed = time.perf_counter() - start

        assert attempted >= 10_000
        assert rejected == attempted
        assert elapsed < 5.0

        # unmutated tokens keep verifying across their lifetime
        for i in range(25):
            now = 23.0 * i  # < 600
            assert verify_access_token(
                wire_mac, producer, SERVICE_V2X_MESSAGING, now, verifiers
            ) == claims
            assert verify_access_token(
                wire_asym, producer, SERVICE_V2X_MESSAGING, now, verifiers
            ) == claims


def test_criterion_02_token_claims_correctness():
    with criterion(2, "token_claims_correctness"):
        field_names = {f.name for f in dataclasses.fields(TokenClaims)}
        assert field_names == {
            "issuer", "subject", "audience", "scope", "expiration", "additional_scope",
        }

        extra = (AdditionalScope("v2x-sessions", ("create", "notify")),)
        policies = [
            AccessPolicy(NfType.AMF, NfType.V2X_AF, (SERVICE_V2X_MESSAGING,), extra),
            AccessPolicy(NfType.EA, NfType.AA, (SERVICE_AT_PROVISION,)),
        ]
        signer = MacTokenSigner(b"\x13" * 32)
        verifiers = {SCHEME_MAC: signer}
        ttls = (60.0, 300.0, 17.5, 1200.0)
        nrfs = []
        for k, ttl in enumerate(ttls):
            nrf = NetworkRepository(f"nrf-{k}", signer, policies, ttl)
            nrf.register_nf(NfProfile("amf-1", NfType.AMF, ()))
            nrf.register_nf(NfProfile("ea-1", NfType.EA, ()))
            nrfs.append(nrf)
        af = NfProfile("af-1", NfType.V2X_AF, (SERVICE_V2X_MESSAGING,))
        aa = NfProfile("aa-1", NfType.AA, (SERVICE_AT_PROVISION,))

        checked = 0
        violations = []
        for i in range(1000):
            ttl = ttls[i % 4]
            nrf = nrfs[i % 4]
            now = 0.125 * i
            if i % 2 == 0:
                consumer, scope, target = "amf-1", [SERVICE_V2X_MESSAGING], NfType.V2X_AF
                producer, service, want_extra = af, SERVICE_V2X_MESSAGING, extra
            else:
                consumer, scope, target = "ea-1", [SERVICE_AT_PROVISION], NfType.AA
                producer, service, want_extra = aa, SERVICE_AT_PROVISION, ()
            token = nrf.request_access_token(consumer, scope, target, now)
            c = token.claims
            checks = [
                c.issuer == nrf.instance_id,
                c.subject == consumer,
                c.audience == target.value,
                c.scope == tuple(scope),
                c.expiration == now + ttl,  # exact, no tolerance
                c.additional_scope == want_extra,
                verify_access_token(token.serialize(), producer, service, now, verifiers) == c,
            ]
            if not all(checks):
                violations.append((i, checks))
            checked += 1
        assert checked == 1000
        assert violations == []


def test_criterion_03_baseline_relinking(scenarios_dir):
    with criterion(3, "baseline_relinking"):
        start = time.perf_counter()
        r = run_scenario(str(scenarios_dir / "baseline_single.json"))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0

        assert r.summary["privacy"]["link_accuracy"] == 1.0
        assert r.summary["privacy"]["traceability"] == 1.0

        # a kinematics-only attacker (no quasi identifiers) does just as well
        truth = truth_pairs_of(r.change_records)
        blind = link(r.store, use_quasi_identifiers=False)
        assert set(blind.predicted_pairs) == set(truth)


def test_criterion_04_symmetric_tie_break(suite):
    with criterion(4, "symmetric_tie_break"):
        r = suite["symmetric_crossing.json"]
        truth = truth_pairs_of(r.change_records)
        assert len(truth) == 2
        model = MotionModel()
        rng = np.random.default_rng(404)

        accuracies = []
        start = time.perf_counter()
        for _ in range(1000):
            store, mapping = relabel_station_ids(r.store, rng)
            res = link(store)
            assert res.semantic_pairs == []

            trs = sorted(res.tracklets, key=lambda tr: (tr.t_first, tr.station_id))
            assert len(trs) == 4
            endings, startings = trs[:2], trs[2:]
            assert {tr.t_first for tr in endings} == {0.0}
            assert {tr.t_first for tr in startings} == {12.0}
            # the crossing is mirror symmetric: all four costs exactly tie
            costs = {gap_cost(e, s, model) for e in endings for s in startings}
            assert len(costs) == 1

            oracle = solve_exhaustive(endings, startings, model)
            assert oracle.n_optima == 2
            assert len(res.assignments) == 1
            a = res.assignments[0]
            assert assignment_outcome(a, endings, startings, model)[2] == oracle.total
            assert sorted(a.pairs) == sorted(oracle.pairs)

            predicted = set(res.predicted_pairs)
            correct = sum(
                (mapping[old], mapping[new]) in predicted for old, new in truth
            )
            acc = correct / len(truth)
            assert acc in (0.0, 1.0)  # swap or perfect, nothing between
            accuracies.append(acc)
        elapsed = time.perf_counter() - start

        mean = sum(accuracies) / len(accuracies)
        assert 0.45 <= mean <= 0.55
        assert elapsed < 30.0


def test_criterion_05_silence_monotonicity(silence_sweep):
    with criterion(5, "silence_monotonicity"):
        rows = _read_rows(silence_sweep / "metrics.csv")
        means = [r for r in rows if r["kind"] == "mean"]
        assert [r["cell"] for r in means] == [
            "policy.silence_s=0.0",
            "policy.silence_s=1.0",
            "policy.silence_s=2.0",
            "policy.silence_s=5.0",
        ]
        acc = [float(r["link_accuracy"]) for r in means]
        assert all(a >= b for a, b in zip(acc, acc[1:]))  # non-increasing
        assert acc[0] == 1.0  # no silence: the attacker wins outright
        assert all(0.3 <= a <= 0.6 for a in acc[1:])  # any gap: near coin flip


def test_criterion_06_lock_caps():
    with criterion(6, "lock_caps"):
        rng = np.random.default_rng(6)
        n_requests = 0
        n_grants = 0
        reasons = Counter()

        def always(app, t):
            return True

        for _ in range(400):
            ledger = LockLedger(renewal_threshold=int(rng.integers(1, 5)))
            validity = float(rng.uniform(20_000.0, 40_000.0))

            n = 250
            small = rng.uniform(0.0, 30.0, n)
            large = rng.uniform(200.0, 500.0, n)
            gaps = np.where(rng.random(n) < 0.7, small, large)
            durations = rng.uniform(1.0, 300.0, n)
            durations[rng.random(n) < 0.05] = 255.0
            neg = rng.random(n) < 0.05
            durations[neg] = rng.uniform(-5.0, 0.0, n)[neg]
            apps = rng.integers(0, 3, n)
            use_validator = rng.random(n) < 0.5

            now = 0.0
            grants = []
            for k in range(n):
                now += float(gaps[k])
                duration = float(durations[k])
                dec = ledger.request(
                    f"app-{apps[k]}",
                    duration,
                    now,
                    validity,
                    validator=always if use_validator[k] else None,
                )
                n_requests += 1
                if dec.granted:
                    grants.append((now, now + duration))
                    n_grants += 1
                else:
                    reasons[dec.reason] += 1

            # independent oracle over the granted intervals
            merged_start = merged_end = None
            for s, e in grants:
                assert e - s <= 255.0 + 1e-9
                assert e <= validity + 1e-6
                if merged_end is not None and s <= merged_end + 1e-9:
                    merged_end = max(merged_end, e)
                else:
                    if merged_end is not None:
                        assert merged_end - merged_start <= 900.0 + 1e-6
                    merged_start, merged_end = s, e
            if merged_end is not None:
                assert merged_end - merged_start <= 900.0 + 1e-6

        assert n_requests == 100_000
        assert n_grants >= 5_000
        # every denial path actually exercised
        assert set(reasons) == {
            "invalid_duration",
            "over_max_single",
            "over_cumulative",
            "past_pseudonym_validity",
            "network_rejected",
        }


def test_criterion_07_pool_floor_and_sybil(suite, silence_sweep):
    with criterion(7, "pool_floor_and_sybil"):
        for name, r in suite.items():
            assert r.summary["safety"]["min_valid_tickets"] >= 2, name
            assert r.summary["safety"]["sybil_violations"] == 0, name
        runs = [
            r for r in _read_rows(silence_sweep / "metrics.csv") if r["kind"] == "run"
        ]
        assert len(runs) == 80
        for row in runs:
            assert int(row["min_valid_tickets"]) >= 2, row["run_id"]
            assert int(row["sybil_violations"]) == 0, row["run_id"]


def test_criterion_08_ghost_regression(suite):
    with criterion(8, "ghost_regression"):
        off = suite["ghost_regression_notify_off.json"].summary
        on = suite["ghost_regression_notify_on.json"].summary
        assert off["safety"]["ghost_ticks"] >= 1
        assert off["safety"]["ghost_entries_total"] >= 1
        assert on["safety"]["ghost_ticks"] == 0
        assert on["safety"]["ghost_entries_total"] == 0
        assert on["counters"]["notices_sent"] >= 1


def test_criterion_09_fleet_switch_latency(suite):
    with criterion(9, "fleet_switch_latency"):
        r = suite["latency_fleet.json"]
        s = r.summary
        assert s["n_changes"] >= 1000
        assert s["safety"]["max_stack_switch_gap_s"] <= 0.2

        # recompute every switch gap from the raw observations
        first_seen = {}
        last_seen = {}
        for obs in r.store.observations:
            if obs.scope != "CAM":
                continue
            sid = obs.station_id
            if sid not in first_seen:
                first_seen[sid] = obs.t
            last_seen[sid] = obs.t
        gaps = []
        for rec in r.change_records:
            old = rec.old_ids[AppScope.CAM]
            new = rec.new_ids[AppScope.CAM]
            assert old in last_seen and new in first_seen, rec.t
            gaps.append(first_seen[new] - last_seen[old])
        assert len(gaps) == s["n_changes"]
        assert all(g <= 0.2 for g in gaps)
        assert max(gaps) == s["safety"]["max_stack_switch_gap_s"]


def test_criterion_10_segment_thresholds():
    with criterion(10, "segment_thresholds"):
        rng = np.random.default_rng(10)
        policy = SegmentPolicy()
        second_thresholds = []
        time_thresholds = []

        # event-driven: drive the odometers, and a clock of the seconds since the
        # last change, to exactly straddle each threshold
        for _ in range(1000):
            speed = float(rng.uniform(8.0, 25.0))
            trip = TripState()
            trigger = rearm_trigger(policy, 0, rng)
            assert evaluate_change_trigger(policy, trip, trigger, 0.0, since_s=0.0)
            trip.note_change()

            trigger = rearm_trigger(policy, trip.changes_this_trip, rng)
            d2 = trigger.threshold_distance_m
            assert trigger.threshold_time_s is None
            assert 800.0 <= d2 <= 1500.0
            second_thresholds.append(d2)
            trip.advance(d2 - 0.5)
            elapsed = (d2 - 0.5) / speed
            assert not evaluate_change_trigger(policy, trip, trigger, 0.0, since_s=elapsed)
            trip.advance(0.5)
            elapsed += 0.5 / speed
            assert evaluate_change_trigger(policy, trip, trigger, 0.0, since_s=elapsed)
            assert 800.0 - 1e-6 <= trip.odometer_trip_m <= 1500.0 + 1e-6
            trip.note_change()

            for _k in range(4):
                trigger = rearm_trigger(policy, trip.changes_this_trip, rng)
                assert trigger.threshold_distance_m == 800.0
                t_req = trigger.threshold_time_s
                assert 120.0 <= t_req <= 360.0
                time_thresholds.append(t_req)
                # at speeds >= 8 the distance leg clears first, time binds
                trip.advance(speed * (t_req - 0.25))
                elapsed = t_req - 0.25
                assert not evaluate_change_trigger(policy, trip, trigger, 0.0, since_s=elapsed)
                trip.advance(speed * 0.25)
                elapsed += 0.25
                assert evaluate_change_trigger(policy, trip, trigger, 0.0, since_s=elapsed)
                assert trip.odometer_since_change_m >= 800.0 - 1e-6
                assert elapsed >= 120.0 - 1e-6
                assert elapsed <= 360.0 + 1e-6
                trip.note_change()

        # the samplers cover their ranges rather than pinning one value
        assert min(second_thresholds) < 900.0 and max(second_thresholds) > 1400.0
        assert min(time_thresholds) < 150.0 and max(time_thresholds) > 330.0

        # tick-driven: discrete stepping may overshoot by at most one step
        dt = 0.25
        for _ in range(150):
            speed = float(rng.uniform(8.0, 25.0))
            trip = TripState()
            assert evaluate_change_trigger(policy, trip, rearm_trigger(policy, 0, rng), 0.0,
                                           since_s=0.0)
            trip.note_change()
            for _k in range(3):
                trigger = rearm_trigger(policy, trip.changes_this_trip, rng)
                steps, elapsed = 0, 0.0
                while not evaluate_change_trigger(policy, trip, trigger, 0.0, since_s=elapsed):
                    trip.advance(speed * dt)
                    elapsed += dt
                    steps += 1
                    assert steps < 10_000
                if trip.changes_this_trip == 1:
                    assert trip.odometer_trip_m >= 800.0 - 1e-9
                    assert trip.odometer_trip_m <= 1500.0 + speed * dt
                else:
                    assert trip.odometer_since_change_m >= 800.0 - 1e-9
                    assert elapsed >= 120.0 - 1e-9
                    assert elapsed <= 360.0 + dt
                trip.note_change()


def test_criterion_11_assignment_optimality():
    with criterion(11, "assignment_optimality"):
        rng = np.random.default_rng(11)
        model = MotionModel()
        unique = ties = with_pairs = with_unmatched = 0
        for _ in range(520):
            endings, startings = random_instance(rng)
            prod = associate_across_gap(endings, startings, model)
            oracle = solve_exhaustive(endings, startings, model)
            assert prod.pairs == oracle.pairs  # ties included
            unmatched_endings, unmatched_startings, total = assignment_outcome(
                prod, endings, startings, model)
            assert total == oracle.total == oracle.float_min  # exact float equality
            if oracle.n_optima == 1:
                unique += 1
            else:
                ties += 1
            if prod.pairs:
                with_pairs += 1
            if unmatched_endings or unmatched_startings:
                with_unmatched += 1
        assert unique >= 100
        assert ties >= 5
        assert with_pairs >= 100
        assert with_unmatched >= 100


def test_criterion_12_determinism(suite, scenarios_dir, silence_sweep, tmp_path):
    with criterion(12, "determinism"):
        # every scenario reruns to byte-identical summaries
        for name, cached in suite.items():
            fresh = run_scenario(str(scenarios_dir / name))
            assert fresh.summary_json() == cached.summary_json(), name

        # the sweep is byte-identical at any parallelism
        spec = str(scenarios_dir / "sweeps" / "silence_sweep.json")
        serial = tmp_path / "serial"
        wide = tmp_path / "wide"
        assert cli.main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
        assert cli.main(
            ["sweep", "--spec", spec, "--out", str(wide), "--parallel", "8"]
        ) == 0
        for out in (wide, silence_sweep):
            for rel in ("metrics.csv", "sweep_manifest.json"):
                assert (serial / rel).read_bytes() == (out / rel).read_bytes()
            names = sorted(p.name for p in (serial / "summaries").iterdir())
            assert names == sorted(p.name for p in (out / "summaries").iterdir())
            for n in names:
                assert (serial / "summaries" / n).read_bytes() == (
                    out / "summaries" / n
                ).read_bytes()
