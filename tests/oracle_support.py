"""Reference implementations the attacker's and the engine's fast paths are checked against.

Hand-rolled brute force oracle for the gap assignment step.

Independent of scipy on purpose: enumerates every injective partial
matching between ending and starting tracklets and keeps the least one
on the production tie grid (``adversary._tie_grid``, so a tie is defined
once), ties going to the lexicographically least. Float totals are summed
in the same row order as the production code, so they are comparable
with == rather than a tolerance.

Only usable for small instances (intended for up to 6 tracklets per
side, about 13k matchings).

``production_order_total`` is the one definition of an assignment's float
total, and ``assignment_outcome`` reads it, with the unmatched ids, off a
``GapAssignment``. ``relabel_station_ids`` renames every station id at
random, to see a tie-break fall either way.

``anonymity_sizes_loop``, ``build_tracklets_loop`` and ``link_full_scan``
keep the original loop forms of the anonymity-set count, of tracklet
chaining and of ``link``'s candidate selection. ``ScanScope`` and
``ScanPool`` are a ticket pool that scans every ticket ever issued at each
query, and ``ReferenceEngine`` runs the tick loop in that per-tick form: all
five phases on every tick, every vehicle stepped by ``step_kinematics``, its
change trigger, ticket expiry and ``ScanPool`` polled, every CAM checked
against its ticket, every neighbour list a ``region_query`` over the other
vehicles, loss drawn and ``LocalDynamicMap.receive`` called per delivery,
every LDM rescored by ``ldm_quality``, and every heard beacon logged by
``FullLogEavesdropper``. The radio rules have no second form here: the
neighbour lists and the LDM are ``src/``'s own definitions.
"""

import math
from dataclasses import dataclass

import numpy as np

from pseudosim import adversary as adv
from pseudosim import beaconing as bcn
from pseudosim import mobility as mob
from pseudosim import strategy as strat
from pseudosim.adversary import (
    MotionModel,
    Tracklet,
    _tie_grid,
    associate_across_gap,
    build_tracklets,
    gap_cost,
    semantic_match,
)
from pseudosim.engine import TRIGGER_INITIAL, TRIGGER_TICKET_EXPIRY, SimulationEngine, _Vehicle
from pseudosim.sba import AppScope, Supi


def mk_tracklet(
    station_id,
    t_first,
    t_last,
    pos_first=(0.0, 0.0),
    pos_last=(0.0, 0.0),
    vel_last=(0.0, 0.0),
    scope="CAM",
    quasi_ids=None,
):
    return Tracklet(
        station_id=station_id,
        scope=scope,
        t_first=float(t_first),
        t_last=float(t_last),
        pos_first=(float(pos_first[0]), float(pos_first[1])),
        pos_last=(float(pos_last[0]), float(pos_last[1])),
        vel_last=(float(vel_last[0]), float(vel_last[1])),
        quasi_ids=quasi_ids,
    )


@dataclass
class OracleResult:
    pairs: list  # [(ending_id, starting_id)] of the canonical optimum
    total: float  # float total of the canonical optimum, in production order
    n_optima: int  # assignments of least total on the tie grid
    assign: tuple  # per ending row: starting index or None
    float_min: float  # least float total over every assignment


def _all_assignments(n_e, n_s, feasible):
    # depth-first over rows; each row either stays unmatched or takes a
    # feasible unused column
    def rec(i, used, acc):
        if i == n_e:
            yield tuple(acc)
            return
        acc.append(None)
        yield from rec(i + 1, used, acc)
        acc.pop()
        for j in range(n_s):
            if j not in used and feasible[i][j]:
                used.add(j)
                acc.append(j)
                yield from rec(i + 1, used, acc)
                acc.pop()
                used.discard(j)

    yield from rec(0, set(), [])


def production_order_total(cost_rows, assign, no_match, n_s):
    """The float total of an assignment, summed in one fixed order so that
    equal assignments give equal floats: matched rows in row order, one
    no_match per unmatched row, then a single product for the unmatched
    starting columns."""
    total = 0.0
    matched = 0
    for i, j in enumerate(assign):
        if j is None:
            total += no_match
        else:
            total += cost_rows[i][j]
            matched += 1
    total += no_match * (n_s - matched)
    return total


def assignment_outcome(assignment, endings, startings, model: MotionModel):
    """(unmatched ending ids, unmatched starting ids, total) of a ``GapAssignment``
    of ``endings`` and ``startings``, ids ascending, the total by
    ``production_order_total``."""
    ending_ids = sorted(tr.station_id for tr in endings)
    starting_ids = sorted(tr.station_id for tr in startings)
    column = {sid: j for j, sid in enumerate(starting_ids)}
    partner = dict(assignment.pairs)
    cost = dict(zip(assignment.pairs, assignment.pair_costs))
    assign = [column[partner[e]] if e in partner else None for e in ending_ids]
    cost_rows = [{j: cost[e, starting_ids[j]]} if j is not None else {}
                 for e, j in zip(ending_ids, assign)]
    matched = set(partner.values())
    return (
        [e for e in ending_ids if e not in partner],
        [s for s in starting_ids if s not in matched],
        production_order_total(cost_rows, assign, model.no_match_cost, len(starting_ids)),
    )


def rank_on_grid(grid, pad):
    """Every assignment a grid can take, and its rank: the grid total, then
    each ending row's decision in row order (a starting column, or the
    number of columns for no match). ``grid`` holds the integer pair costs
    and ``pad`` the cost of a no-match, as ``adversary._tie_grid`` gives them."""
    n_e, n_s = grid.shape
    grid = [[int(q) for q in row] for row in grid]
    # a pair clipped by the grid loses to leaving both its sides unmatched
    feasible = [[q <= 2 * pad for q in row] for row in grid]

    def rank(assign):
        grid_total = pad * (n_e + n_s)
        for i, j in enumerate(assign):
            if j is not None:
                grid_total += grid[i][j] - 2 * pad
        return grid_total, tuple(n_s if j is None else j for j in assign)

    assigns = list(_all_assignments(n_e, n_s, feasible))
    return assigns, [rank(assign) for assign in assigns]


def solve_exhaustive(endings, startings, model: MotionModel) -> OracleResult:
    """The least assignment by ``rank_on_grid`` on the production tie grid."""
    endings = sorted(endings, key=lambda tr: tr.station_id)
    startings = sorted(startings, key=lambda tr: tr.station_id)
    n_e, n_s = len(endings), len(startings)

    cost_rows = [
        [gap_cost(e, s, model) for s in startings] for e in endings
    ]
    cost = np.array(cost_rows, dtype=float).reshape(n_e, n_s)
    assigns, keys = rank_on_grid(*_tie_grid(cost, model.no_match_cost))
    best = keys.index(min(keys))
    best_assign = assigns[best]
    float_min = min(
        production_order_total(cost_rows, assign, model.no_match_cost, n_s)
        for assign in assigns
    )

    start_ids = [tr.station_id for tr in startings]
    pairs = [
        (endings[i].station_id, start_ids[j])
        for i, j in enumerate(best_assign)
        if j is not None
    ]
    return OracleResult(
        pairs=pairs,
        total=production_order_total(cost_rows, best_assign, model.no_match_cost, n_s),
        n_optima=sum(key[0] == keys[best][0] for key in keys),
        assign=best_assign,
        float_min=float_min,
    )


def relabel_station_ids(store, rng):
    """Rename every station identifier with a random fresh label.

    Keeps structure and timing, randomizes which identifier string plays
    which role. Assignment ties go to the lexicographically smallest station
    ids, so this measures how often a tie-break falls either way.
    Returns the relabeled store and the old-to-new mapping so ground truth
    can be carried across.
    """
    old_ids = sorted(
        {o.station_id for o in store.observations}
        | {n.station_id for n in store.notices}
    )
    mapping = {}
    used = set()
    for old in old_ids:
        while True:
            candidate = f"{rng.integers(0, 2**64, dtype=np.uint64):016x}"
            if candidate not in used:
                used.add(candidate)
                mapping[old] = candidate
                break
    out = adv.ObservationStore()
    for log, records in ((out.observations, store.observations), (out.notices, store.notices)):
        log.extend(r._replace(station_id=mapping[r.station_id]) for r in records)
    out.finalize()
    return out, mapping


def random_instance(rng, max_side=6):
    """Random tracklet sets for cross-checking the production solver.

    Mixes hard cases (startings placed near an ending's extrapolation,
    occasionally with zero jitter so exact ties occur) with uniform
    noise, empty sides, and infeasible gaps.
    """
    n_e = int(rng.integers(0, max_side + 1))
    n_s = int(rng.integers(0, max_side + 1))

    def sid():
        return f"{rng.integers(0, 2**63):016x}"

    endings = []
    for _ in range(n_e):
        t_last = float(rng.uniform(0.0, 20.0))
        pos = (float(rng.uniform(-150, 150)), float(rng.uniform(-150, 150)))
        vel = (float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)))
        endings.append(
            mk_tracklet(sid(), t_last - 2.0, t_last, pos, pos, vel)
        )

    startings = []
    for _ in range(n_s):
        if endings and rng.random() < 0.45:
            e = endings[int(rng.integers(0, len(endings)))]
            gap = float(rng.uniform(0.5, 12.0))
            t_first = e.t_last + gap
            base = (
                e.pos_last[0] + e.vel_last[0] * gap,
                e.pos_last[1] + e.vel_last[1] * gap,
            )
            if rng.random() < 0.25:
                jitter = (0.0, 0.0)  # exact tie bait
            else:
                jitter = (float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)))
            pos = (base[0] + jitter[0], base[1] + jitter[1])
        else:
            # uniform: may be infeasible (gap <= 0 or > max_gap) or just far
            t_first = float(rng.uniform(-5.0, 60.0))
            pos = (float(rng.uniform(-300, 300)), float(rng.uniform(-300, 300)))
        vel = (float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)))
        startings.append(
            mk_tracklet(sid(), t_first, t_first + 2.0, pos, pos, vel)
        )

    return endings, startings


def anonymity_sizes_loop(changes, silence_of, anonymity_region_m=500.0):
    """Anonymity-set size per change, by the original per-interval loop.

    For each change with an old identifier: the vehicles with a silence
    interval that overlaps the change's own silence and whose change
    position lies within ``anonymity_region_m``, at least 1.
    """
    sizes = []
    for rec in changes:
        if not rec.old_ids:
            continue
        start = rec.t
        end = rec.t + rec.silence_s
        cx, cy = rec.position
        members = set()
        for vid, intervals in silence_of.items():
            for (s0, s1, pos) in intervals:
                if s0 <= end and start <= s1:
                    if math.dist((cx, cy), pos) <= anonymity_region_m:
                        members.add(vid)
                        break
        sizes.append(max(1, len(members)))
    return sizes


def build_tracklets_loop(store):
    """``build_tracklets`` by the original per-record loop."""
    by_id: dict[str, Tracklet] = {}
    for obs in store.observations:
        tr = by_id.get(obs.station_id)
        if tr is None:
            by_id[obs.station_id] = Tracklet(
                station_id=obs.station_id,
                scope=obs.scope,
                t_first=obs.t,
                t_last=obs.t,
                pos_first=obs.position,
                pos_last=obs.position,
                vel_last=obs.velocity,
                quasi_ids=obs.quasi_ids,
            )
        else:
            tr.t_last = obs.t
            tr.pos_last = obs.position
            tr.vel_last = obs.velocity
    return sorted(by_id.values(), key=lambda tr: (tr.t_first, tr.station_id))


def link_full_scan(store, model, use_quasi_identifiers=True):
    """(predicted pairs, assignments) of ``link`` with the original candidate scan.

    Every epoch rescans every open ending of its scope, so this is
    O(epochs x tracklets); the production ``link`` must select the same
    candidates.
    """
    tracklets = build_tracklets(store)
    scopes = sorted({tr.scope for tr in tracklets})
    semantic_pairs = []
    if use_quasi_identifiers:
        for scope in scopes:
            semantic_pairs.extend(
                semantic_match([tr for tr in tracklets if tr.scope == scope])
            )
    has_succ = {old for old, _ in semantic_pairs}
    has_pred = {new for _, new in semantic_pairs}
    predicted = list(semantic_pairs)
    assignments = []
    for scope in scopes:
        scoped = [tr for tr in tracklets if tr.scope == scope]
        open_endings = [tr for tr in scoped if tr.station_id not in has_succ]
        epochs = {}
        for tr in scoped:
            if tr.station_id not in has_pred:
                epochs.setdefault(tr.t_first, []).append(tr)
        matched_endings = set()
        for t_epoch in sorted(epochs):
            candidates = [
                e
                for e in open_endings
                if e.station_id not in matched_endings
                and 0.0 < t_epoch - e.t_last <= model.max_gap_s
            ]
            if not candidates:
                continue
            assignment = associate_across_gap(candidates, epochs[t_epoch], model)
            assignments.append(assignment)
            predicted.extend(assignment.pairs)
            matched_endings.update(old for old, _ in assignment.pairs)
    return predicted, assignments


class ScanScope:
    """Reference pool for one scope: every query scans every ticket ever issued."""

    def __init__(self, selection):
        self.selection = selection
        self.tickets = []
        self.retired = set()
        self.active = None
        self.cursor = -1

    def usable(self, t, now):
        if not t.valid_from <= now < t.valid_until:
            return False
        return not (self.selection == "no_reuse" and t.at_id in self.retired)

    def valid_tickets(self, now):
        return [t for t in self.tickets if self.usable(t, now)]

    def select_next(self, now):
        n = len(self.tickets)
        start = -1 if self.selection == "no_reuse" else self.cursor
        for step in range(1, n + 1):
            t = self.tickets[(start + step) % n]
            if self.usable(t, now) and t.at_id != self.active:
                return t
        return None

    def activate(self, t):
        if self.active is not None:
            self.retired.add(self.active)
        self.active = t.at_id
        self.cursor = next(i for i, u in enumerate(self.tickets) if u.at_id == t.at_id)


class ScanPool:
    """The ``PseudonymPool`` surface the engine calls, a ``ScanScope`` per scope:
    no live index, no cached count and no ``steady_until``."""

    def __init__(self, selection, min_concurrent_valid, target_size, scopes):
        self.min_concurrent_valid, self.target_size = min_concurrent_valid, target_size
        self._scopes = {scope: ScanScope(selection) for scope in scopes}
        self.active = {}

    @property
    def scopes(self):
        return list(self._scopes)

    def add_batch(self, scope, batch):
        self._scopes[scope].tickets.extend(batch)

    def valid_tickets(self, scope, now):
        return self._scopes[scope].valid_tickets(now)

    def valid_count(self, scope, now):
        return len(self.valid_tickets(scope, now))

    def needs_replenish(self, scope, now):
        return self.valid_count(scope, now) < self.min_concurrent_valid

    def replenish_need(self, scope, now):
        return max(0, self.target_size - self.valid_count(scope, now))

    def select_next(self, scope, now):
        return self._scopes[scope].select_next(now)

    def activate(self, scope, ticket):
        self._scopes[scope].activate(ticket)
        self.active[scope] = ticket


class _Unkept:
    """Takes the calls the engine makes to its event-kept ``FleetLdm``, and drops them."""

    def __getattr__(self, name):
        return lambda *args: None


class FullLogEavesdropper(adv.Eavesdropper):
    """The eavesdropper as it was before it kept only each id's first and latest
    observation: ``hear`` appends every one it hears to the store."""

    def hear(self, obs, true_position):
        heard = self.covers(true_position)
        if heard:
            self.store.observations.append(obs)
        return heard


def first_and_latest(store):
    """What an ``Eavesdropper`` keeps of a full log: each id's first and latest
    observation, in its slots, and every notice. Positions become Python
    floats, as the engine's are (``positioning_noise`` gives numpy floats)."""
    ear = adv.Eavesdropper()
    ear.hear_all(((None, n, None) for n in store.notices),
                 [(None, obs._replace(position=tuple(map(float, obs.position))), None)
                  for obs in store.observations])
    ear.store.finalize()
    return ear.store


class ReferenceEngine(SimulationEngine):
    """The engine as it was before its per-vehicle and radio state became event-kept.

    It runs all five phases on every tick (``_quiet_until`` is always the
    tick itself). Each tick it steps every vehicle with ``step_kinematics``,
    polls every vehicle's ticket expiry and change trigger, counts every
    pool's valid tickets by a scan of every ticket issued (``ScanPool``),
    checks each due CAM's ticket, and sorts the whole outbox. It builds
    every neighbour list afresh as ``mobility.region_query`` over the other
    vehicles, the definition ``kinetic_neighbor_lists`` states, draws loss
    with one ``rng_loss.random()`` per delivery and hands each delivery to
    its own per-vehicle ``LocalDynamicMap.receive`` message by message, then
    scores every LDM afresh with ``ldm_quality`` against the station ids of
    the vehicles on the road, as does the lock validator. The production
    engine runs the ticks where no event source fires in one step, keeps a
    ``Leg`` per vehicle, wakes its strategy at events, indexes each pool's
    live tickets and skips pools whose counts hold, keeps CAM validity per
    vehicle, keeps lists until a pair can cross the range, draws loss in one
    batch and keeps LDM counters by events (``FleetLdm``, which this engine
    does not feed); it must give the same bytes. This engine writes its own
    per-tick form of each rule that the production engine writes once for
    its event ticks and quiet stretches: it steps with ``step_kinematics``
    where that one calls ``mobility.step_on_leg``, tests each tick against
    the CAM and DENM periods where it reads ``_next_cam`` and ``_next_denm``,
    and hears every record where a stretch builds only those
    ``Eavesdropper.retained`` picks. Both close switch gaps with
    ``_close_gap`` at a new id's first CAM. This engine's eavesdropper logs
    every heard CAM and DENM (``FullLogEavesdropper``), the production one
    only each id's first and latest: the linkages must still agree.
    """

    def __init__(self, config, **kwargs):
        super().__init__(config, **kwargs)
        self.eavesdropper = FullLogEavesdropper(self.eavesdropper.posts)
        self.ldm = _Unkept()
        self.ldms = {}  # vehicle id -> LocalDynamicMap

    def _quiet_until(self, tick):
        return tick

    def _admit(self, spec, tick):
        now = tick * self.tick_s
        supi = Supi(bytes(self.rng_identity.bytes(16)))
        self.core.add_subscriber(supi)
        cert = self.core.enroll_vehicle(supi, bytes(self.rng_identity.bytes(12)), now)
        token = self.core.invoke_v2x_service(self.core.request_v2x_token(now), now)
        cursor = mob.RouteCursor(self.cfg.road, spec.route)
        leg = mob.leg_of(cursor, spec.speed_mps, self.tick_s)
        pool = self.cfg.pool
        veh = _Vehicle(
            spec=spec, depart_tick=tick, cursor=cursor, leg=leg,
            kin=mob.Kinematics(position=cursor.position(), velocity=leg.velocity),
            trip=mob.TripState(),
            pool=ScanPool(pool.selection, pool.min_concurrent_valid, pool.size, self.scopes),
            locks=strat.LockLedger(renewal_threshold=self.cfg.locks.renewal_threshold),
            cert=cert, session_token=token, last_change_tick=tick,
            quasi_ids=(spec.length_m, spec.width_m),
        )
        self.vehicles[spec.vehicle_id] = veh
        for scope in self.scopes:
            self._replenish(veh, scope, now, to_target=True)
        self._execute_change(veh, tick, TRIGGER_INITIAL)

    def _vehicle_ldm(self, vid):
        timeout_s = self.cfg.beaconing.ldm_timeout_s
        return self.ldms.setdefault(vid, bcn.LocalDynamicMap(timeout_s=timeout_s))

    def _awareness_validator(self, veh):
        def validate(app_id, now):
            sample = self._score_ldm(veh, now)
            if sample is None or sample[1] == 0:
                return True
            return sample[0].awareness_ratio >= self.cfg.locks.validator_awareness_min

        return validate

    def _phase_mobility(self, tick):
        for spec in self._departures.pop(tick, ()):
            self._admit(spec, tick)
        roster = []
        for vid in sorted(self.vehicles):
            veh = self.vehicles[vid]
            if tick > veh.depart_tick:
                speed = min(veh.spec.speed_mps, veh.cursor.segment.speed_limit_mps)
                veh.kin, moved = mob.step_kinematics(veh.cursor, speed, self.tick_s)
                veh.trip.advance(moved)
                if veh.cursor.done:
                    self._finish_trip(veh, tick)
                    continue
            roster.append(veh)
        self.roster = roster
        positions = {veh.spec.vehicle_id: veh.kin.position for veh in roster}
        self.neighbors = {  # each vehicle's peers: a region query over the others
            vid: mob.region_query({o: p for o, p in positions.items() if o != vid}, pos,
                                  self.cfg.beaconing.radio_range_m)
            for vid, pos in positions.items()
        }

    def _phase_strategy(self, tick):
        now = tick * self.tick_s
        if self._coordination_ticks is not None and tick % self._coordination_ticks == 0:
            self._coordinate(tick)
        events = self._lock_events.get(tick, ())
        for ev in events:
            if ev.vehicle_id not in self.vehicles:
                self.counters["lock_events_dropped"] += 1
        for veh in self.roster:
            veh.locks.sweep(now)
            for ev in events:
                if ev.vehicle_id != veh.spec.vehicle_id:
                    continue
                decision = veh.locks.request(
                    ev.app_id,
                    ev.duration_s,
                    now,
                    veh.active_until if veh.pool.active else now,
                    validator=self._awareness_validator(veh),
                )
                if decision.granted:
                    self.counters["locks_granted"] += 1
                else:
                    self.counters[f"lock_denied_{decision.reason}"] += 1
            if tick < veh.silence_until_tick:
                continue
            expired = any(not t.is_valid_at(now) for t in veh.pool.active.values())
            locked = veh.locks.locked(now)
            if expired and not locked:
                self._execute_change(veh, tick, TRIGGER_TICKET_EXPIRY)
                continue
            wants = strat.evaluate_change_trigger(
                self.cfg.policy.policy,
                veh.trip,
                veh.trigger,
                now,
                since_s=(tick - veh.last_change_tick) * self.tick_s,
                clock_skew_s=veh.spec.clock_skew_s,
                boundary_tol_s=self.tick_s / 2.0,
            )
            if not wants:
                continue
            if locked:
                self.counters["change_deferred_lock"] += 1
                continue
            self._execute_change(veh, tick, self.cfg.policy.policy.kind)

    def _phase_sba(self, tick):
        now = tick * self.tick_s
        for veh in self.roster:
            count = min(len(veh.pool.valid_tickets(s, now)) for s in self.scopes)
            if count < veh.pool.min_concurrent_valid:
                for scope in self.scopes:
                    self._replenish(veh, scope, now, to_target=False)
                count = min(len(veh.pool.valid_tickets(s, now)) for s in self.scopes)
            if self.min_valid_tickets is None or count < self.min_valid_tickets:
                self.min_valid_tickets = count

    def _phase_beaconing(self, tick):
        now = tick * self.tick_s
        sends = []
        for veh in self.roster:
            if tick < veh.silence_until_tick:
                continue
            if veh.last_cam_tick is None or tick - veh.last_cam_tick >= self.cam_period_ticks:
                if self._can_send(veh, AppScope.CAM, now):
                    quasi_ids = (veh.spec.length_m, veh.spec.width_m)
                    sends.append((veh, AppScope.CAM, (veh.kin.velocity, quasi_ids)))
                    veh.last_cam_tick = tick
                    self.counters["cams_sent"] += 1
                    if veh.gap_from is not None:
                        self._close_gap(veh, now)
            if (
                self.denm_period_ticks is not None
                and (tick - veh.depart_tick) % self.denm_period_ticks == 0
                and self._can_send(veh, AppScope.DENM, now)
            ):
                sends.append((veh, AppScope.DENM, ()))
                self.counters["denms_sent"] += 1
        sigma = self.cfg.beaconing.positioning_sigma_m
        for veh, scope, motion in sends:
            pos = mob.positioning_noise(veh.kin.position, sigma, self.rng_noise)
            obs = bcn.Observation(now, veh.ids[scope.value], scope.value, pos, *motion)
            self.outbox.append((veh.spec.vehicle_id, obs, veh.kin.position))

    @staticmethod
    def _can_send(veh, scope, now):
        ticket = veh.pool.active.get(scope)
        return ticket is not None and ticket.is_valid_at(now)

    def _phase_ingest(self, tick):
        now = tick * self.tick_s
        loss = self.cfg.beaconing.loss_rate
        rng = self.rng_loss
        ordered = sorted(
            self.notices + self.outbox,
            key=lambda e: ("" if type(e[1]) is bcn.NoticeSighting else e[1].scope, e[0]),
        )
        self.notices, self.outbox = [], []
        for sender_id, msg, sender_pos in ordered:
            if type(msg) is bcn.NoticeSighting:
                self.eavesdropper.hear_notice(msg, sender_pos)
            else:
                self.eavesdropper.hear(msg, sender_pos)
            if self.trace_rows is not None:
                self.trace_rows.append(adv.trace_row(sender_id, msg))
            in_range = self.neighbors.get(sender_id)
            if in_range is None:
                in_range = mob.region_query(
                    {veh.spec.vehicle_id: veh.kin.position for veh in self.roster},
                    sender_pos,
                    self.cfg.beaconing.radio_range_m,
                )
            for rid in in_range:
                if loss > 0.0 and rng.random() < loss:
                    self.counters["messages_lost"] += 1
                    continue
                self._vehicle_ldm(rid).receive(msg, now)
        any_ghost = False
        any_missing = False
        for veh in self.roster:
            sample = self._score_ldm(veh, now)
            if sample is None:
                continue
            quality, n_neighbors = sample
            if n_neighbors > 0:
                self.awareness_sum += quality.awareness_ratio
                self.awareness_samples += 1
            if quality.ghost_count > 0:
                any_ghost = True
                self.ghost_entries_total += quality.ghost_count
            if quality.missing_count > 0:
                any_missing = True
                self.missing_total += quality.missing_count
        if any_ghost:
            self.ghost_ticks += 1
        if any_missing:
            self.missing_ticks += 1

    def _score_ldm(self, veh, now):
        neighbors = self.neighbors[veh.spec.vehicle_id]
        ldm = self._vehicle_ldm(veh.spec.vehicle_id)
        if not neighbors and len(ldm) == 0:
            return None
        # the ids on the air, read off the vehicles on the road
        on_air = {sid for v in self.vehicles.values() for sid in v.ids.values()}
        quality = bcn.ldm_quality(ldm, neighbors, self.owner_of, on_air, now)
        return quality, len(neighbors)
