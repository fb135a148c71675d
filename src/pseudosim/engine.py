"""Deterministic tick loop tying mobility, credentials, beaconing and attack.

An event tick runs five phases in a fixed order: mobility, change strategy,
core network housekeeping, beaconing, and message ingest. All randomness comes
from named streams forked off the run seed, and all schedules live on the
integer tick grid, so the same config and seed reproduce a run byte for byte,
whatever the host or degree of parallelism around it.

Per vehicle, state that only events change is kept: its ``mobility.Leg``,
strategy wake tick, pool's steady count, CAM ticket end and CAM station id.
Before each tick ``run`` finds the first tick at which an event source may
fire (``_quiet_until``) and runs the quiet ticks before it in one step
(``_advance_quiet``). Both kinds of tick share one form of each rule: one
leg stepper (``mobility.step_on_leg``, which makes a float sum's additions
tick by tick, as the sum depends on their order), one schedule per beacon
(``_next_cam``, ``_next_denm``) and one broadcast tail (``_broadcast``).

Failures inside a run (denied tokens, starved pools, rejected locks) never
raise out of the loop; they become counters in the run summary.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from operator import add, itemgetter
from typing import Optional, Union

import numpy as np

from . import adversary as adv
from . import beaconing as bcn
from . import mobility as mob
from . import strategy as strat
from .config import ScenarioConfig, VehicleSpec, load_scenario, tick_of
from .sba import (
    AccessToken,
    AppScope,
    EnrollmentCertificate,
    SbaError,
    ServiceBasedCore,
    Supi,
)
from .seeds import fork_generator

TRIGGER_INITIAL = "initial"
TRIGGER_TICKET_EXPIRY = "ticket_expiry"
REPLENISH_ROUNDS = 16  # provisioning calls one replenishment may make
_NO_LOSS: frozenset = frozenset()
_STRETCH_MAX = 512  # ticks one quiet stretch may span, which bounds its per-tick lists


@dataclass
class _Vehicle:
    spec: VehicleSpec
    depart_tick: int
    cursor: mob.RouteCursor
    leg: mob.Leg  # rebuilt at each segment's end
    kin: mob.Kinematics  # as of its last event tick: a quiet stretch leaves it
    trip: mob.TripState
    pool: strat.PseudonymPool
    locks: strat.LockLedger
    cert: EnrollmentCertificate
    session_token: AccessToken
    trigger: strat.TriggerState = field(default_factory=strat.TriggerState)
    ids: dict = field(default_factory=dict)  # scope value -> active station id
    active_until: float = math.inf  # earliest valid_until among the active tickets
    silence_until_tick: int = -1
    last_cam_tick: Optional[int] = None
    last_change_tick: int = 0
    quasi_ids: tuple = ()  # length and width, as every CAM carries them
    wake_tick: float = 0  # the first tick the strategy phase must look at it
    cam_until: float = -math.inf  # the active CAM ticket's valid_until
    cam_sid: str = ""  # and its station id
    gap_from: Optional[int] = None  # the retired CAM id's last CAM tick, until the new id's first


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: dict
    linkage: adv.LinkageResult
    store: adv.ObservationStore
    change_records: list
    trace_rows: Optional[list]

    def summary_json(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2) + "\n"


class SimulationEngine:
    def __init__(self, config: ScenarioConfig, *, collect_trace: bool = False):
        self.cfg = config
        self.tick_s = config.tick_s
        self.n_ticks = tick_of(config.duration_s, config.tick_s)
        self.cam_period_ticks = tick_of(1.0 / config.beaconing.cam_freq_hz, config.tick_s)
        denm_s = config.beaconing.denm_interval_s
        self.denm_period_ticks = None if denm_s is None else max(1, tick_of(denm_s, config.tick_s))
        self.scopes = [AppScope.CAM] + (
            [AppScope.DENM] if self.denm_period_ticks is not None else []
        )

        self.rng_identity = fork_generator(config.seed, "identity")
        self.rng_strategy = fork_generator(config.seed, "strategy")
        self.rng_noise = fork_generator(config.seed, "noise")
        self.rng_loss = fork_generator(config.seed, "loss")

        self.core = ServiceBasedCore(config.seed, config.sba)
        coverage = config.adversary.coverage
        self.eavesdropper = adv.Eavesdropper(None if coverage == "full" else coverage)

        self.vehicles: dict[int, _Vehicle] = {}  # on the road only
        # per-tick facts: the id-sorted vehicles after mobility, and every
        # emission as (sender id, message, sender's true position)
        self.roster: list[_Vehicle] = []
        self.neighbors_until = -1.0  # the last tick no pair can have crossed the range
        self.outbox: list[tuple[int, bcn.Observation | bcn.NoticeSighting, mob.Point]] = []
        self.notices: list[tuple[int, bcn.NoticeSighting, mob.Point]] = []
        self._departures: dict[int, list[VehicleSpec]] = {}
        for spec in config.fleet:
            self._departures.setdefault(tick_of(spec.depart_s, config.tick_s), []).append(spec)
        self._lock_events: dict[int, list] = {}
        for ev in config.locks.events:
            self._lock_events.setdefault(tick_of(ev.t, config.tick_s), []).append(ev)
        self._scripted = sorted({*self._departures, *self._lock_events})

        # ground truth, and every receiver's LDM, told of each change to it
        self.owner_of: dict[str, int] = {}
        self.ldm = bcn.FleetLdm(config.beaconing.ldm_timeout_s, self.tick_s,
                                self.cam_period_ticks, self.owner_of)
        self.change_records: list[strat.ChangeRecord] = []
        self.silence_ticks = tick_of(config.policy.silence_s, config.tick_s)
        self.max_switch_gap: Optional[float] = None

        self.counters: Counter[str] = Counter()
        self.min_valid_tickets: Optional[int] = None
        self.sybil_violations = 0
        self.awareness_sum = 0.0
        self.awareness_samples = 0
        self.ghost_ticks = 0
        self.ghost_entries_total = 0
        self.missing_ticks = 0
        self.missing_total = 0
        self.trace_rows: Optional[list] = [] if collect_trace else None

        ntp = config.policy.policy
        self._coordination_ticks = (max(1, tick_of(ntp.coordination_interval_s, config.tick_s))
                                    if isinstance(ntp, strat.NetworkTriggeredPolicy) else None)

    # --- vehicle lifecycle ------------------------------------------------

    def _admit(self, spec: VehicleSpec, tick: int) -> None:
        now = tick * self.tick_s
        supi = Supi(bytes(self.rng_identity.bytes(16)))
        self.core.add_subscriber(supi)
        nonce = bytes(self.rng_identity.bytes(12))
        cert = self.core.enroll_vehicle(supi, nonce, now)
        token = self.core.invoke_v2x_service(self.core.request_v2x_token(now), now)
        cursor = mob.RouteCursor(self.cfg.road, spec.route)
        leg = mob.leg_of(cursor, spec.speed_mps, self.tick_s)
        veh = _Vehicle(
            spec=spec,
            depart_tick=tick,
            cursor=cursor,
            leg=leg,
            kin=mob.Kinematics(position=cursor.position(), velocity=leg.velocity),
            trip=mob.TripState(),
            pool=strat.PseudonymPool(
                selection=self.cfg.pool.selection,
                min_concurrent_valid=self.cfg.pool.min_concurrent_valid,
                target_size=self.cfg.pool.size,
                scopes=self.scopes,
            ),
            locks=strat.LockLedger(renewal_threshold=self.cfg.locks.renewal_threshold),
            cert=cert,
            session_token=token,
            last_change_tick=tick,
            quasi_ids=(spec.length_m, spec.width_m),
        )
        self.vehicles[spec.vehicle_id] = veh
        for scope in self.scopes:
            self._replenish(veh, scope, now, to_target=True)
        self._execute_change(veh, tick, TRIGGER_INITIAL)

    def _finish_trip(self, veh: _Vehicle, tick: int) -> None:
        self._retire_ids(veh, tick * self.tick_s)
        self.ldm.drop(veh.spec.vehicle_id)
        del self.vehicles[veh.spec.vehicle_id]
        self.counters["trips_completed"] += 1

    def _retire_ids(self, veh: _Vehicle, now: float) -> dict:
        """Take the vehicle's station ids off the air; returns them by scope value.

        With ``notify_deactivation`` each retiring id is announced in the outbox.
        """
        for scope_value, sid in veh.ids.items():
            self.ldm.retire(sid)
            if self.cfg.policy.notify_deactivation:
                notice = bcn.NoticeSighting(now, sid, scope_value)
                self.notices.append((veh.spec.vehicle_id, notice, veh.kin.position))
                self.counters["notices_sent"] += 1
        return veh.ids

    def _close_gap(self, veh: _Vehicle, now: float) -> None:
        """At the first CAM under a new id: the switch gap since the old id's last CAM."""
        gap = now - veh.gap_from * self.tick_s
        if self.max_switch_gap is None or gap > self.max_switch_gap:
            self.max_switch_gap = gap
        veh.gap_from = None

    # --- pseudonym changes --------------------------------------------------

    def _replenish(self, veh: _Vehicle, scope: AppScope, now: float, *, to_target: bool) -> None:
        for round_ in range(REPLENISH_ROUNDS + 1):
            if to_target:
                if veh.pool.replenish_need(scope, now) <= 0:
                    return
            elif not veh.pool.needs_replenish(scope, now):
                return
            if round_ == REPLENISH_ROUNDS:  # still short after the last round
                self.counters["replenish_gave_up"] += 1
                return
            try:  # a need seen above at this ``now`` adds at least one ticket
                strat.replenish_pool(veh.pool, scope, veh.cert, self.core, now)
            except SbaError as exc:
                self.counters[f"replenish_failed_{exc.reason}"] += 1
                return
            self.counters["pool_replenishments"] += 1

    def _execute_change(self, veh: _Vehicle, tick: int, trigger: str) -> None:
        now = tick * self.tick_s
        plan = strat.plan_change(veh.pool, now)
        if plan is None:
            self.counters["change_starved"] += 1
            return
        veh.session_token = self.core.invoke_v2x_service(veh.session_token, now)
        old_ids = self._retire_ids(veh, now)
        sent = veh.last_cam_tick is not None and veh.last_cam_tick >= veh.last_change_tick
        veh.gap_from = veh.last_cam_tick if sent else None  # the retired id sent a CAM
        vid = veh.spec.vehicle_id
        veh.ids = new_ids = {}
        for scope in self.scopes:
            ticket = plan[scope]
            veh.pool.activate(scope, ticket)
            sid = bcn.station_id_for(ticket, scope)
            owner = self.owner_of.get(sid)
            if owner is not None and owner != vid:
                raise RuntimeError(f"station id collision on {sid}")
            if owner == vid and self.cfg.pool.selection == strat.SELECTION_NO_REUSE:
                self.sybil_violations += 1  # the vehicle goes back to an id it used
            self.owner_of[sid] = vid
            self.ldm.activate(sid)
            new_ids[scope.value] = sid
        veh.active_until = min(t.valid_until for t in veh.pool.active.values())
        veh.cam_until = veh.pool.active[AppScope.CAM].valid_until
        veh.cam_sid = new_ids[AppScope.CAM.value]

        if old_ids:
            veh.silence_until_tick = tick + self.silence_ticks
            self.change_records.append(
                strat.ChangeRecord(
                    t=now,
                    vehicle_id=vid,
                    trigger=trigger,
                    old_ids=old_ids,
                    new_ids=new_ids,
                    position=veh.kin.position,
                    silence_s=self.cfg.policy.silence_s,
                )
            )
        veh.trip.note_change()
        veh.trigger = strat.rearm_trigger(
            self.cfg.policy.policy, veh.trip.changes_this_trip, self.rng_strategy
        )
        veh.last_change_tick = tick
        veh.wake_tick = self._wake(veh, tick)
        for scope in self.scopes:
            self._replenish(veh, scope, now, to_target=False)

    def _ticks_until(self, t: float) -> float:
        """The least whole ``k >= 0`` with ``k * tick_s >= t`` in floats, or inf
        where that is past the run's last tick (so never reached)."""
        if not t > 0.0:
            return max(t, 0)
        k = t / self.tick_s
        if k > self.n_ticks:  # never reached; far out, k * tick_s stops changing
            return math.inf
        k = math.ceil(k)
        while (k - 1) * self.tick_s >= t:
            k -= 1
        while k * self.tick_s < t:
            k += 1
        return k

    def _wake(self, veh: _Vehicle, tick: int) -> float:
        """The first tick with ``tick * tick_s >= active_until`` or the policy's due tick
        (early, never late), but not before the silence ends; polling changes no sooner."""
        since_s, metres = strat.trigger_lower_bounds(self.cfg.policy.policy, veh.trip, veh.trigger)
        due = veh.last_change_tick + self._ticks_until(since_s)
        if metres > 0.0:  # a tick moves no vehicle farther than its spec speed
            step = veh.spec.speed_mps * self.tick_s
            # never, if the whole run cannot cover it (the step may underflow to 0)
            far = metres >= step * self.n_ticks
            due = math.inf if far else max(due, tick + int(metres / step) - 1)
        return max(veh.silence_until_tick, min(due, self._ticks_until(veh.active_until)))

    # --- per-tick phases -----------------------------------------------------

    def _phase_mobility(self, tick: int) -> None:
        arrivals = self._departures.pop(tick, ())
        for spec in arrivals:
            self._admit(spec, tick)
        roster = []
        on_road = sorted(self.vehicles)
        for vid in on_road:
            veh = self.vehicles[vid]
            if tick > veh.depart_tick:
                offsets = mob.step_on_leg(veh.cursor, leg := veh.leg, veh.trip)
                if offsets is None:  # the tick that reaches the segment's end
                    speed = min(veh.spec.speed_mps, leg.segment.speed_limit_mps)
                    veh.kin, moved = mob.step_kinematics(veh.cursor, speed, self.tick_s)
                    veh.trip.advance(moved)
                    veh.leg = mob.leg_of(veh.cursor, veh.spec.speed_mps, self.tick_s)
                else:
                    veh.kin.position = mob.leg_point(leg, offsets[-1])
                    veh.kin.velocity = leg.velocity
                if veh.cursor.done:
                    self._finish_trip(veh, tick)
                    continue
            roster.append(veh)
        self.roster = roster
        if arrivals or len(roster) < len(on_road) or tick > self.neighbors_until:
            # a vehicle moves at most its spec speed, whatever the speed limits
            neighbors, safe_ticks = mob.kinetic_neighbor_lists(
                {veh.spec.vehicle_id: veh.kin.position for veh in roster},
                {veh.spec.vehicle_id: veh.spec.speed_mps * self.tick_s for veh in roster},
                self.cfg.beaconing.radio_range_m,
                self.cfg.road.extent_m,
            )
            self.neighbors_until = tick + safe_ticks
            self.ldm.relink(neighbors)
        self.ldm.expire(tick)

    def _awareness_validator(self, veh: _Vehicle):
        node, floor = self.ldm.nodes[veh.spec.vehicle_id], self.cfg.locks.validator_awareness_min
        return lambda app_id, now: not node.near or node.n_one / len(node.near) >= floor

    def _phase_strategy(self, tick: int) -> None:
        now = tick * self.tick_s
        if self._coordination_ticks is not None and tick % self._coordination_ticks == 0:
            self._coordinate(tick)
        # a request reads only its own vehicle; ``locked`` needs no sweep first
        for ev in self._lock_events.get(tick, ()):
            veh = self.vehicles.get(ev.vehicle_id)
            if veh is None:
                self.counters["lock_events_dropped"] += 1
                continue
            valid_until = veh.active_until if veh.pool.active else now
            decision = veh.locks.request(ev.app_id, ev.duration_s, now, valid_until,
                                         validator=self._awareness_validator(veh))
            if decision.granted:
                self.counters["locks_granted"] += 1
            else:
                self.counters[f"lock_denied_{decision.reason}"] += 1
        for veh in self.roster:
            if tick < veh.wake_tick:  # a due vehicle stays due until it changes
                continue
            # active tickets were valid when chosen, so only valid_until can lapse
            expired = now >= veh.active_until
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
                veh.wake_tick = self._wake(veh, tick)
                continue
            if locked:
                self.counters["change_deferred_lock"] += 1
                continue
            self._execute_change(veh, tick, self.cfg.policy.policy.kind)

    def _coordinate(self, tick: int) -> None:
        now = tick * self.tick_s
        policy = self.cfg.policy.policy
        candidates = [
            strat.CoordinationCandidate(
                vehicle_id=veh.spec.vehicle_id,
                last_change_time=veh.last_change_tick * self.tick_s,
                ready=not veh.locks.locked(now),
                due=(tick - veh.last_change_tick) * self.tick_s >= policy.min_interval_s - 1e-9,
                silent=tick < veh.silence_until_tick,
            )
            for veh in self.roster
        ]
        for vid in strat.coordinate_network_change(candidates, policy.max_silent_fraction):
            self.vehicles[vid].trigger.pending_command = True
            self.vehicles[vid].wake_tick = tick
            self.counters["coordinator_commands"] += 1

    def _phase_sba(self, tick: int) -> None:
        now = tick * self.tick_s
        for veh in self.roster:
            if now < veh.pool.steady_until:  # its count holds, and is in the minimum
                continue
            count = veh.pool.min_valid_count(now)
            if count < veh.pool.min_concurrent_valid:  # some scope needs topping up
                for scope in self.scopes:
                    self._replenish(veh, scope, now, to_target=False)
                count = veh.pool.min_valid_count(now)
            if self.min_valid_tickets is None or count < self.min_valid_tickets:
                self.min_valid_tickets = count

    def _phase_beaconing(self, tick: int) -> None:
        now = tick * self.tick_s
        sends = []  # (sender id, record, true position), in emission order
        n_denms, denms = 0, self.denm_period_ticks is not None
        for veh in self.roster:
            if tick < veh.silence_until_tick:
                continue
            pos = veh.kin.position
            if self._next_cam(veh, tick) == tick:
                if now < veh.cam_until:  # the CAM ticket was valid when activated
                    obs = bcn.Observation(now, veh.cam_sid, "CAM", pos, veh.kin.velocity,
                                          veh.quasi_ids)
                    sends.append((veh.spec.vehicle_id, obs, pos))
                    veh.last_cam_tick = tick
                    if veh.gap_from is not None:
                        self._close_gap(veh, now)
                else:
                    self.ldm.cut(veh.spec.vehicle_id)  # its receivers miss a refresh
            if (
                denms and self._next_denm(veh, tick) == tick
                and veh.pool.active and veh.pool.active[AppScope.DENM].is_valid_at(now)
            ):
                obs = bcn.Observation(now, veh.ids[AppScope.DENM.value], AppScope.DENM.value, pos)
                sends.append((veh.spec.vehicle_id, obs, pos))
                n_denms += 1
        sends = self._noisy(sends)
        if len(sends) > n_denms:
            self.counters["cams_sent"] += len(sends) - n_denms
        if n_denms:  # the outbox takes CAMs, then DENMs, each in sender order
            self.counters["denms_sent"] += n_denms
            sends.sort(key=lambda send: send[1].scope == "DENM")
        self.outbox = sends

    def _noisy(self, sends: list) -> list:
        """``sends`` with positioning noise: one draw of two per emission, in emission
        order, as ``mob.positioning_noise`` would, taken as Python floats."""
        sigma = self.cfg.beaconing.positioning_sigma_m
        if not sigma or not sends:
            return sends
        noise = self.rng_noise.normal(0.0, sigma, (len(sends), 2)).tolist()
        return [(vid, obs._replace(position=(true[0] + dx, true[1] + dy)), true)
                for (vid, obs, true), (dx, dy) in zip(sends, noise)]

    def _phase_ingest(self, tick: int) -> None:
        # deletions land before refreshes: the notices by sender id then in
        # emission order (the sort is stable), then the beacons as emitted
        notices, beacons = sorted(self.notices, key=itemgetter(0)), self.outbox
        self.notices, self.outbox = [], []
        self._broadcast(notices, beacons)
        neighbors = self.ldm.neighbors
        receivers = []  # per notice, then per beacon if loss is drawn; ascending
        for sender_id, _, sender_pos in notices:
            in_range = neighbors.get(sender_id)
            if in_range is None:  # from a vehicle that finished this tick
                in_range = mob.region_query(
                    {veh.spec.vehicle_id: veh.kin.position for veh in self.roster},
                    sender_pos,
                    self.cfg.beaconing.radio_range_m,
                )
            receivers.append(in_range)
        # one batch of loss draws, one per delivery in message then receiver order
        lost: dict[int, set] = {}  # message index -> the receivers that missed it
        if self.cfg.beaconing.loss_rate > 0.0:
            receivers += [neighbors[sender_id] for sender_id, _, _ in beacons]
            counts = list(map(len, receivers))
            draws = self.rng_loss.random(sum(counts)) < self.cfg.beaconing.loss_rate
            hits = np.flatnonzero(draws)
            flat = list(chain.from_iterable(receivers))
            of_message = np.repeat(np.arange(len(counts)), counts)[hits].tolist()
            for m, k in zip(of_message, hits.tolist()):
                lost.setdefault(m, set()).add(flat[k])
            if hits.size:
                self.counters["messages_lost"] += hits.size
        # notices land before CAMs; a DENM leaves every LDM as it is
        for m, (_, msg, _) in enumerate(notices):
            missed = lost.get(m, _NO_LOSS)
            for rid in receivers[m]:
                if rid not in missed:
                    self.ldm.forget(rid, msg.station_id)
        for m, (sender_id, msg, _) in enumerate(beacons, len(notices)):
            if msg.scope == "CAM":
                self.ldm.heard(sender_id, msg.station_id, lost.get(m, _NO_LOSS), tick)
        self._sample_ldm(1)

    def _broadcast(self, notices: list, beacons: list) -> None:
        """The eavesdropper hears notices and beacons, and a collected trace takes them."""
        self.eavesdropper.hear_all(notices, beacons)
        if self.trace_rows is not None:
            self.trace_rows += [adv.trace_row(vid, msg) for vid, msg, _ in chain(notices, beacons)]

    def _sample_ldm(self, k: int) -> None:
        """``k`` ticks' truth-referenced quality samples, read in roster order, of LDM
        counters that hold over those ticks; the awareness sum adds them tick by tick."""
        ratios, ghosts, missing, nodes = [], 0, 0, self.ldm.nodes
        for veh in self.roster:
            node = nodes[veh.spec.vehicle_id]
            if node.near:
                ratios.append(node.n_one / len(node.near))
            ghosts += node.ghost
            missing += node.n_zero
        self.awareness_sum = reduce(add, chain.from_iterable(repeat(ratios, k)), self.awareness_sum)
        self.awareness_samples += k * len(ratios)
        self.ghost_entries_total += k * ghosts
        self.missing_total += k * missing
        self.ghost_ticks += k * (ghosts > 0)
        self.missing_ticks += k * (missing > 0)

    # --- schedules and quiet stretches ------------------------------------------

    def _next_cam(self, veh: _Vehicle, tick: int) -> int:
        """The first tick from ``tick`` on at which a vehicle out of silence sends a CAM."""
        last = veh.last_cam_tick
        return tick if last is None else max(tick, last + self.cam_period_ticks)

    def _next_denm(self, veh: _Vehicle, tick: int) -> int:
        """The first tick from ``tick`` on of a vehicle's DENMs, a period apart from departure."""
        return tick + (veh.depart_tick - tick) % self.denm_period_ticks

    def _quiet_until(self, tick: int) -> int:
        """The first tick from ``tick`` on at which an event source may fire, early
        but never late: the ticks before it are quiet. Per vehicle the sources are
        its wake tick (a lapsing CAM ticket wakes it, as ``active_until <= cam_until``),
        its pool's ``steady_until``, its silence's or leg's end, and its next CAM if
        it has a switch gap to close or does not stream to every neighbour (a CAM
        slower than the LDM timeout ends its stream). Loss draws touch every tick."""
        if self.cfg.beaconing.loss_rate > 0.0:
            return tick
        bound = min(self.n_ticks, tick + _STRETCH_MAX, self.neighbors_until + 1,
                    min(self.ldm.due, default=math.inf))
        i = bisect_left(self._scripted, tick)
        if i < len(self._scripted):
            bound = min(bound, self._scripted[i])
        if self._coordination_ticks is not None:
            bound = min(bound, tick + -tick % self._coordination_ticks)
        for veh in self.roster:
            if tick < veh.silence_until_tick:
                bound = min(bound, veh.silence_until_tick)
            elif veh.gap_from is not None or not self.ldm.streams(veh.spec.vehicle_id):
                bound = min(bound, self._next_cam(veh, tick))
            bound = min(bound, veh.wake_tick, tick + mob.leg_ticks(veh.cursor, veh.leg))
            if self.denm_period_ticks is not None:
                bound = min(bound, self._next_denm(veh, tick))
            if veh.pool.steady_until <= bound * self.tick_s:  # else it comes no sooner
                bound = min(bound, self._ticks_until(veh.pool.steady_until))
            if bound <= tick:
                return tick
        return int(bound) if bound > tick else tick

    def _advance_quiet(self, tick: int, k: int) -> None:
        """Run the ``k`` quiet ticks from ``tick`` on (``_quiet_until``) in one step.

        ``step_on_leg`` and ``_sample_ldm`` make their float additions tick by
        tick, as a float sum depends on its order. Records are built only where
        read: every CAM's for a trace or for noise (one draw), else those that
        ``Eavesdropper.retained`` picks. ``FleetLdm.heard`` takes a sender's last CAM."""
        end, tick_s, ear = tick + k, self.tick_s, self.eavesdropper
        every = self.trace_rows is not None or self.cfg.beaconing.positioning_sigma_m
        sends, n_cams = [], 0  # (CAM tick, roster index, (sender id, record, true position))
        for i, veh in enumerate(self.roster):
            leg = veh.leg
            offsets = mob.step_on_leg(veh.cursor, leg, veh.trip, k)  # after each tick
            cams = range(self._next_cam(veh, tick), end, self.cam_period_ticks)
            if tick < veh.silence_until_tick or not cams:
                continue
            n_cams += len(cams)
            veh.last_cam_tick = cams[-1]
            vid, sid = veh.spec.vehicle_id, veh.cam_sid
            self.ldm.heard(vid, sid, _NO_LOSS, cams[-1])
            if not every:
                cams = ear.retained(sid, cams, lambda c: mob.leg_point(leg, offsets[c - tick]))
            for c in cams:
                pos = mob.leg_point(leg, offsets[c - tick])
                obs = bcn.Observation(c * tick_s, sid, "CAM", pos, leg.velocity, veh.quasi_ids)
                sends.append((c, i, (vid, obs, pos)))
        sends.sort()  # in emission order: by tick, then roster
        self._broadcast((), self._noisy([send for _, _, send in sends]))
        if n_cams:
            self.counters["cams_sent"] += n_cams
        self._sample_ldm(k)

    # --- run -------------------------------------------------------------------

    def run(self) -> RunResult:
        tick = 0
        while tick < self.n_ticks:
            end = self._quiet_until(tick)
            if end > tick:
                self._advance_quiet(tick, end - tick)
            else:
                self._phase_mobility(tick)
                self._phase_strategy(tick)
                self._phase_sba(tick)
                self._phase_beaconing(tick)
                self._phase_ingest(tick)
                end += 1
            tick = end

        store = self.eavesdropper.store
        store.finalize()
        adversary = self.cfg.adversary
        linkage = adv.link(store, adversary, use_quasi_identifiers=adversary.use_quasi_identifiers)
        truth_pairs, silence_of = [], {}
        for rec in self.change_records:
            silence_of.setdefault(rec.vehicle_id, []).append(
                (rec.t, rec.t + rec.silence_s, rec.position)
            )
            for scope_value, old in sorted(rec.old_ids.items()):
                new = rec.new_ids.get(scope_value)
                if new is not None:
                    truth_pairs.append((old, new))
        truth = adv.TruthData(
            owner_of=self.owner_of,
            truth_pairs=truth_pairs,
            changes=self.change_records,
            silence_of=silence_of,
        )
        metrics = adv.evaluate_attack(linkage, truth,
                                      anonymity_region_m=adversary.anonymity_region_m)
        summary = self._summary(metrics)
        return RunResult(
            config=self.cfg,
            summary=summary,
            linkage=linkage,
            store=store,
            change_records=self.change_records,
            trace_rows=self.trace_rows,
        )

    def _summary(self, metrics: adv.AttackMetrics) -> dict:
        mean_awareness = (
            self.awareness_sum / self.awareness_samples
            if self.awareness_samples
            else None
        )
        return {
            "scenario": self.cfg.name,
            "seed": self.cfg.seed,
            "config_digest": self.cfg.digest(),
            "n_ticks": self.n_ticks,
            "tick_s": self.tick_s,
            "n_vehicles": len(self.cfg.fleet),
            "n_changes": len(self.change_records),
            # a vehicle's first successful change is its only one with no old ids
            "n_initial_activations": len(set(self.owner_of.values())),
            "changes_by_trigger": dict(sorted(Counter(
                rec.trigger for rec in self.change_records).items())),
            "privacy": metrics.to_obj(),
            "safety": {
                "mean_awareness_ratio": mean_awareness,
                "awareness_samples": self.awareness_samples,
                "ghost_ticks": self.ghost_ticks,
                "ghost_entries_total": self.ghost_entries_total,
                "missing_ticks": self.missing_ticks,
                "missing_total": self.missing_total,
                "silence_blind_s": len(self.change_records) * self.silence_ticks * self.tick_s,
                "max_stack_switch_gap_s": self.max_switch_gap,
                "min_valid_tickets": self.min_valid_tickets,
                "sybil_violations": self.sybil_violations,
                "locks_granted": self.counters["locks_granted"],
                "locks_denied": sum(
                    n for key, n in self.counters.items() if key.startswith("lock_denied_")
                ),
            },
            "counters": dict(sorted({**self.counters, **self.core.counters}.items())),
        }


def run_scenario(
    source: Union[ScenarioConfig, dict, str],
    *,
    seed_override: Optional[int] = None,
    collect_trace: bool = False,
) -> RunResult:
    """Load (if needed), optionally re-seed, and run one scenario."""
    config = source if isinstance(source, ScenarioConfig) else load_scenario(source)
    if seed_override is not None:
        config = config.with_seed(seed_override)
    return SimulationEngine(config, collect_trace=collect_trace).run()


def run_job(config: ScenarioConfig) -> tuple[str, dict]:
    """Worker entry point for process pools: returns (summary json, summary)."""
    result = run_scenario(config)
    return result.summary_json(), result.summary
