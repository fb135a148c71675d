"""Pseudonym change policies, identifier locks and ticket pools.

A vehicle holds a pool of authorization tickets per application scope and
activates one at a time; policies decide when to swap, locks let safety
applications briefly pin the current identifier, and a network coordinator can
synchronize swaps across a region. All decision logic is pure and unit-level;
the engine wires it to vehicles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .sba import AppScope, AuthorizationTicket

_EPS = 1e-9

MAX_SINGLE_LOCK_S = 255.0
MAX_CUMULATIVE_LOCK_S = 900.0


# --- policies ----------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicPolicy:
    """Fixed-interval change; default mirrors the common 5-minute profile."""

    interval_s: float = 300.0

    kind = "periodic"


@dataclass(frozen=True)
class SegmentPolicy:
    """Trip-segment profile: change at trip start, again within a sampled
    800-1500 m of the start, then whenever at least 800 m and a sampled
    2-6 minutes have both passed since the previous change."""

    second_change_min_m: float = 800.0
    second_change_max_m: float = 1500.0
    subsequent_min_distance_m: float = 800.0
    subsequent_time_min_s: float = 120.0
    subsequent_time_max_s: float = 360.0

    kind = "segment"


@dataclass(frozen=True)
class SynchronizedPolicy:
    """Change at shared window boundaries, every ``interval_s`` per vehicle.

    Each vehicle evaluates boundaries on its own (possibly skewed) clock, so
    a nonzero skew spreads one logical boundary over real time."""

    interval_s: float = 300.0
    window_s: float = 10.0

    kind = "synchronized"


@dataclass(frozen=True)
class NetworkTriggeredPolicy:
    """Changes happen only on coordinator command."""

    min_interval_s: float = 300.0
    coordination_interval_s: float = 1.0
    max_silent_fraction: float = 0.5

    kind = "network_triggered"


ChangePolicy = Union[PeriodicPolicy, SegmentPolicy, SynchronizedPolicy, NetworkTriggeredPolicy]


@dataclass
class TriggerState:
    """Per-vehicle sampled thresholds and pending coordinator commands."""

    threshold_distance_m: Optional[float] = None
    threshold_time_s: Optional[float] = None
    pending_command: bool = False


def rearm_trigger(
    policy: ChangePolicy, changes_done: int, rng: np.random.Generator
) -> TriggerState:
    """A fresh state for the next change decision, drawn right after a change.

    Only ``segment`` draws thresholds. After the trip-start change the next
    trigger is a distance from trip start, uniform on [second_change_min_m,
    second_change_max_m]. After the second change every subsequent trigger
    needs the fixed minimum distance plus an elapsed time uniform on
    [subsequent_time_min_s, subsequent_time_max_s], both measured since the
    last change.
    """
    if not isinstance(policy, SegmentPolicy) or changes_done <= 0:
        return TriggerState()
    if changes_done == 1:
        return TriggerState(
            threshold_distance_m=float(
                rng.uniform(policy.second_change_min_m, policy.second_change_max_m)
            )
        )
    return TriggerState(
        threshold_distance_m=policy.subsequent_min_distance_m,
        threshold_time_s=float(
            rng.uniform(policy.subsequent_time_min_s, policy.subsequent_time_max_s)
        ),
    )


def _at_window_boundary(local_time: float, window_s: float, tol_s: float) -> bool:
    frac = math.fmod(local_time, window_s)
    if frac < 0.0:
        frac += window_s
    return frac <= tol_s or window_s - frac <= tol_s


def evaluate_change_trigger(
    policy: ChangePolicy,
    trip,
    trigger: TriggerState,
    now: float,
    *,
    since_s: float,
    clock_skew_s: float = 0.0,
    boundary_tol_s: float = 1e-6,
) -> bool:
    """Does this vehicle want to change its pseudonyms right now?

    ``trip`` supplies the odometers (see ``mobility.TripState``), ``since_s`` the
    seconds since the last change. The call is pure: executing the change and
    re-arming the trigger are separate steps. Its thresholds are
    ``trigger_lower_bounds``, which also time the wake tick.
    """
    if trip.changes_this_trip == 0:
        return True
    if isinstance(policy, NetworkTriggeredPolicy):
        return trigger.pending_command
    min_s, metres = trigger_lower_bounds(policy, trip, trigger)
    if since_s < min_s or metres > 0.0:
        return False
    if isinstance(policy, SynchronizedPolicy):
        return _at_window_boundary(now + clock_skew_s, policy.window_s, boundary_tol_s)
    return True


def trigger_lower_bounds(policy: ChangePolicy, trip, trigger: TriggerState) -> tuple[float, float]:
    """(seconds since the last change, metres still to drive) before a change
    can be due; ``inf`` waits for a coordinator command. With gradual underflow
    the metres are exact: ``(thr - _EPS) - odo > 0.0`` iff ``odo < thr - _EPS``."""
    if trip.changes_this_trip == 0:
        return -math.inf, 0.0
    if isinstance(policy, SegmentPolicy):
        if trip.changes_this_trip == 1:
            return -math.inf, trigger.threshold_distance_m - _EPS - trip.odometer_trip_m
        return (trigger.threshold_time_s - _EPS,
                trigger.threshold_distance_m - _EPS - trip.odometer_since_change_m)
    if isinstance(policy, NetworkTriggeredPolicy):
        return math.inf, 0.0
    if isinstance(policy, (PeriodicPolicy, SynchronizedPolicy)):
        return policy.interval_s - _EPS, 0.0
    raise TypeError(f"unknown policy {policy!r}")


# --- identifier locks ---------------------------------------------------------


@dataclass(frozen=True)
class LockDecision:
    granted: bool
    reason: Optional[str] = None


class LockLedger:
    """Tracks identifier locks for one vehicle and enforces the caps.

    A single lock may not exceed 255 s, and a continuous run of locked time
    (locks chained without a strict gap) may not exceed 900 s. After
    ``renewal_threshold`` consecutive grants to the same application inside
    one run, further grants need the network validator's approval. Both the
    run clock and the renewal counts reset once a strict gap in coverage
    appears. Only the run's ends are kept: queries come in time order, as the
    engine makes them, and a grant starts at its request, so from the latest
    request on ``locked`` is ``now < chain_end``.
    """

    def __init__(self, renewal_threshold: int = 3):
        self.renewal_threshold = int(renewal_threshold)
        self.renewal_counts: dict[str, int] = {}
        self.chain_start: Optional[float] = None
        self.chain_end: Optional[float] = None

    def sweep(self, now: float) -> None:
        """Housekeeping at a time step: reset a chain that a strict gap broke."""
        if self.chain_end is not None and now > self.chain_end + _EPS:
            self.chain_start = None
            self.chain_end = None
            self.renewal_counts = {}

    def locked(self, now: float) -> bool:
        return self.chain_end is not None and now < self.chain_end

    def request(
        self,
        app_id: str,
        duration_s: float,
        now: float,
        pseudonym_valid_until: float,
        validator: Optional[Callable[[str, float], bool]] = None,
    ) -> LockDecision:
        """Grant or deny one lock request.

        Denial reasons: ``invalid_duration``, ``over_max_single``,
        ``over_cumulative``, ``past_pseudonym_validity``, ``network_rejected``.
        """
        self.sweep(now)
        if duration_s <= 0.0:
            return LockDecision(False, reason="invalid_duration")
        if duration_s > MAX_SINGLE_LOCK_S:
            return LockDecision(False, reason="over_max_single")
        start = self.chain_start if self.chain_start is not None else now
        expires = now + duration_s
        if expires - start > MAX_CUMULATIVE_LOCK_S + _EPS:
            return LockDecision(False, reason="over_cumulative")
        if expires > pseudonym_valid_until + _EPS:
            return LockDecision(False, reason="past_pseudonym_validity")
        count = self.renewal_counts.get(app_id, 0)
        if count >= self.renewal_threshold:
            if validator is None or not validator(app_id, now):
                return LockDecision(False, reason="network_rejected")
        self.chain_start = start
        self.chain_end = expires if self.chain_end is None else max(self.chain_end, expires)
        self.renewal_counts[app_id] = count + 1
        return LockDecision(True)


# --- ticket pools -------------------------------------------------------------

SELECTION_ROUND_ROBIN = "round_robin"
SELECTION_NO_REUSE = "no_reuse"


class PoolError(ValueError):
    pass


@dataclass
class _ScopePool:
    position: dict[str, int] = field(default_factory=dict)  # at_id -> issue index
    # the tickets that can still become usable, in issue order: ``count`` of
    # them are usable at every now from the pool's latest query until ``until``
    live: list[AuthorizationTicket] = field(default_factory=list)
    until: float = -math.inf
    count: int = 0


class PseudonymPool:
    """Per-scope ticket inventory with a pluggable selection discipline.

    ``active`` maps each scope to its active ticket. ``round_robin`` cycles
    through still-valid tickets and may re-activate a previously used one;
    ``no_reuse`` never re-activates a retired ticket. Either way the pool must
    keep at least ``min_concurrent_valid`` valid tickets on hand, and
    replenishment tops it back up to ``target_size``.

    Queries go forward only: one at a ``now`` earlier than the pool's latest
    query raises ``PoolError``. So each scope indexes only the tickets that
    can still become usable, and queries cost O(live tickets), not O(issued).
    A query at ``now >= until`` prunes the index of tickets with
    ``valid_until <= now``, sets ``until`` to the earliest next transition of
    an indexed ticket (its ``valid_from`` if that is still ahead, else its
    ``valid_until``) and ``count`` to the number usable at ``now``. Before
    ``until`` no indexed ticket comes due or lapses, so ``valid_count`` is
    ``count`` there, until the set of tickets changes: ``add_batch`` ends the
    interval (``until = -inf``), and so does ``activate`` under ``no_reuse``,
    which drops the retired ticket from the index.
    ``steady_until`` ends the last ``min_valid_count``'s intervals if it
    reached ``min_concurrent_valid``, else is ``-inf``, as after any change.
    """

    def __init__(
        self,
        selection: str,
        min_concurrent_valid: int,
        target_size: int,
        scopes: Sequence[AppScope],
    ):
        if selection not in (SELECTION_ROUND_ROBIN, SELECTION_NO_REUSE):
            raise PoolError(f"unknown selection discipline {selection!r}")
        if min_concurrent_valid < 2:
            raise PoolError("min_concurrent_valid must be at least 2")
        if target_size < min_concurrent_valid:
            raise PoolError("target_size must be >= min_concurrent_valid")
        self.selection = selection
        self.min_concurrent_valid = int(min_concurrent_valid)
        self.target_size = int(target_size)
        self._scopes: dict[AppScope, _ScopePool] = {s: _ScopePool() for s in scopes}
        self.active: dict[AppScope, AuthorizationTicket] = {}
        self.latest = -math.inf  # the latest query's now
        self.steady_until = -math.inf

    @property
    def scopes(self) -> list[AppScope]:
        return list(self._scopes)

    def add_batch(self, scope: AppScope, batch: Sequence[AuthorizationTicket]) -> None:
        pool = self._scopes[scope]
        for t in batch:
            if t.at_id in pool.position:
                raise PoolError(f"duplicate ticket {t.at_id}")
            pool.position[t.at_id] = len(pool.position)
            pool.live.append(t)
        pool.until = self.steady_until = -math.inf

    def _valid(self, pool: _ScopePool, now: float) -> list[AuthorizationTicket]:
        """Usable tickets at ``now`` in issue order."""
        if now < self.latest:
            raise PoolError(f"query at {now} is before the pool's latest query at {self.latest}")
        self.latest = now
        if now >= pool.until:
            pool.live = [t for t in pool.live if now < t.valid_until]
            pool.until = min(
                (t.valid_from if t.valid_from > now else t.valid_until for t in pool.live),
                default=math.inf,
            )
            valid = [t for t in pool.live if t.valid_from <= now]
            pool.count = len(valid)
            return valid
        # every indexed ticket has valid_until > now
        return [t for t in pool.live if t.valid_from <= now]

    def valid_tickets(self, scope: AppScope, now: float) -> list[AuthorizationTicket]:
        return self._valid(self._scopes[scope], now)

    def valid_count(self, scope: AppScope, now: float) -> int:
        pool = self._scopes[scope]
        if self.latest <= now < pool.until:
            self.latest = now
            return pool.count
        return len(self._valid(pool, now))

    def min_valid_count(self, now: float) -> int:
        count = min(self.valid_count(s, now) for s in self._scopes)
        self.steady_until = -math.inf if count < self.min_concurrent_valid else min(
            p.until for p in self._scopes.values()
        )
        return count

    def select_next(self, scope: AppScope, now: float) -> Optional[AuthorizationTicket]:
        """Pick the replacement ticket without activating it yet.

        Never returns the currently active ticket (a change must change the
        identifier). Returns None when the discipline has nothing to offer.
        ``no_reuse`` takes the first usable ticket in issue order;
        ``round_robin`` the first one issued after the active one, wrapping around.
        """
        pool = self._scopes[scope]
        active_id = self.active[scope].at_id if scope in self.active else None
        candidates = [t for t in self._valid(pool, now) if t.at_id != active_id]
        if self.selection == SELECTION_ROUND_ROBIN:
            cursor = pool.position.get(active_id, -1)
            candidates = [t for t in candidates if pool.position[t.at_id] > cursor] or candidates
        return candidates[0] if candidates else None

    def activate(self, scope: AppScope, ticket: AuthorizationTicket) -> None:
        pool = self._scopes[scope]
        if ticket.at_id not in pool.position:
            raise PoolError(f"ticket {ticket.at_id} not in pool")
        retired = self.active.get(scope)
        if retired is not None and self.selection == SELECTION_NO_REUSE:
            pool.live = [t for t in pool.live if t.at_id != retired.at_id]
            pool.until = -math.inf
        self.active[scope] = ticket
        self.steady_until = -math.inf

    def needs_replenish(self, scope: AppScope, now: float) -> bool:
        return self.valid_count(scope, now) < self.min_concurrent_valid

    def replenish_need(self, scope: AppScope, now: float) -> int:
        return max(0, self.target_size - self.valid_count(scope, now))


def replenish_pool(pool: PseudonymPool, scope: AppScope, cert, core, now: float) -> int:
    """Top a scope back up to the pool's target size via the core.

    Returns the number of tickets added. Provisioning failures propagate and
    leave the pool unchanged.
    """
    need = pool.replenish_need(scope, now)
    if need <= 0:
        return 0
    need = min(need, core.config.at_batch_cap)
    batch = core.provision_ticket_batch(cert, need, (scope.value,), now)
    pool.add_batch(scope, batch)
    return len(batch)


# --- change planning and records ---------------------------------------------


def plan_change(
    pool: PseudonymPool, now: float
) -> Optional[dict[AppScope, AuthorizationTicket]]:
    """Choose replacement tickets for every scope, atomically.

    Returns None (and selects nothing) when any scope is starved: a change
    must swap the whole identifier stack or not happen at all.
    """
    plan: dict[AppScope, AuthorizationTicket] = {}
    for scope in pool.scopes:
        pick = pool.select_next(scope, now)
        if pick is None:
            return None
        plan[scope] = pick
    return plan


@dataclass(frozen=True)
class ChangeRecord:
    """Ground-truth record of one executed pseudonym change."""

    t: float
    vehicle_id: int
    trigger: str
    old_ids: dict
    new_ids: dict
    position: tuple[float, float]
    silence_s: float


# --- network coordination ------------------------------------------------------


@dataclass(frozen=True)
class CoordinationCandidate:
    vehicle_id: int
    last_change_time: float
    ready: bool  # no active locks
    due: bool  # min interval since last change has elapsed
    silent: bool  # currently in a silence period


def coordinate_network_change(
    candidates: Sequence[CoordinationCandidate], max_silent_fraction: float
) -> list[int]:
    """Pick which vehicles a coordinator commands to change this round.

    At most ``floor(max_silent_fraction * population) - currently_silent``
    commands go out, to the ready-and-due vehicles that changed longest ago;
    ties fall back to the lower vehicle id.
    """
    population = len(candidates)
    if population == 0:
        return []
    silent = sum(1 for c in candidates if c.silent)
    budget = int(math.floor(max_silent_fraction * population)) - silent
    if budget <= 0:
        return []
    eligible = sorted(
        (c for c in candidates if c.ready and c.due and not c.silent),
        key=lambda c: (c.last_change_time, c.vehicle_id),
    )
    return [c.vehicle_id for c in eligible[:budget]]
