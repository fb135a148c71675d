"""Broadcast records and the receiver-side local dynamic map.

Cooperative awareness messages (CAMs) and event notifications (DENMs) are
signed under per-application pseudonyms derived from authorization tickets.
Each broadcast is one ``NamedTuple`` (so it equals the plain tuple of its
fields): an ``Observation`` for a CAM or DENM, a ``NoticeSighting`` for a
deactivation notice. The sender emits it, receivers fold its CAMs and notices
into a local dynamic map (LDM) whose entries age out, and the eavesdropper
and the trace keep the very same object. The quality metrics here (ghost,
missing, awareness) measure what identifier churn does to the receivers'
picture.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import AbstractSet, Mapping, NamedTuple, Optional, Sequence

from .sba import AppScope, AuthorizationTicket

Point = tuple[float, float]

# No run reaches tick 2**52 (config caps a run at 10**7 ticks). Near it, tick
# times stop being distinct floats, so an expiry that far out is never kept.
_NEVER = 2**52


def station_id_for(ticket: AuthorizationTicket, scope: AppScope) -> str:
    """Over-the-air identifier bound to (ticket, application).

    Distinct scopes under one ticket yield unlinkable identifiers, which is
    what keeps a vehicle's CAM stream and DENM stream syntactically separate.
    """
    raw = f"{ticket.at_id}|{scope.value}".encode()
    return hashlib.sha256(raw).hexdigest()[:16]


class Observation(NamedTuple):
    """One broadcast beacon as transmitted (reported position, not truth).

    ``scope`` is the application (``"CAM"`` or ``"DENM"``); an event
    notification carries no motion and no vehicle dimensions.
    """

    t: float
    station_id: str
    scope: str
    position: Point
    velocity: Point = (0.0, 0.0)
    quasi_ids: Optional[tuple[float, float]] = None  # vehicle length, width


class NoticeSighting(NamedTuple):
    """Tells receivers an identifier is retiring so they can drop its entry.

    Sent at the moment of a pseudonym change, before any silence starts."""

    t: float
    station_id: str
    scope: str


class LocalDynamicMap:
    """Per-receiver table of the stations it currently knows from their CAMs.

    One dict maps each station id to the time its last CAM arrived. Only CAMs
    describe neighbours, so a DENM leaves the table as it is; a deactivation
    notice drops its station. Entries older than ``timeout_s`` are expired:
    ``ldm_quality`` evicts them before it scores the rest.
    """

    def __init__(self, timeout_s: float = 1.5):
        self.timeout_s = float(timeout_s)
        self.last_seen: dict[str, float] = {}

    def receive(self, msg: Observation | NoticeSighting, now: float) -> None:
        if type(msg) is NoticeSighting:
            self.last_seen.pop(msg.station_id, None)
        elif msg.scope == "CAM":
            self.last_seen[msg.station_id] = now

    def evict_expired(self, now: float) -> int:
        dead = [sid for sid, seen in self.last_seen.items() if now - seen > self.timeout_s]
        for sid in dead:
            del self.last_seen[sid]
        return len(dead)

    def live_entries(self, now: float) -> list[tuple[str, float]]:
        """(station id, last seen) of every unexpired entry."""
        return [
            (sid, seen) for sid, seen in self.last_seen.items() if now - seen <= self.timeout_s
        ]

    def __len__(self) -> int:
        return len(self.last_seen)


@dataclass(frozen=True)
class LdmQuality:
    ghost_count: int
    missing_count: int
    awareness_ratio: float


def ldm_quality(
    ldm: LocalDynamicMap,
    neighbor_ids: Sequence[int],
    owner_of: Mapping[str, int],
    active_station_ids: AbstractSet[str],
    now: float,
) -> LdmQuality:
    """Score one receiver's LDM against ground truth at time ``now``.

    A ghost is a live entry whose identifier is no longer active anywhere
    (its owner moved on). A neighbor is missing when no live entry belongs to
    it, and awareness is the fraction of neighbors represented by exactly one
    live entry. With no neighbors in range awareness is 1.0. Expired entries
    are evicted first, so every entry left is live.
    """
    ldm.evict_expired(now)
    ghost = 0
    per_neighbor: dict[int, int] = dict.fromkeys(neighbor_ids, 0)
    for sid in ldm.last_seen:
        if sid not in active_station_ids:
            ghost += 1
        owner = owner_of.get(sid)
        if owner in per_neighbor:
            per_neighbor[owner] += 1
    counts = list(per_neighbor.values())
    missing = counts.count(0)
    ratio = counts.count(1) / len(counts) if counts else 1.0
    return LdmQuality(ghost_count=ghost, missing_count=missing, awareness_ratio=ratio)


class _Node:
    """One vehicle of a ``FleetLdm``, as a receiver and as a CAM sender."""

    def __init__(self, near: Sequence[int]):
        self.entries: dict[str, Optional[int]] = {}  # sid -> None if streamed, else CAM tick
        self.count: dict[int, int] = {}  # owner -> live entries
        self.near, self.ghost, self.n_zero, self.n_one = set(near), 0, len(near), 0
        # the id and tick of its last CAM, and the receivers it keeps refreshing
        self.sid, self.cam_tick, self.streamed = None, 0, set()


class FleetLdm:
    """Every receiver's LDM sample, as ``ldm_quality`` would score it, kept by events.

    An entry that an unbroken CAM stream refreshes is not rewritten: its
    last-seen time is the sender's last CAM. It gets an explicit time, and an
    expiry bucket keyed by tick, only when a refresh is missed: a lost CAM,
    the pair leaving range, the sender's id retiring, a due CAM unsent, or a
    CAM period longer than the timeout. ``owner_of`` is the caller's;
    ``active``, the station ids on the air, is kept here by ``activate`` and
    ``retire``. Each tick the caller runs ``drop``, ``relink`` and ``expire``
    before any read, and ``forget`` before ``heard``.
    """

    def __init__(self, timeout_s: float, tick_s: float, cam_period_ticks: int,
                 owner_of: Mapping[str, int]):
        self.timeout_s, self.tick_s, self.period = float(timeout_s), tick_s, cam_period_ticks
        # no entry expires sooner after its CAM
        self.lag = int(min(self.timeout_s / tick_s, _NEVER))
        # heard's exact test can pass only if the CAM period comes within a
        # millionth of a tick of the timeout: rounding moves (tick + period) *
        # tick_s - tick * tick_s by far less, up to 10**7 ticks
        self.slow_cams = cam_period_ticks * tick_s > self.timeout_s - 1e-6 * tick_s
        self.owner_of, self.active = owner_of, set()
        self.nodes: dict[int, _Node] = {}
        self.roster: list[_Node] = []  # the vehicles of the last neighbour lists, by id
        self.holders: dict[str, set[int]] = {}  # station id -> receivers with an entry
        self.due: dict[int, list] = {}  # tick -> [(sid, CAM tick, receivers to check)]
        self.neighbors: dict[int, list[int]] = {}

    def _tally(self, rid: int, sid: str, delta: int) -> None:
        """Add (+1) or remove (-1) ``rid``'s entry for ``sid`` in every counter."""
        node, owner = self.nodes[rid], self.owner_of[sid]
        if delta > 0:
            node.entries[sid] = None
            self.holders.setdefault(sid, set()).add(rid)
        else:
            del node.entries[sid]
            self._unhold(rid, sid)
        node.ghost += delta * (sid not in self.active)
        was = node.count.get(owner, 0)
        node.count[owner] = was + delta
        if owner in node.near:
            node.n_zero += (was + delta == 0) - (was == 0)
            node.n_one += (was + delta == 1) - (was == 1)

    def _unhold(self, rid: int, sid: str) -> None:
        holders = self.holders[sid]
        holders.discard(rid)
        if not holders:
            del self.holders[sid]

    def _freeze(self, tx: _Node, rids: AbstractSet[int]) -> None:
        """``tx`` stops refreshing ``rids``: their entries keep its last CAM tick."""
        for rid in rids:
            self.nodes[rid].entries[tx.sid] = tx.cam_tick
        seen, ends = tx.cam_tick * self.tick_s, tx.cam_tick + self.lag
        while ends < _NEVER and ends * self.tick_s - seen <= self.timeout_s:  # evict_expired's test
            ends += 1
        if ends < _NEVER:
            self.due.setdefault(ends, []).append((tx.sid, tx.cam_tick, rids))

    def cut(self, vid: int) -> None:
        """``vid`` misses a refresh: a due CAM is not sent, or its id retires."""
        tx = self.nodes[vid]
        if tx.streamed:
            self._freeze(tx, tx.streamed)
            tx.streamed = set()

    def retire(self, sid: str) -> None:
        """Take ``sid`` off the air."""
        self.active.discard(sid)
        for rid in self.holders.get(sid, ()):
            self.nodes[rid].ghost += 1
        self.cut(self.owner_of[sid])

    def activate(self, sid: str) -> None:
        """Put ``sid`` on the air; a round-robin pool may reuse it."""
        self.active.add(sid)
        for rid in self.holders.get(sid, ()):
            self.nodes[rid].ghost -= 1

    def forget(self, rid: int, sid: str) -> None:
        """A deactivation notice for ``sid`` reached ``rid``."""
        if sid in self.nodes[rid].entries:
            self._tally(rid, sid, -1)

    def heard(self, vid: int, sid: str, lost: AbstractSet[int], tick: int) -> None:
        """``vid``'s CAM under ``sid`` reached its neighbours except ``lost``."""
        tx = self.nodes[vid]
        if lost or len(tx.streamed) < len(tx.near):  # else it streams to all in range
            missed = tx.streamed & lost
            if missed:
                self._freeze(tx, missed)
                tx.streamed -= missed
            reached = tx.near - tx.streamed - lost
            tx.streamed |= reached
            for rid in reached:
                if sid in self.nodes[rid].entries:
                    self.nodes[rid].entries[sid] = None
                else:
                    self._tally(rid, sid, 1)
        tx.sid, tx.cam_tick = sid, tick
        if self.slow_cams and (
            (tick + self.period) * self.tick_s - tick * self.tick_s > self.timeout_s
        ):
            self.cut(vid)  # every entry would age out before the next CAM

    def expire(self, tick: int) -> None:
        """Drop the entries that age out at ``tick`` and were not refreshed since."""
        for sid, seen, rids in self.due.pop(tick, ()):
            for rid in rids:
                if rid in self.nodes and self.nodes[rid].entries.get(sid) == seen:
                    self._tally(rid, sid, -1)

    def relink(self, neighbors: dict[int, list[int]]) -> None:
        """Take fresh neighbour lists; a pair that left range stops streaming."""
        old, self.neighbors = self.neighbors, neighbors
        for vid, near in neighbors.items():
            node = self.nodes.get(vid)
            if node is None:
                self.nodes[vid] = _Node(near)
            elif old[vid] != near:
                node.near, count = set(near), node.count
                left = node.streamed - node.near
                if left:
                    self._freeze(node, left)
                    node.streamed -= left
                node.n_zero = sum(not count.get(owner) for owner in near)
                node.n_one = sum(count.get(owner) == 1 for owner in near)
        self.roster = [self.nodes[vid] for vid in neighbors]

    def drop(self, vid: int) -> None:
        """Forget a vehicle that left the road; its entries in other LDMs stay."""
        node = self.nodes.pop(vid)
        for sid in node.entries:
            self._unhold(vid, sid)
        for sender in node.near & self.nodes.keys():
            self.nodes[sender].streamed.discard(vid)
