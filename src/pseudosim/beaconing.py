"""Broadcast records and the receiver-side local dynamic map.

Cooperative awareness messages (CAMs) and event notifications (DENMs) are
signed under per-application pseudonyms derived from authorization tickets.
Each broadcast is one frozen record: an ``Observation`` for a CAM or DENM, a
``NoticeSighting`` for a deactivation notice. The sender emits it, receivers
fold its CAMs and notices into a local dynamic map (LDM) whose entries age
out, and the eavesdropper and the trace keep the very same object. The
quality metrics here (ghost, missing, awareness) measure what identifier
churn does to the receivers' picture.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Optional, Sequence

from .sba import AppScope, AuthorizationTicket

Point = tuple[float, float]


def station_id_for(ticket: AuthorizationTicket, scope: AppScope) -> str:
    """Over-the-air identifier bound to (ticket, application).

    Distinct scopes under one ticket yield unlinkable identifiers, which is
    what keeps a vehicle's CAM stream and DENM stream syntactically separate.
    """
    raw = f"{ticket.at_id}|{scope.value}".encode()
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class Observation:
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


@dataclass(frozen=True, slots=True)
class NoticeSighting:
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
    ``ldm_quality`` evicts them in the same pass that scores the rest.
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
    are evicted in the same pass, so afterwards every entry left is live.
    """
    ghost = 0
    per_neighbor: dict[int, int] = dict.fromkeys(neighbor_ids, 0)
    timeout_s = ldm.timeout_s
    dead = []
    for sid, seen in ldm.last_seen.items():
        if now - seen > timeout_s:
            dead.append(sid)
            continue
        if sid not in active_station_ids:
            ghost += 1
        owner = owner_of.get(sid)
        if owner in per_neighbor:
            per_neighbor[owner] += 1
    for sid in dead:
        del ldm.last_seen[sid]
    counts = list(per_neighbor.values())
    missing = counts.count(0)
    ratio = counts.count(1) / len(counts) if counts else 1.0
    return LdmQuality(ghost_count=ghost, missing_count=missing, awareness_ratio=ratio)
