"""Broadcast records and the receiver-side local dynamic map.

Cooperative awareness messages (CAMs) and event notifications (DENMs) are
signed under per-application pseudonyms derived from authorization tickets.
Each broadcast is one frozen record: an ``Observation`` for a CAM or DENM, a
``NoticeSighting`` for a deactivation notice. The sender emits it, receivers
fold it into a local dynamic map (LDM) whose entries age out, and the
eavesdropper and the trace keep the very same object. The quality metrics
here (ghost, missing, awareness) measure what identifier churn does to the
receivers' picture.
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


@dataclass(slots=True)
class LdmEntry:
    station_id: str
    scope: str
    last_seen: float


class LocalDynamicMap:
    """Per-receiver table of currently known stations."""

    def __init__(self, timeout_s: float = 1.5):
        self.timeout_s = float(timeout_s)
        self._entries: dict[str, LdmEntry] = {}

    def receive(self, msg: Observation | NoticeSighting, now: float) -> None:
        if type(msg) is NoticeSighting:
            self._entries.pop(msg.station_id, None)
            return
        entry = self._entries.get(msg.station_id)
        if entry is None:
            self._entries[msg.station_id] = LdmEntry(msg.station_id, msg.scope, now)
        else:  # refresh in place; a station id is bound to one scope
            entry.last_seen = now

    def evict_expired(self, now: float) -> int:
        dead = [
            sid for sid, e in self._entries.items() if now - e.last_seen > self.timeout_s
        ]
        for sid in dead:
            del self._entries[sid]
        return len(dead)

    def live_entries(self, now: float) -> list[LdmEntry]:
        return [
            e for e in self._entries.values() if now - e.last_seen <= self.timeout_s
        ]

    def __len__(self) -> int:
        return len(self._entries)


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

    Only cooperative-awareness entries count: DENMs describe events, not
    neighbors. A ghost is a live entry whose identifier is no longer active
    anywhere (its owner moved on). A neighbor is missing when no live entry
    belongs to it, and awareness is the fraction of neighbors represented by
    exactly one live entry. With no neighbors in range awareness is 1.0.
    """
    ghost = 0
    per_neighbor: dict[int, int] = dict.fromkeys(neighbor_ids, 0)
    timeout_s = ldm.timeout_s
    for e in ldm._entries.values():  # one pass; same liveness test as live_entries
        if e.scope != "CAM" or now - e.last_seen > timeout_s:
            continue
        sid = e.station_id
        if sid not in active_station_ids:
            ghost += 1
        owner = owner_of.get(sid)
        if owner in per_neighbor:
            per_neighbor[owner] += 1
    counts = list(per_neighbor.values())
    missing = counts.count(0)
    ratio = counts.count(1) / len(counts) if counts else 1.0
    return LdmQuality(ghost_count=ghost, missing_count=missing, awareness_ratio=ratio)
