"""Passive eavesdropper that re-links pseudonymous trajectories.

The attacker keeps the broadcast records of ``beaconing`` (``Observation``,
``NoticeSighting``) sent inside its coverage in an ``ObservationStore`` (of an
identifier's observations only the first and latest), chains them into one
tracklet per identifier, then tries to stitch tracklets across id changes:
first by quasi-identifier (semantic) matching on a ``_QUASI_TOL`` grid, then
by minimum-cost kinematic assignment across silence gaps. Scoring compares the
stitched hypotheses against ground truth.

The kinematic stage solves a rectangular assignment problem with a no-match
option. Costs are compared on one integer grid (``_tie_grid``), which is the
only definition of a tie; among tied optima the lexicographically smallest
assignment by station identifier wins, so results are reproducible bit for
bit whatever the input order. An epoch of at most ``_SMALL_EPOCH`` (6)
tracklets is enumerated on that grid; a larger one splits into the components
of its matchable pairs, which share one shortest-augmenting-path solve.

This module also owns the ``trace.jsonl`` row format: ``trace_row`` writes a
row and ``load_trace`` reads a file of them back, naming any row it refuses.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import gc
import heapq
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, NoReturn, Optional, Sequence

import numpy as np

from .beaconing import NoticeSighting, Observation

Point = tuple[float, float]

_INFEASIBLE = math.inf  # cost of a gap outside (0, max_gap_s]; the tie grid clips it
_SMALL_EPOCH = 6  # most tracklets (n_e + n_s) for which enumeration beats the solver
_T, _STATION_ID = operator.attrgetter("t"), operator.attrgetter("station_id")
_ANONYMITY_CELLS = 1 << 14  # (change, interval) cells and (change, owner) flags per chunk
_MOTION = ("t", "x", "y", "vx", "vy")  # a beacon row's number fields
_QUASI_TOL = 0.01  # m: the grid on which quasi-identifiers (vehicle dimensions) match


class ObservationStore:
    """Time-ordered log of records. An ``Eavesdropper``'s holds each heard id's
    first and latest observation; one that ``load_trace`` rebuilds holds every
    row, which a replay counts. Records of one time keep their arrival order,
    which no linkage reads: an id sends at most once per time, and
    ``build_tracklets`` reads each id's first and last record."""

    def __init__(self):
        self.observations: list[Observation] = []
        self.notices: list[NoticeSighting] = []

    def finalize(self) -> None:
        """Order both logs by time, stably, as a trace arrives; an ``Eavesdropper``
        leaves an id's latest record in the slot of its second."""
        for log in (self.observations, self.notices):
            log.sort(key=_T)


@dataclass(frozen=True)
class CoveragePost:
    x: float
    y: float
    radius_m: float


class Eavesdropper:
    """Coverage filter plus observation log.

    ``posts=None`` means global coverage. Coverage is evaluated against the
    sender's true position (the attacker either hears a transmission or not);
    what gets recorded is the broadcast content.

    Every notice is kept, but of the observations only what a linkage reads:
    each id's first, and its latest in a slot each later one overwrites. On
    ``latency_fleet`` that is 2,192 records, not 32,775 (0.5 MB, not 6.9 MB,
    under ``tracemalloc``), and 26 young-generation garbage collections, not
    109. Records arrive in non-decreasing time, as the engine's ticks send
    them; ``store.finalize()`` ends the hearing, as it moves records' slots.
    """

    def __init__(self, posts: Optional[Sequence[CoveragePost]] = None):
        self.posts = list(posts) if posts is not None else None
        self.store = ObservationStore()
        self._latest: dict[str, int] = {}  # id -> slot of its latest record, -1 if none yet

    def covers(self, true_position: Point) -> bool:
        if self.posts is None:
            return True
        return any(
            math.dist((p.x, p.y), true_position) <= p.radius_m for p in self.posts
        )

    def retained(self, station_id: str, heard: Sequence, true_position: Callable) -> list:
        """Of ``station_id``'s beacons ``heard`` in time order, those whose hearing alone
        fills the store as hearing all would: of those covered at ``true_position(h)``,
        as many of the first as the store lacks of the id's first two, and the last."""
        if self.posts is not None:
            heard = [h for h in heard if self.covers(true_position(h))]
        slot = self._latest.get(station_id)
        need = 2 if slot is None else 1 if slot < 0 else 0
        return [*heard[:need], heard[-1]] if len(heard) > need else [*heard]

    def hear(self, obs: Observation, true_position: Point) -> bool:
        self.hear_all((), ((None, obs, true_position),))
        return self.covers(true_position)

    def hear_notice(self, notice: NoticeSighting, true_position: Point) -> bool:
        self.hear_all(((None, notice, true_position),), ())
        return self.covers(true_position)

    def hear_all(self, notices: Sequence[tuple], beacons: Sequence[tuple]) -> None:
        """Hear a tick's notices and beacons, each a (sender id, record, true position)."""
        store, latest, records = self.store, self._latest, operator.itemgetter(1)
        if self.posts is None:
            store.notices.extend(map(records, notices))
            heard = map(records, beacons)
        else:
            store.notices.extend(rec for _, rec, pos in notices if self.covers(pos))
            heard = (rec for _, rec, pos in beacons if self.covers(pos))
        log = store.observations
        for obs in heard:
            slot = latest.get(obs.station_id)
            if slot is None or slot < 0:  # the id's first (None) or second record
                latest[obs.station_id] = -1 if slot is None else len(log)
                log.append(obs)
            else:
                log[slot] = obs


# --- tracklets ----------------------------------------------------------------


@dataclass
class Tracklet:
    station_id: str
    scope: str
    t_first: float
    t_last: float
    pos_first: Point
    pos_last: Point
    vel_last: Point
    quasi_ids: Optional[tuple[float, float]]

    @property
    def duration(self) -> float:
        return self.t_last - self.t_first


def build_tracklets(store: ObservationStore) -> list[Tracklet]:
    """Syntactic chaining: one tracklet per station identifier.

    Scope and quasi-identifiers come from the id's first record, motion from
    its last; a linkage reads no record between, so none is kept or counted."""
    obs = store.observations
    ids = list(map(_STATION_ID, obs))
    last = dict(zip(ids, obs))
    first = dict(zip(reversed(ids), reversed(obs)))
    tracklets = []
    for sid in sorted(first):
        head, tail = first[sid], last[sid]
        tracklets.append(Tracklet(sid, head.scope, head.t, tail.t, head.position,
                                  tail.position, tail.velocity, head.quasi_ids))
    tracklets.sort(key=operator.attrgetter("t_first"))  # ids are unique: (t_first, id) order
    return tracklets


# --- kinematic association -----------------------------------------------------


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity extrapolation with gap-widening uncertainty.

    The position uncertainty after a gap of g seconds is
    ``sigma0_m + beta_m_per_s * g``; the cost of pairing an ending tracklet
    with a starting one is the squared extrapolation miss divided by the
    squared uncertainty. ``no_match_cost`` is what leaving a tracklet
    unpaired costs, and gaps above ``max_gap_s`` are never considered.
    """

    sigma0_m: float = 1.0
    beta_m_per_s: float = 2.0
    no_match_cost: float = 50.0
    max_gap_s: float = 30.0

    def __post_init__(self):
        for name, ok in (("sigma0_m", 0.0 < self.sigma0_m < math.inf),
                         ("beta_m_per_s", 0.0 <= self.beta_m_per_s < math.inf),
                         # a grid unit, no_match_cost / 2**30, positive and finite
                         ("no_match_cost", 0.0 < self.no_match_cost / 2**30 < math.inf),
                         ("max_gap_s", self.max_gap_s > 0.0)):
            if not ok:
                raise ValueError(f"MotionModel.{name} out of range: {getattr(self, name)!r}")


def _extrapolation_cost(gap, x, y, vx, vy, first_x, first_y, model: MotionModel):
    """Squared miss of a constant-velocity extrapolation over squared uncertainty.

    Works elementwise on floats and on broadcast numpy arrays alike. numpy's
    float64 arithmetic rounds exactly like Python's floats, so one formula
    gives bit-identical costs to ``gap_cost`` and to the cost matrix.
    """
    px = x + vx * gap
    py = y + vy * gap
    dx = first_x - px
    dy = first_y - py
    sigma = model.sigma0_m + model.beta_m_per_s * gap
    return (dx * dx + dy * dy) / (sigma * sigma)


def gap_cost(ending: Tracklet, starting: Tracklet, model: MotionModel) -> float:
    """Cost of hypothesizing that ``starting`` continues ``ending``."""
    gap = starting.t_first - ending.t_last
    if gap <= 0.0 or gap > model.max_gap_s:
        return _INFEASIBLE
    cost = _extrapolation_cost(gap, *ending.pos_last, *ending.vel_last, *starting.pos_first, model)
    return _INFEASIBLE if math.isnan(cost) else cost  # miss and sigma overflowed: inf / inf


def _cost_matrix(
    endings: Sequence[Tracklet], startings: Sequence[Tracklet], model: MotionModel
) -> np.ndarray:
    """``gap_cost`` of every (ending, starting) pair as one array expression."""
    last = np.array(
        [(e.t_last, *e.pos_last, *e.vel_last) for e in endings], dtype=float
    )
    t_last, x, y, vx, vy = (col[:, None] for col in last.T)
    t_first, first_x, first_y = np.array(
        [(s.t_first, *s.pos_first) for s in startings], dtype=float
    ).T
    gap = t_first - t_last
    # infeasible cells may overflow or divide by zero, and a miss and a sigma
    # that both overflow give NaN; all become _INFEASIBLE below, as in gap_cost
    with np.errstate(all="ignore"):
        cost = _extrapolation_cost(gap, x, y, vx, vy, first_x, first_y, model)
    cost[(gap <= 0.0) | (gap > model.max_gap_s) | np.isnan(cost)] = _INFEASIBLE
    return cost


@dataclass
class GapAssignment:
    """Outcome of the assignment subproblem of one epoch."""

    pairs: list[tuple[str, str]]
    pair_costs: list[float]  # gap cost of each entry of ``pairs``


def _tie_grid(cost: np.ndarray, no_match_cost: float) -> tuple[np.ndarray, int]:
    """Gap costs in grid units, the one definition of a tie, and a no-match's cost.

    A unit is ``no_match_cost / 2**steps``. Costs clip just above two
    no-matches, so a clipped pair (an infeasible gap among them) is never
    matched. Any total over ``size = n_e + n_s`` rows, times ``size + 1``,
    stays below 2**53, so float sums of grid values are exact.
    """
    pad = _grid_pad(sum(cost.shape))
    with np.errstate(over="ignore"):  # a cost too large to scale clips anyway
        grid = np.rint(np.minimum(cost / (no_match_cost / pad), 2 * pad + 1))
    return grid, pad


def _grid_pad(size: int) -> int:
    """A no-match's cost in grid units for an epoch of ``size`` tracklets."""
    return 2 ** min(30, 50 - 2 * size.bit_length())


def _lex_min_assignment(grid: np.ndarray, pad: int) -> list[int]:
    """Each ending row's decision in the lexicographically least optimum.

    ``grid`` and ``pad`` are ``_tie_grid``'s output. A decision is a starting
    column, or ``n_s`` for no match. A pair is matchable when its cell is at
    most ``2 * pad``, two no-matches. The components of matchable pairs are
    independent: they share one solve (``_augmenting_paths``), then each
    walks its own optimal face.
    """
    n_e, n_s = grid.shape
    matchable = grid <= 2 * pad
    rows, cols = np.nonzero(matchable)
    # options[i]: (column, cell - 2 * pad) of each matchable pair, columns ascending
    pairs = list(zip(cols.tolist(), (grid[rows, cols] - 2 * pad).astype(np.int64).tolist()))
    by_row = [0, *np.cumsum(matchable.sum(1)).tolist()]
    options = [pairs[a:b] for a, b in zip(by_row, by_row[1:])]
    by_col = [0, *np.cumsum(matchable.sum(0)).tolist()]
    by_col_rows = rows[np.argsort(cols, kind="stable")].tolist()
    col_rows = [by_col_rows[a:b] for a, b in zip(by_col, by_col[1:])]
    decisions = [n_s] * n_e
    seen, taken, components = [False] * n_e, [False] * n_s, []
    for r in range(n_e):
        if seen[r] or not options[r]:
            continue
        seen[r], ends, starts = True, [r], []
        for i in ends:  # breadth first: ``ends`` grows while it is read
            for j, _ in options[i]:
                if not taken[j]:
                    taken[j] = True
                    starts.append(j)
                    for k in col_rows[j]:
                        if not seen[k]:
                            seen[k] = True
                            ends.append(k)
        components.append((sorted(ends), sorted(starts)))
    match, owner, u, v = _augmenting_paths([i for ends, _ in components for i in ends],
                                           options, n_s)
    for ends, starts in components:
        columns, fixed = starts + [n_s + i for i in ends], set()
        moves = {x: [owner[y] for y in _tight(x, columns, options, owner, u, v)
                     if owner[y] != x] for x in [*ends, -1]}
        indegree = collections.Counter(z for zs in moves.values() for z in zs)
        acyclic = [x for x in moves if not indegree[x]]
        for x in acyclic:  # peel off the moves no cycle passes through
            for z in moves[x]:
                indegree[z] -= 1
                if not indegree[z]:
                    acyclic.append(z)
        if len(acyclic) == len(moves):
            continue  # no alternating cycle of moves: the optimum is unique
        for i in ends:  # fix endings in id order
            for j, c in options[i]:
                if j >= match[i]:
                    break
                if c - u[i] - v[j] == 0 and owner[j] not in fixed and _restore(
                        i, j, columns, options, match, owner, u, v, fixed):
                    break
            fixed.add(i)
    for i, j in match.items():
        decisions[i] = min(j, n_s)
    return decisions


def _augmenting_paths(rows, options, n_s):
    """A least-cost assignment of ``rows``, each to one of its ``options`` or to
    no match, which becomes the row's own column ``n_s + i``, ranked last.

    Shortest augmenting paths (Jonker and Volgenant, Computing 38, 1987):
    after a greedy start on reduced costs, Dijkstra runs from one free row at
    a time and stops at the first free column, preferring a free one on equal
    distance. Returns ``match`` (row -> column), ``owner`` (column -> row,
    -1 if free) and dual potentials: ``c - u[i] - v[j] >= 0`` on every
    option, 0 on every match, and ``v[j] <= 0``, 0 on every free column.
    """
    n_cols = n_s + len(options)
    match, owner, u, v, queue = {}, [-1] * n_cols, {}, [0] * n_cols, []
    for i in rows:
        options[i].append((n_s + i, 0))
        u[i] = least = min(map(operator.itemgetter(1), options[i]))
        j = next((j for j, c in options[i] if c == least and owner[j] < 0), None)
        if j is None:
            queue.append(i)
        else:
            match[i], owner[j] = j, i
    for r in queue:
        # heap keys: twice the distance, plus 1 for a column some row holds
        heap = [(2 * (c - u[r] - v[j]) + (owner[j] >= 0), j) for j, c in options[r]]
        best, done = {j: key for key, j in heap}, []
        via = dict.fromkeys(best, r)
        heapq.heapify(heap)
        while True:
            key, j = heapq.heappop(heap)
            if key > best[j]:
                continue
            done.append(j)
            k = owner[j]
            if k < 0:
                break
            base = (key >> 1) - u[k]
            for j2, c in options[k]:
                key2 = 2 * (base + c - v[j2]) + (owner[j2] >= 0)
                if key2 < best.get(j2, key2 + 1):
                    best[j2], via[j2] = key2, k
                    heapq.heappush(heap, (key2, j2))
        u[r] += key >> 1
        for j2 in done:  # keep every option's reduced cost >= 0 and the path's at 0
            slack = (key >> 1) - (best[j2] >> 1)
            v[j2] -= slack
            if owner[j2] >= 0:
                u[owner[j2]] += slack
        while True:  # flip the path back to r
            i = via[j]
            owner[j] = i
            match[i], j = j, match.get(i)
            if i == r:
                break
    return match, owner, u, v


def _tight(x, cols, options, owner, u, v) -> list[int]:
    """Columns that ``x`` may hold in an optimum: a row's tight options, or for
    the holder of the free columns, -1, every column of ``cols`` held at ``v == 0``."""
    if x < 0:
        return [y for y in cols if v[y] == 0 and owner[y] >= 0]
    return [y for y, c in options[x] if c - u[x] - v[y] == 0]


def _restore(i, j, cols, options, match, owner, u, v, fixed) -> bool:
    """Give ending ``i`` column ``j`` if an optimum still keeps the ``fixed`` endings.

    An optimum uses tight options only (reduced cost 0) and leaves free only
    columns at ``v == 0`` (Burkard, Dell'Amico and Martello, *Assignment
    Problems*, SIAM 2009, ch. 4 and 6): a breadth-first search over them for
    an alternating path from the row that loses ``j`` to the column ``i`` leaves.
    """
    vacated, root = match[i], owner[j]
    back, frontier = {root: None}, [root]
    for x in frontier:
        for y in _tight(x, cols, options, owner, u, v):
            if y == vacated:
                while x is not None:  # x takes y; the row x displaced takes x's old column
                    if x >= 0:
                        match[x] = y
                    owner[y], (x, y) = x, back[x] or (None, None)
                match[i], owner[j] = j, i
                return True
            z = owner[y]
            if z not in back and z not in fixed:
                back[z] = (x, y)
                frontier.append(z)
    return False


def _lex_min_enumerated(grid: list[list[float]], pad: int) -> list[int]:
    """``_lex_min_assignment`` of a small epoch's grid, by depth-first enumeration.

    Ending rows decide in order, starting columns before no match (``n_s``),
    so the first assignment of least total found wins. A match adds its cell
    less the two no-matches it saves, and one adding more than 0 is skipped.
    """
    n_e, n_s = len(grid), len(grid[0])
    decisions = [n_s] * n_e
    best = (1, decisions)  # every assignment adds at most 0

    def visit(i: int, used: int, added: int) -> None:
        nonlocal best
        if i == n_e:
            if added < best[0]:
                best = (added, decisions.copy())
            return
        for j, q in enumerate(grid[i]):
            if q <= 2 * pad and not used >> j & 1:
                decisions[i] = j
                visit(i + 1, used | 1 << j, added + q - 2 * pad)
        decisions[i] = n_s
        visit(i + 1, used, added)

    visit(0, 0, 0)
    return best[1]


def associate_across_gap(
    endings: Sequence[Tracklet],
    startings: Sequence[Tracklet],
    model: MotionModel,
) -> GapAssignment:
    """Minimum-cost pairing of ending and starting tracklets.

    Every tracklet may stay unmatched at ``no_match_cost``. Assignments are
    compared on the integer grid of ``_tie_grid``, and among the optima there
    the lexicographically least wins: taking endings in station-id order,
    each prefers a match to no match, then the smaller starting id. So the
    result does not depend on input order. ``pairs`` and their float gap
    costs ``pair_costs`` are listed in ending-id order.
    """
    endings = sorted(endings, key=lambda tr: tr.station_id)
    startings = sorted(startings, key=lambda tr: tr.station_id)
    n_e, n_s = len(endings), len(startings)
    if n_e == 0 or n_s == 0:
        return GapAssignment(pairs=[], pair_costs=[])

    if n_e + n_s <= _SMALL_EPOCH:
        # the matrix path's costs, one cell at a time, on its grid
        cost = [[gap_cost(e, s, model) for s in startings] for e in endings]
        grid, pad = _tie_grid(np.array(cost), model.no_match_cost)
        decisions = _lex_min_enumerated(grid.tolist(), pad)
    else:
        cost = _cost_matrix(endings, startings, model)
        decisions = _lex_min_assignment(*_tie_grid(cost, model.no_match_cost))

    matched = [(i, j) for i, j in enumerate(decisions) if j < n_s]
    return GapAssignment(
        pairs=[(endings[i].station_id, startings[j].station_id) for i, j in matched],
        pair_costs=[float(cost[i][j]) for i, j in matched],
    )


# --- semantic (quasi-identifier) matching ---------------------------------------


def _quasi_key(quasi: tuple[float, float]) -> tuple[int, int]:
    return (int(round(quasi[0] / _QUASI_TOL)), int(round(quasi[1] / _QUASI_TOL)))


def semantic_match(tracklets: Sequence[Tracklet]) -> list[tuple[str, str]]:
    """Merge tracklets that broadcast identical quasi-identifiers.

    Vehicle dimensions ride along in every awareness message; tracklets whose
    dimensions round to the same cell of a ``_QUASI_TOL`` (1 cm) grid and
    whose lifetimes do not overlap are chained in time order. Any overlap inside a group (two vehicles sharing
    the same dimensions on the road at once) makes the group ambiguous and it
    is left to the kinematic stage. Returns predicted (old, new) pairs.
    """
    groups: dict[tuple[int, int], list[Tracklet]] = {}
    for tr in tracklets:
        if tr.quasi_ids is None:
            continue
        groups.setdefault(_quasi_key(tr.quasi_ids), []).append(tr)
    pairs: list[tuple[str, str]] = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda tr: (tr.t_first, tr.station_id))
        if len(members) < 2:
            continue
        ambiguous = any(
            a.t_last >= b.t_first
            for a, b in zip(members, members[1:])
        )
        if ambiguous:
            continue
        pairs.extend(
            (a.station_id, b.station_id) for a, b in zip(members, members[1:])
        )
    return pairs


# --- full linkage pipeline -------------------------------------------------------


@dataclass
class TrackHypothesis:
    """One reconstructed vehicle track: tracklet ids in time order."""

    station_ids: list[str]
    score: float


@dataclass
class LinkageResult:
    tracklets: list[Tracklet]
    predicted_pairs: list[tuple[str, str]]
    semantic_pairs: list[tuple[str, str]]
    assignments: list[GapAssignment]
    chains: list[TrackHypothesis]

    def to_obj(self) -> dict:
        return {
            "tracklet_count": len(self.tracklets),
            "predicted_pairs": [list(p) for p in self.predicted_pairs],
            "semantic_pairs": [list(p) for p in self.semantic_pairs],
            "chains": [
                {"station_ids": c.station_ids, "score": c.score} for c in self.chains
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2)


def link(
    store: ObservationStore,
    model: Optional[MotionModel] = None,
    *,
    use_quasi_identifiers: bool = True,
) -> LinkageResult:
    """Run the whole attack pipeline over one observation log.

    After semantic matching, kinematic association runs as a forward sweep
    over change epochs: every instant at which new identifiers first appear
    forms one epoch, and those appearances are jointly assigned against the
    identifiers that have fallen silent within the lookback window and are
    not yet explained. Identifiers an epoch leaves unexplained stay available
    to later epochs until the window runs out.
    """
    model = model or MotionModel()
    tracklets = build_tracklets(store)
    by_id = {tr.station_id: tr for tr in tracklets}

    semantic_pairs: list[tuple[str, str]] = []
    if use_quasi_identifiers:
        for scope in sorted({tr.scope for tr in tracklets}):
            semantic_pairs.extend(
                semantic_match([tr for tr in tracklets if tr.scope == scope])
            )
    has_succ = {old for old, _ in semantic_pairs}
    has_pred = {new for _, new in semantic_pairs}

    predicted = list(semantic_pairs)
    assignments: list[GapAssignment] = []
    max_gap = model.max_gap_s
    for scope in sorted({tr.scope for tr in tracklets}):
        scoped = [tr for tr in tracklets if tr.scope == scope]
        open_endings = sorted(
            (tr for tr in scoped if tr.station_id not in has_succ),
            key=operator.attrgetter("t_last"),
        )
        ends_at = [tr.t_last for tr in open_endings]
        epochs: dict[float, list[Tracklet]] = {}
        for tr in scoped:
            if tr.station_id not in has_pred:
                epochs.setdefault(tr.t_first, []).append(tr)
        matched_endings: set[str] = set()
        for t_epoch in sorted(epochs):
            startings = epochs[t_epoch]
            # t_epoch - t_last falls as t_last grows (rounding is monotone), so
            # the endings inside the lookback window are one run of ends_at:
            # [lo:hi] has exactly the gaps in (0, max_gap], as t_last < t_epoch
            # leaves a positive difference between finite floats
            lo = bisect.bisect_left(
                ends_at, True, key=lambda t_last: t_epoch - t_last <= max_gap
            )
            hi = bisect.bisect_left(ends_at, t_epoch)
            candidates = [e for e in open_endings[lo:hi] if e.station_id not in matched_endings]
            if not candidates:
                continue
            assignment = associate_across_gap(candidates, startings, model)
            assignments.append(assignment)
            predicted.extend(assignment.pairs)
            matched_endings.update(old for old, _ in assignment.pairs)

    chains = _chain(predicted, by_id, assignments)
    return LinkageResult(
        tracklets=tracklets,
        predicted_pairs=predicted,
        semantic_pairs=semantic_pairs,
        assignments=assignments,
        chains=chains,
    )


def _chain(
    predicted: list[tuple[str, str]],
    by_id: dict[str, Tracklet],
    assignments: list[GapAssignment],
) -> list[TrackHypothesis]:
    succ = dict(predicted)
    has_pred = {new for _, new in predicted}
    pair_cost: dict[tuple[str, str], float] = {}
    for a in assignments:
        pair_cost.update(zip(a.pairs, a.pair_costs))
    chains = []
    heads = sorted(
        (sid for sid in succ if sid not in has_pred),
        key=lambda sid: (by_id[sid].t_first, sid),
    )
    for head in heads:
        ids = [head]
        score = 0.0
        cur = head
        while cur in succ:
            nxt = succ[cur]
            score += pair_cost.get((cur, nxt), 0.0)
            ids.append(nxt)
            cur = nxt
        chains.append(TrackHypothesis(station_ids=ids, score=score))
    return chains


# --- scoring ---------------------------------------------------------------------


@dataclass(frozen=True)
class TruthData:
    """What the simulator knows and the attacker is judged against."""

    owner_of: Mapping[str, int]  # station id -> vehicle id
    truth_pairs: Sequence[tuple[str, str]]  # consecutive (old, new) per change
    changes: Sequence  # ChangeRecord-like, for anonymity sets
    silence_of: Mapping[int, Sequence[tuple[float, float, Point]]]
    # per vehicle: (silence start, silence end, change position)


@dataclass(frozen=True)
class AttackMetrics:
    link_accuracy: float
    traceability: float
    mean_anonymity_set: float
    n_truth_pairs: int
    n_correct_pairs: int
    n_predicted_pairs: int

    def to_obj(self) -> dict:
        return dataclasses.asdict(self)


def evaluate_attack(
    linkage: LinkageResult,
    truth: TruthData,
    anonymity_region_m: float = 500.0,
) -> AttackMetrics:
    """Score a linkage result against ground truth.

    link_accuracy: fraction of true consecutive identifier pairs (both sides
    actually observed) that the attacker predicted. traceability: per vehicle,
    the longest correctly-chained run of its awareness tracklets as a fraction
    of its total observed time, averaged over vehicles. mean_anonymity_set:
    for each change, how many vehicles were simultaneously silent nearby
    (itself included); degenerate cases (nothing observed, no changes) score
    the metric at its trivial value 1.0.
    """
    observed = {tr.station_id for tr in linkage.tracklets}
    eligible = [
        (old, new) for old, new in truth.truth_pairs if old in observed and new in observed
    ]
    predicted = set(linkage.predicted_pairs)
    correct = sum(1 for p in eligible if p in predicted)
    link_accuracy = correct / len(eligible) if eligible else 1.0

    succ = dict(linkage.predicted_pairs)
    by_vehicle: dict[int, list[Tracklet]] = {}
    for tr in linkage.tracklets:
        if tr.scope != "CAM":
            continue
        owner = truth.owner_of.get(tr.station_id)
        if owner is None:
            continue
        by_vehicle.setdefault(owner, []).append(tr)
    ratios: list[float] = []
    for vid in sorted(by_vehicle):
        trs = sorted(by_vehicle[vid], key=lambda tr: tr.t_first)
        total = sum(tr.duration for tr in trs)
        if total <= 0.0:
            ratios.append(1.0)
            continue
        best = run = trs[0].duration
        for prev, nxt in zip(trs, trs[1:]):
            if succ.get(prev.station_id) == nxt.station_id:
                run += nxt.duration
            else:
                run = nxt.duration
            best = max(best, run)
        ratios.append(best / total)
    traceability = sum(ratios) / len(ratios) if ratios else 1.0

    sizes = _anonymity_set_sizes(truth, anonymity_region_m)
    mean_anon = sum(sizes) / len(sizes) if sizes else 1.0

    return AttackMetrics(
        link_accuracy=link_accuracy,
        traceability=traceability,
        mean_anonymity_set=mean_anon,
        n_truth_pairs=len(eligible),
        n_correct_pairs=correct,
        n_predicted_pairs=len(predicted),
    )


def _anonymity_set_sizes(truth: TruthData, region_m: float) -> list[int]:
    """Per change with an old identifier: the vehicles silent nearby, at least 1.

    A vehicle counts when one of its silence intervals overlaps the change's
    silence and its change position lies within ``region_m`` by
    ``math.dist``. Squared distances decide every case farther than a
    relative 1e-9 from the radius (their rounding is about 1e-16), and
    ``math.dist`` decides the rest, so ``<=`` holds exactly as for the
    per-interval loop. Only a window of the intervals, sorted by start, is
    tested: one that overlaps ``[t, t + silence]`` starts in ``[t - longest,
    t + silence]``, and the window's low end is widened by a relative 1e-9 so
    that rounding never drops an interval. Every (change, interval) cell of
    every window is tested in one array pass, a chunk of changes at a time:
    a chunk holds at most ``_ANONYMITY_CELLS`` cells (or one window) and as
    many (change, owner) flags, so memory stays bounded for any fleet.
    """
    changes = np.array(
        [(rec.t, rec.silence_s, *rec.position) for rec in truth.changes if rec.old_ids],
        dtype=float,
    )
    if not len(changes):
        return []
    rows = np.array(
        [(s0, s1, *pos, owner)
         for owner, intervals in enumerate(truth.silence_of.values())
         for s0, s1, pos in intervals],
        dtype=float,
    ).reshape(-1, 5)
    s0, s1, x, y, owner = rows.take(rows[:, 0].argsort(kind="stable"), axis=0).T
    owner = owner.astype(np.intp)
    t, silence, cx, cy = changes.T
    longest = np.maximum.reduce(s1 - s0, initial=0.0)
    lo = s0.searchsorted(t - longest - 1e-9 * (abs(t) + longest))
    width = np.maximum(s0.searchsorted(t + silence, "right") - lo, 0)
    through = width.cumsum()  # cells up to and including each change
    through_list = through.tolist()
    shift = lo - through + width  # a change's cell number + shift = its interval's row
    r2 = region_m * region_m
    # below ~1e-290 subnormal rounding could exceed the band: math.dist decides all
    inside, outside = (r2 * (1 - 1e-9), r2 * (1 + 1e-9)) if r2 > 1e-290 else (-1.0, math.inf)
    n_owners = len(truth.silence_of)
    per_chunk = max(1, _ANONYMITY_CELLS // max(1, n_owners))
    sizes: list[int] = []
    a = before = 0
    with np.errstate(over="ignore"):  # d2 overflowing to inf is never near
        while a < len(changes):
            b = bisect.bisect_right(through_list, before + _ANONYMITY_CELLS)
            b = min(max(b, a + 1), a + per_chunk)
            k, after = width[a:b], through_list[b - 1]
            change = np.arange(b - a).repeat(k)
            row = np.arange(before, after) + shift[a:b].repeat(k)
            overlap = t[a:b][change] <= s1[row]  # the window's end already bounds s0
            dx = x[row] - cx[a:b][change]
            dy = y[row] - cy[a:b][change]
            d2 = dx * dx + dy * dy
            near = overlap & (d2 < inside)
            members = np.zeros((b - a, n_owners), dtype=bool)
            members[change[near], owner[row[near]]] = True
            for j in (overlap & ~(near | (d2 > outside))).nonzero()[0].tolist():
                c, r = change[j], row[j]
                if math.dist((cx[a + c], cy[a + c]), (x[r], y[r])) <= region_m:
                    members[c, owner[r]] = True
            sizes += np.maximum(np.add.reduce(members, axis=1), 1).tolist()
            a, before = b, after
    return sizes


# --- trace rows ------------------------------------------------------------------


def trace_row(sender_id: int, record: Observation | NoticeSighting) -> dict:
    """The ``trace.jsonl`` row of one broadcast, tagged with its true sender."""
    if type(record) is NoticeSighting:
        return {"kind": "notice", "t": record.t, "station_id": record.station_id,
                "scope": record.scope, "sender_vehicle_id": sender_id}
    quasi = record.quasi_ids
    return {
        "kind": record.scope, "t": record.t, "station_id": record.station_id,
        "x": record.position[0], "y": record.position[1],
        "vx": record.velocity[0], "vy": record.velocity[1],
        "sender_vehicle_id": sender_id, "quasi_ids": None if quasi is None else list(quasi),
    }


def _exact(values: tuple) -> bool:
    """Whether ``values`` are floats and none is ``-0.0``: equal means identical."""
    for v in values:
        if type(v) is not float or not (v or math.copysign(1.0, v) > 0.0):
            return False
    return True


def _unreadable(row: dict, names: tuple, required: tuple = ("station_id",)) -> Optional[str]:
    """Why ``row`` is not a record, or None: a field of ``required`` or ``names``
    missing, a ``station_id`` that is not a string, or ``names`` and
    ``quasi_ids`` that are not finite numbers.

    A number is what ``* 1.0`` takes, an int or a float but not a string such
    as ``"nan"``, and ``quasi_ids`` are null or a pair of numbers."""
    for name in required + names:
        if name not in row:
            return f"missing field {name}"
    if type(row["station_id"]) is not str:
        return f"station_id is not a string: {row['station_id']!r}"
    quasi = row.get("quasi_ids")
    if quasi is not None and (type(quasi) is not list or len(quasi) != 2):
        return f"quasi_ids is not a pair of finite numbers: {quasi!r}"
    fields = [(name, row[name]) for name in names]
    for name, value in fields + [(f"quasi_ids[{i}]", v) for i, v in enumerate(quasi or ())]:
        try:
            number = value * 1.0
        except (TypeError, OverflowError):
            return f"{name} is not a finite number: {value!r}"
        if number - number:
            return f"non-finite number {number!r}"
    return None


def load_trace(path: str) -> ObservationStore:
    """Rebuild an observation store from an exported trace file.

    Ground-truth fields in the rows (sender vehicle id) are ignored; the
    attacker only gets what was broadcast. Rows are streamed one line at a
    time; blank lines and rows of another ``kind`` are skipped, a line
    holding anything after its JSON object raises ``json.JSONDecodeError``,
    and one holding ``NaN``, ``Infinity``, ``-Infinity`` or, in a field read,
    a number that overflows to infinity (``1e999``), a value that is not a
    number (such as the string ``"1.5"``), ``quasi_ids`` that are not a pair
    of finite numbers, a station id that is not a string (such as ``1``), a
    missing field or a row that is not a JSON object (such as ``[1, 2]``), a
    ``ValueError`` naming the file and line. The cyclic garbage collector is
    paused while the store is built and left as the caller had it.

    Beacons share one object per distinct station id, time, velocity pair
    and quasi-id tuple, and a literal scope: about 210 bytes per row on a
    53k-row trace of 300 vehicles, not 557. As ``-0.0 == 0.0``, ``4 == 4.0``
    and ``1 == True``, only times, velocities and quasi-id tuples that are
    floats with no ``-0.0`` are shared; any other is kept as it was read.
    """
    store = ObservationStore()
    observations, notices = store.observations, store.notices
    share = {}.setdefault  # one object per distinct shareable value

    def reject(problem: str) -> NoReturn:
        raise ValueError(f"{path}, line {lineno}: {problem}")

    decode = json.JSONDecoder(parse_constant=lambda c: reject(f"non-finite number {c}")).raw_decode
    copysign = math.copysign
    # the store holds no reference cycles, so collection passes over the
    # growing list of records would only cost time
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                row, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                try:
                    kind = row.get("kind")
                except AttributeError:
                    reject(f"not a JSON object: {row!r}")
                if kind == "CAM" or kind == "DENM":
                    try:  # unlike float(), ``* 1.0`` and ``+`` refuse a string such as "nan"
                        t, x, y = row["t"] * 1.0, row["x"] * 1.0, row["y"] * 1.0
                        vx, vy = row["vx"] * 1.0, row["vy"] * 1.0
                        sid = row["station_id"]
                        quasi = row.get("quasi_ids")
                        quasi = tuple(quasi) if quasi is not None else None
                        q0, q1 = (0.0, 0.0) if quasi is None else quasi
                        # a literal such as 1e999 decodes to an infinity, which
                        # leaves the sum infinite (so may a finite overflow)
                        total = t + x + y + vx + vy + q0 + q1
                    except (KeyError, TypeError, ValueError, OverflowError):
                        reject(_unreadable(row, _MOTION))
                    if (total - total or type(sid) is not str) and (
                        problem := _unreadable(row, _MOTION)
                    ):
                        reject(problem)
                    sid, velocity = share(sid, sid), (vx, vy)
                    t = share(t, t) if t or copysign(1.0, t) > 0.0 else t
                    if (vx or copysign(1.0, vx) > 0.0) and (vy or copysign(1.0, vy) > 0.0):
                        velocity = share(velocity, velocity)
                    if quasi is not None and _exact(quasi):
                        quasi = share(quasi, quasi)
                    observations.append(Observation(
                        t, sid, "CAM" if kind == "CAM" else "DENM", (x, y), velocity, quasi
                    ))
                elif kind == "notice":
                    if problem := _unreadable(row, ("t",), ("station_id", "scope")):
                        reject(problem)
                    notices.append(NoticeSighting(row["t"] * 1.0, row["station_id"], row["scope"]))
        store.finalize()
    finally:
        if gc_was_enabled:
            gc.enable()
    return store
