"""Outside-in span tracer for the pseudosim layers.

The tracer wraps public functions and methods of the ``pseudosim`` modules
where other code looks them up (module attributes and class attributes), so
nothing under ``src/`` changes. Every wrapped call records one span: name,
start, end, parent span and repetition id. Spans live in compact arrays in
memory and are written out once, after the measured work.

A layer is the module a wrapped function belongs to. A span's self time is
its duration minus the durations of its direct child spans, so the self times
of all spans under one repetition add up to that repetition's wall time.
Calls that are not wrapped (private helpers, dataclass constructors, cheap
accessors such as ``AuthorizationTicket.is_valid_at``) count toward the
nearest wrapped caller; ``seeds`` is deliberately not wrapped, so its work
shows up inside ``engine.init_s``.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

import numpy as np

LAYERS = ("engine", "mobility", "strategy", "sba", "beaconing", "adversary", "config", "cli")
ROOT_SPAN = "bench.rep"


def _count_valid_tickets(counts, args, result):
    counts["strategy.valid_tickets.returned"] += len(result)


def _count_cost_cells(counts, args, result):
    counts["adversary.cost_cells"] += len(args[0]) * len(args[1])


def _count_pairs(counts, args, result):
    counts["adversary.pairs"] += len(result.predicted_pairs)


def targets(ps):
    """(owner, attribute, span name, count hook) for every wrapped entry point.

    ``ps`` maps module names to the imported ``pseudosim`` modules. Where a
    module imported a function by name (``from .engine import run_job``), the
    binding in the importing module is wrapped, because that is where the
    call looks it up.
    """
    eng, mob, strat, sba, bcn, adv, cfg, cli = (
        ps[m] for m in ("engine", "mobility", "strategy", "sba", "beaconing",
                        "adversary", "config", "cli")
    )
    pool, ledger = strat.PseudonymPool, strat.LockLedger
    core, ldm = sba.ServiceBasedCore, bcn.LocalDynamicMap
    return [
        (eng.SimulationEngine, "__init__", "engine.init", None),
        (eng.SimulationEngine, "run", "engine.run", None),
        (eng, "run_scenario", "engine.run_scenario", None),
        (cli, "run_job", "engine.run_job", None),
        (eng.RunResult, "summary_json", "engine.summary_json", None),
        (mob, "step_kinematics", "mobility.step_kinematics", None),
        (mob, "region_query", "mobility.region_query", None),
        (mob, "positioning_noise", "mobility.positioning_noise", None),
        (mob.TripState, "advance", "mobility.trip_advance", None),
        (mob.TripState, "note_change", "mobility.trip_note_change", None),
        (pool, "needs_replenish", "strategy.needs_replenish", None),
        (pool, "replenish_need", "strategy.replenish_need", None),
        (pool, "min_valid_count", "strategy.min_valid_count", None),
        (pool, "valid_count", "strategy.valid_count", None),
        (pool, "valid_tickets", "strategy.valid_tickets", _count_valid_tickets),
        (pool, "select_next", "strategy.select_next", None),
        (pool, "activate", "strategy.activate", None),
        (pool, "add_batch", "strategy.add_batch", None),
        (strat, "replenish_pool", "strategy.replenish_pool", None),
        (strat, "plan_change", "strategy.plan_change", None),
        (strat, "evaluate_change_trigger", "strategy.evaluate_change_trigger", None),
        (strat, "rearm_trigger", "strategy.rearm_trigger", None),
        (strat, "coordinate_network_change", "strategy.coordinate_network_change", None),
        (ledger, "sweep", "strategy.locks_sweep", None),
        (ledger, "locked", "strategy.locks_locked", None),
        (ledger, "request", "strategy.locks_request", None),
        (core, "__init__", "sba.core_init", None),
        (core, "add_subscriber", "sba.add_subscriber", None),
        (core, "enroll_vehicle", "sba.enroll_vehicle", None),
        (core, "request_v2x_token", "sba.request_v2x_token", None),
        (core, "invoke_v2x_service", "sba.invoke_v2x_service", None),
        (core, "provision_ticket_batch", "sba.provision_ticket_batch", None),
        (bcn, "station_id_for", "beaconing.station_id_for", None),
        (bcn, "ldm_quality", "beaconing.ldm_quality", None),
        (ldm, "receive", "beaconing.receive", None),
        (ldm, "evict_expired", "beaconing.evict_expired", None),
        (ldm, "live_entries", "beaconing.live_entries", None),
        (adv.Eavesdropper, "hear", "adversary.hear", None),
        (adv.Eavesdropper, "hear_notice", "adversary.hear_notice", None),
        (adv.ObservationStore, "finalize", "adversary.finalize", None),
        (adv, "load_trace", "adversary.load_trace", None),
        (adv, "link", "adversary.link", _count_pairs),
        (adv, "build_tracklets", "adversary.build_tracklets", None),
        (adv, "semantic_match", "adversary.semantic_match", None),
        (adv, "associate_across_gap", "adversary.associate_across_gap", _count_cost_cells),
        (adv, "evaluate_attack", "adversary.evaluate_attack", None),
        (eng, "load_scenario", "config.load_scenario", None),
        (cli, "load_scenario", "config.load_scenario", None),
        (cfg.ScenarioConfig, "digest", "config.digest", None),
        (cli, "main", "cli.main", None),
        (cli, "plan_sweep", "cli.plan_sweep", None),
        (cli, "write_metrics_csv", "cli.write_metrics_csv", None),
        (cli, "summary_to_row", "cli.summary_to_row", None),
    ]


class Tracer:
    """Records spans for wrapped calls made while a repetition is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {
            "strategy.valid_tickets.returned": 0,
            "adversary.cost_cells": 0,
            "adversary.pairs": 0,
        }
        self._stack = [-1]
        self._rep = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hook):
        nid = self._id(name)
        stack, rep, counts = self._stack, self._rep, self.counts
        names_, parent, reps, start, end = self.name, self.parent, self.rep, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rep[0] < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            names_.append(nid)
            parent.append(stack[-1])
            reps.append(rep[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self, ps) -> None:
        for owner, attr, name, hook in targets(ps):
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def repetition(self, rep_id: int, fn):
        """Run ``fn()`` as one traced repetition under a root span."""
        nid = self._id(ROOT_SPAN)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(-1)
        self.rep.append(rep_id)
        self.end.append(0.0)
        self._rep[0] = rep_id
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._rep[0] = -1

    def root_durations(self) -> list[float]:
        """Wall time of each traced repetition's root span."""
        root = self._ids.get(ROOT_SPAN)
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == root]

    def arrays(self) -> dict:
        """Read-only views of the span columns; record no spans while they are alive."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "rep": np.frombuffer(self.rep, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def per_name(tracer: Tracer, group: frozenset) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds for every span name.

    ``outer_calls`` counts only the calls whose caller is not itself a span
    named in ``group``, so calls nested inside the group are not counted twice.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    group_ids = [nid for nid, name in enumerate(tracer.names) if name in group]
    parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
    nested = np.isin(parent_name, group_ids)
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "outer_calls": int((mask & ~nested).sum()),
            "incl_s": float(dur[mask].sum()),
            "self_s": float(self_s[mask].sum()),
        }
    return out


def layer_metrics(tracer: Tracer, counters: dict) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and layer self seconds incl. the harness.

    ``counters`` are the summed run-summary counters of the traced
    repetitions.
    """
    queries = ("needs_replenish", "replenish_need", "min_valid_count", "valid_count")
    pool_scan = frozenset(f"strategy.{q}" for q in queries + ("valid_tickets",))
    by = per_name(tracer, pool_scan)
    empty = {"calls": 0, "outer_calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(name):
        return by.get(name, empty)

    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, rec in by.items():
        layer_self[name.split(".")[0]] += rec["self_s"]

    m: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m["engine.init_s"] = get("engine.init")["incl_s"]
    m["engine.run_s"] = get("engine.run")["incl_s"]
    m["sba.core_init_s"] = get("sba.core_init")["incl_s"]

    functions = {
        "beaconing": ("receive", "ldm_quality", "evict_expired", "live_entries"),
        "mobility": ("step_kinematics", "region_query", "positioning_noise"),
        "strategy": ("plan_change", "replenish_pool", "evaluate_change_trigger"),
        "sba": ("enroll_vehicle", "provision_ticket_batch", "invoke_v2x_service"),
        "adversary": ("hear", "load_trace", "build_tracklets", "semantic_match",
                      "associate_across_gap", "link", "evaluate_attack"),
        "config": ("load_scenario",),
        "cli": ("plan_sweep", "write_metrics_csv"),
    }
    for layer, fns in functions.items():
        for fn in fns:
            rec = get(f"{layer}.{fn}")
            m[f"{layer}.{fn}.calls"] = rec["calls"]
            m[f"{layer}.{fn}.self_s"] = rec["self_s"]

    # pool queries: calls from outside the pool into its four count queries,
    # and the self time of those queries plus the ticket scan they share
    m["strategy.pool_query.calls"] = sum(get(f"strategy.{q}")["outer_calls"] for q in queries)
    m["strategy.pool_query.self_s"] = sum(get(name)["self_s"] for name in pool_scan)
    m["strategy.locks.self_s"] = sum(
        get(f"strategy.locks_{f}")["self_s"] for f in ("sweep", "locked", "request")
    )
    m.update(tracer.counts)

    emissions = get("adversary.hear")["calls"] + get("adversary.hear_notice")["calls"]
    m["beaconing.deliveries_per_emission"] = (
        get("beaconing.receive")["calls"] / emissions if emissions else 0.0
    )
    m["beaconing.messages_lost"] = counters.get("messages_lost", 0)
    m["sba.tickets_issued"] = counters.get("tickets_issued", 0)
    m["sba.rejects"] = sum(
        v for k, v in counters.items()
        if k.startswith(("service_reject_", "replenish_failed_", "enroll_denied_",
                         "token_denied_", "provision_denied_"))
    )
    m["sba.retries"] = counters.get("session_renewals", 0)
    return m, layer_self


def write_layers(path: str, workload: str, seed: int, layer_self: dict, metrics: dict) -> None:
    """Layer self seconds and the per-layer metrics of one traced run, as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "layer_self_s": layer_self,
                   "metrics": metrics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
