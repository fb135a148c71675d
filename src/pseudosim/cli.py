"""Command line front door: run one scenario, sweep a grid, compare policies.

Exit codes: 0 on success, 1 for I/O problems, 2 for validation problems.
All outputs are deterministic byte for byte for a given input, including
sweeps run with process parallelism: workers may finish in any order but
results are written in configuration order. Runs of one invocation that share
a seed run as one task under one ``sba.shared_credentials`` scope.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, ScenarioConfig, load_scenario, read_json
from .engine import run_job, run_scenario
from .sba import shared_credentials

# the metric columns, by the summary block they come from; sweeps average them per cell
_PRIVACY = ("link_accuracy", "traceability", "mean_anonymity_set")
_SAFETY = ("mean_awareness_ratio", "ghost_ticks", "missing_ticks", "silence_blind_s",
           "max_stack_switch_gap_s", "min_valid_tickets", "sybil_violations")
_AGGREGATED = [*_PRIVACY, *_SAFETY, "n_changes"]
METRIC_COLUMNS = ["kind", "run_id", "scenario", "cell", "params", "seed", *_AGGREGATED,
                  "config_digest"]


def summary_to_row(summary: dict, *, run_id: str, cell: str, params: dict) -> dict:
    return {
        "kind": "run",
        "run_id": run_id,
        "scenario": summary["scenario"],
        "cell": cell,
        "params": json.dumps(params, sort_keys=True, separators=(",", ":")),
        "seed": summary["seed"],
        **{c: summary["privacy"][c] for c in _PRIVACY},
        **{c: summary["safety"][c] for c in _SAFETY},
        "n_changes": summary["n_changes"],
        "config_digest": summary["config_digest"],
    }


def _aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and population-std rows over one cell's runs, fixed field order."""
    out = []
    for kind in ("mean", "std"):
        agg = dict.fromkeys(METRIC_COLUMNS, "")
        agg["kind"] = kind
        for col in ("scenario", "cell", "params"):
            agg[col] = rows[0][col]
        for col in _AGGREGATED:
            values = [r[col] for r in rows if r[col] is not None]
            if not values:
                continue
            values = [float(v) for v in values]
            mean = sum(values) / len(values)
            if kind == "mean":
                agg[col] = mean
            else:
                agg[col] = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        out.append(agg)
    return out


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# --- run ----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    result = run_scenario(
        config, seed_override=args.seed_override, collect_trace=args.trace
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(result.summary_json())
    row = summary_to_row(result.summary, run_id="run0", cell="", params={})
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), [row])
    if args.trace:
        with open(os.path.join(args.out, "trace.jsonl"), "w", encoding="utf-8") as fh:
            for trace_row in result.trace_rows:
                fh.write(json.dumps(trace_row, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
        with open(os.path.join(args.out, "linkage.json"), "w", encoding="utf-8") as fh:
            fh.write(result.linkage.to_json())
            fh.write("\n")
    print(f"run complete: {result.summary['scenario']} seed={result.summary['seed']}")
    print(
        "link_accuracy={link_accuracy} traceability={traceability} "
        "mean_anonymity_set={mean_anonymity_set}".format(**result.summary["privacy"])
    )
    return 0


# --- sweep ----------------------------------------------------------------------


def _apply_override(obj: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = obj
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError([f"axes.{dotted}: path not found in base config"])
        node = node[part]
    node[parts[-1]] = value


def _load_json(path: str, field: str):
    """A sweep's spec or base file, read as ``load_scenario`` reads a scenario."""
    try:
        return read_json(path)
    except ConfigError as exc:
        raise ConfigError([f"{field}: {path}: {v}" for v in exc.violations]) from exc


def _load_sweep_spec(path: str) -> tuple[dict, dict, int, int]:
    spec = _load_json(path, "spec")
    if not isinstance(spec, dict):
        raise ConfigError(["spec: must be a JSON object"])
    violations = []
    allowed = {"base", "axes", "replications", "seed_base"}
    for key in sorted(set(spec) - allowed):
        violations.append(f"{key}: unknown field")
    base = spec.get("base")
    if isinstance(base, str):
        base = _load_json(os.path.join(os.path.dirname(os.path.abspath(path)), base), "base")
    if not isinstance(base, dict):
        violations.append("base: must be a config object, inline or in a file")
        base = {}
    axes = spec.get("axes", {})
    if not isinstance(axes, dict) or not all(
        isinstance(v, list) and v for v in axes.values()
    ):
        violations.append("axes: must map dotted config paths to non-empty arrays")
        axes = {}
    reps = spec.get("replications", 1)
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        violations.append("replications: must be a positive integer")
        reps = 1
    seed_base = spec.get("seed_base", 0)
    if isinstance(seed_base, bool) or not isinstance(seed_base, int) or seed_base < 0:
        violations.append("seed_base: must be a non-negative integer")
        seed_base = 0
    if violations:
        raise ConfigError(sorted(violations))
    return base, axes, reps, seed_base


def plan_sweep(base: dict, axes: dict, reps: int, seed_base: int) -> list[dict]:
    """Every (cell, replication) with its validated config, in deterministic order."""
    axis_names = sorted(axes)
    cells = list(itertools.product(*(axes[a] for a in axis_names))) or [()]
    jobs = []
    for cell_idx, values in enumerate(cells):
        params = dict(zip(axis_names, values))
        for rep in range(reps):
            config = json.loads(json.dumps(base))
            for dotted, value in params.items():
                _apply_override(config, dotted, value)
            config["seed"] = seed_base + rep
            jobs.append(
                {
                    "cell_idx": cell_idx,
                    "rep": rep,
                    "params": params,
                    "config": load_scenario(config),  # before any run starts
                }
            )
    return jobs


def plan_tasks(seeds: list[int], parallel: int) -> list[list[int]]:
    """Run indices grouped by seed, groups in order of first appearance.

    The largest task is halved until there are min(parallel, len(seeds))
    tasks, so a sweep with fewer seeds than workers keeps every worker busy.
    """
    by_seed: dict[int, list[int]] = {}
    for i, seed in enumerate(seeds):
        by_seed.setdefault(seed, []).append(i)
    tasks = list(by_seed.values())
    while len(tasks) < min(parallel, len(seeds)):
        largest = max(tasks, key=len)
        at, half = tasks.index(largest), len(largest) // 2
        tasks[at : at + 1] = [largest[:half], largest[half:]]
    return tasks


def _run_task(configs: list[ScenarioConfig]) -> list[tuple[str, dict]]:
    """Run ``configs`` in order under one credential scope, closed at the end."""
    with shared_credentials():
        return [run_job(config) for config in configs]


def _execute_jobs(configs: list[ScenarioConfig], parallel: int) -> list[tuple[str, dict]]:
    tasks = plan_tasks([config.seed for config in configs], parallel)
    task_configs = [[configs[i] for i in task] for task in tasks]
    if parallel <= 1:
        outputs = map(_run_task, task_configs)
    else:
        # a fork-started pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(parallel, len(tasks))) as pool:
            outputs = list(pool.map(_run_task, task_configs))
    done = dict(zip(itertools.chain(*tasks), itertools.chain.from_iterable(outputs)))
    return [done[i] for i in range(len(configs))]


def cmd_sweep(args: argparse.Namespace) -> int:
    base, axes, reps, seed_base = _load_sweep_spec(args.spec)
    jobs = plan_sweep(base, axes, reps, seed_base)
    results = _execute_jobs([job["config"] for job in jobs], args.parallel)

    os.makedirs(args.out, exist_ok=True)
    summaries_dir = os.path.join(args.out, "summaries")
    os.makedirs(summaries_dir, exist_ok=True)

    rows: list[dict] = []
    manifest = []
    by_cell: dict[int, list[dict]] = {}
    for job, (summary_json, summary) in zip(jobs, results):
        cell_label = ",".join(
            f"{k}={json.dumps(job['params'][k])}" for k in sorted(job["params"])
        )
        run_id = f"c{job['cell_idx']:03d}r{job['rep']:03d}"
        name = f"{run_id}.summary.json"
        with open(os.path.join(summaries_dir, name), "w", encoding="utf-8") as fh:
            fh.write(summary_json)
        row = summary_to_row(summary, run_id=run_id, cell=cell_label, params=job["params"])
        rows.append(row)
        by_cell.setdefault(job["cell_idx"], []).append(row)
        manifest.append(
            {"run_id": run_id, "cell": cell_label, "params": job["params"],
             "seed": summary["seed"], "summary": f"summaries/{name}"}
        )

    all_rows = list(rows)
    for cell_idx in sorted(by_cell):
        all_rows.extend(_aggregate_rows(by_cell[cell_idx]))
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), all_rows)
    with open(os.path.join(args.out, "sweep_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"sweep complete: {len(jobs)} runs, {len(by_cell)} cells -> {args.out}")
    return 0


# --- compare ----------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ConfigError(["reps: must be a positive integer"])
    configs = [load_scenario(path) for path in args.configs]
    if len(configs) < 2:
        raise ConfigError(["compare: need at least two configs"])
    views = [{k: v for k, v in cfg.canonical_dict().items() if k not in ("policy", "name")}
             for cfg in configs]
    for path, view in zip(args.configs[1:], views[1:]):
        if view != views[0]:
            raise ConfigError(
                [f"compare: {path} differs from {args.configs[0]} outside policy fields"]
            )

    results = _execute_jobs(
        [cfg.with_seed(cfg.seed + rep) for cfg in configs for rep in range(args.reps)],
        args.parallel,
    )

    rows: list[dict] = []
    report = []
    for k, (path, cfg) in enumerate(zip(args.configs, configs)):
        cfg_rows = [
            summary_to_row(
                summary,
                run_id=f"{cfg.name}-r{rep:03d}",
                cell=cfg.name,
                params={"config": os.path.basename(path)},
            )
            for rep, (_, summary) in enumerate(results[k * args.reps : (k + 1) * args.reps])
        ]
        rows.extend(cfg_rows)
        aggregates = _aggregate_rows(cfg_rows)
        rows.extend(aggregates)
        mean_row, std_row = aggregates
        report.append(
            {
                "name": cfg.name,
                "config": os.path.basename(path),
                "policy": cfg.canonical_dict()["policy"],
                "replications": args.reps,
                "metrics_mean": {c: mean_row[c] for c in _AGGREGATED if mean_row[c] != ""},
                "metrics_std": {c: std_row[c] for c in _AGGREGATED if std_row[c] != ""},
            }
        )

    os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(os.path.join(args.out, "comparison.csv"), rows)
    with open(os.path.join(args.out, "comparison.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"compare complete: {len(configs)} configs x {args.reps} reps -> {args.out}")
    return 0


# --- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosim",
        description="Simulate pseudonym lifecycles of connected vehicles and score the privacy/safety trade-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--trace", action="store_true", help="also write trace.jsonl and linkage.json")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON path")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare change policies on one scenario")
    p_cmp.add_argument("--configs", nargs="+", required=True,
                       help="scenario JSONs differing only in policy fields")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument("--reps", type=int, default=5, help="replications per config")
    p_cmp.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
