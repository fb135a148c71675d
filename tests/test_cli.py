import collections
import csv
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudosim import cli, run_scenario, sba
from pseudosim import config as config_module
from pseudosim.adversary import link, load_trace


def tiny_config(**over):
    cfg = {
        "name": "cli-unit",
        "seed": 3,
        "duration_s": 30.0,
        "tick_s": 0.1,
        "road": {"segments": [
            {"id": "m", "start": [0.0, 0.0], "end": [400.0, 0.0], "speed_limit_mps": 30.0},
        ]},
        "fleet": [{"vehicle_id": 1, "route": ["m"], "speed_mps": 10.0}],
        "beaconing": {"cam_freq_hz": 10.0, "positioning_sigma_m": 0.0, "loss_rate": 0.0},
        "policy": {"kind": "periodic", "interval_s": 10.0, "silence_s": 1.0},
        "adversary": {"coverage": "full"},
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- run -------------------------------------------------------------------------


def test_run_writes_summary_and_metrics(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", tiny_config())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "cli-unit"
    assert summary["seed"] == 3

    with open(out / "metrics.csv", newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "kind", "run_id", "scenario", "cell", "params", "seed",
        "link_accuracy", "traceability", "mean_anonymity_set",
        "mean_awareness_ratio", "ghost_ticks", "missing_ticks", "silence_blind_s",
        "max_stack_switch_gap_s", "min_valid_tickets", "sybil_violations",
        "n_changes", "config_digest",
    ]
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["kind"] == "run"
    assert rows[0]["run_id"] == "run0"
    assert rows[0]["config_digest"] == summary["config_digest"]
    assert float(rows[0]["link_accuracy"]) == summary["privacy"]["link_accuracy"]
    # single vehicle: awareness has no samples, cell stays empty
    assert rows[0]["mean_awareness_ratio"] == ""
    assert "run complete" in capsys.readouterr().out


def test_run_trace_roundtrip(tmp_path, scenarios_dir):
    cfg_path = str(scenarios_dir / "ghost_regression_notify_on.json")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out), "--trace"]) == 0

    direct = run_scenario(cfg_path, collect_trace=True)
    loaded = load_trace(str(out / "trace.jsonl"))

    # both logs arrive in time order, records of one time as the run emitted them
    assert loaded.observations == direct.store.observations
    assert loaded.notices == direct.store.notices
    # the attacker working from the exported trace reaches the same linkage
    assert link(loaded).to_json() == direct.linkage.to_json()
    assert (out / "linkage.json").read_text() == direct.linkage.to_json() + "\n"


def test_run_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", tiny_config())
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg_path, "--out", str(out), "--seed-override", "99"])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 99


def test_run_rejects_a_negative_seed_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", tiny_config())
    rc = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out"),
                   "--seed-override", "-1"])
    assert rc == 2
    assert "config error: seed: must be >= 0" in capsys.readouterr().err


def test_run_missing_config_is_io_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err


def test_run_invalid_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", tiny_config(duration_s=-5.0))
    rc = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")


NOT_UTF8 = b"\xff\xfe" + "{}".encode("utf-16-le")


def test_run_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(NOT_UTF8)
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: json: ")


# --- sweep -----------------------------------------------------------------------


def write_sweep_spec(tmp_path, **over):
    spec = {
        "base": tiny_config(),
        "axes": {"policy.interval_s": [5.0, 10.0]},
        "replications": 2,
        "seed_base": 7,
    }
    spec.update(over)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_sweep_outputs_and_aggregates(tmp_path):
    spec = write_sweep_spec(tmp_path)
    out = tmp_path / "sweep-out"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out)]) == 0

    rows = read_csv(out / "metrics.csv")
    runs = [r for r in rows if r["kind"] == "run"]
    means = [r for r in rows if r["kind"] == "mean"]
    stds = [r for r in rows if r["kind"] == "std"]
    assert len(runs) == 4 and len(means) == 2 and len(stds) == 2
    assert [r["run_id"] for r in runs] == ["c000r000", "c000r001", "c001r000", "c001r001"]
    assert {r["seed"] for r in runs} == {"7", "8"}
    assert runs[0]["cell"] == "policy.interval_s=5.0"

    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert len(manifest) == 4
    for entry in manifest:
        assert (out / entry["summary"]).exists()

    # aggregate rows reproduce the exact float arithmetic over the run rows
    for cell_rows, mean_row, std_row in (
        (runs[0:2], means[0], stds[0]),
        (runs[2:4], means[1], stds[1]),
    ):
        for col in ("link_accuracy", "n_changes", "silence_blind_s"):
            values = [float(r[col]) for r in cell_rows]
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            assert mean_row[col] == str(mean)
            assert std_row[col] == str(std)


def test_sweep_parallel_matches_serial(tmp_path):
    spec = write_sweep_spec(tmp_path, replications=1)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
    assert cli.main(["sweep", "--spec", spec, "--out", str(parallel), "--parallel", "2"]) == 0

    for rel in ("metrics.csv", "sweep_manifest.json"):
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes()
    serial_summaries = sorted(p.name for p in (serial / "summaries").iterdir())
    parallel_summaries = sorted(p.name for p in (parallel / "summaries").iterdir())
    assert serial_summaries == parallel_summaries
    for name in serial_summaries:
        assert (serial / "summaries" / name).read_bytes() == (
            parallel / "summaries" / name
        ).read_bytes()


def silence_sweep_jobs(scenarios_dir, tmp_path, replications):
    """The checked-in silence sweep cut to ``replications``: (spec path, jobs)."""
    path = scenarios_dir / "sweeps" / "silence_sweep.json"
    spec = json.loads(path.read_text())
    spec["base"] = str((path.parent / spec["base"]).resolve())
    spec["replications"] = replications
    spec_path = tmp_path / "silence.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path), cli.plan_sweep(*cli._load_sweep_spec(str(spec_path)))


def test_sweep_summaries_equal_runs_alone(silence_sweep, scenarios_dir, tmp_path):
    spec, jobs = silence_sweep_jobs(scenarios_dir, tmp_path, replications=2)
    serial = tmp_path / "serial"
    assert cli.main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
    assert sba._ACTIVE_SCOPE.get() is None
    assert {(job["cell_idx"], job["rep"]) for job in jobs} == {
        (c, r) for c in range(4) for r in range(2)
    }
    for job in jobs:
        alone = run_scenario(job["config"]).summary_json()
        name = f"c{job['cell_idx']:03d}r{job['rep']:03d}.summary.json"
        for out in (silence_sweep, serial):
            assert (out / "summaries" / name).read_text(encoding="utf-8") == alone, name


def test_sweep_shares_signatures_but_verifies_every_run(
    scenarios_dir, tmp_path, ed25519_calls
):
    spec, jobs = silence_sweep_jobs(scenarios_dir, tmp_path, replications=2)
    alone = collections.Counter()
    for job in jobs:
        ed25519_calls.clear()
        run_scenario(job["config"])
        alone.update(ed25519_calls)

    ed25519_calls.clear()
    assert cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
    assert ed25519_calls["verify"] == alone["verify"] > 0
    # four cells per seed: each group signs and loads keys as one run does
    assert ed25519_calls["sign"] * 4 == alone["sign"]
    assert ed25519_calls["load"] * 4 == alone["load"]


def test_credential_scope_ends_with_its_group(tmp_path, monkeypatch, ed25519_calls):
    spec = write_sweep_spec(tmp_path)
    scopes = []
    run_job = cli.run_job

    def recording_run_job(config):
        scopes.append((config.seed, sba._ACTIVE_SCOPE.get()))
        return run_job(config)

    monkeypatch.setattr(cli, "run_job", recording_run_job)
    signs = []
    for _ in range(2):
        ed25519_calls.clear()
        assert cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
        signs.append(ed25519_calls["sign"])
    assert signs[0] == signs[1] > 0  # the second sweep computes afresh
    assert sba._ACTIVE_SCOPE.get() is None

    # one scope per seed group: groups in order of first appearance, a new
    # scope for each group of each sweep
    assert [seed for seed, _ in scopes] == [7, 7, 8, 8] * 2
    assert all(scope is not None for _, scope in scopes)
    groups = [scopes[i][1] for i in range(0, 8, 2)]
    assert [scopes[i + 1][1] for i in range(0, 8, 2)] == groups
    assert len({id(scope) for scope in groups}) == 4

    counts = []
    for _ in range(2):
        ed25519_calls.clear()
        run_scenario(tiny_config())
        counts.append(ed25519_calls["sign"])
    assert counts[0] == counts[1] > 0


@given(
    seeds=st.lists(st.integers(min_value=0, max_value=6), max_size=40),
    parallel=st.integers(min_value=1, max_value=12),
)
def test_plan_tasks_groups_by_seed_without_losing_workers(seeds, parallel):
    tasks = cli.plan_tasks(seeds, parallel)
    assert sorted(i for task in tasks for i in task) == list(range(len(seeds)))
    assert len(tasks) >= min(parallel, len(seeds))
    assert all(len({seeds[i] for i in task}) == 1 for task in tasks)
    if len(set(seeds)) >= parallel:
        assert len(tasks) == len(set(seeds))
        firsts = [task[0] for task in tasks]
        assert firsts == sorted(firsts)  # order of first appearance


def test_sweep_axis_path_must_exist(tmp_path, capsys):
    spec = write_sweep_spec(tmp_path, axes={"nosuch.deep": [1]})
    rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "axes.nosuch.deep: path not found" in capsys.readouterr().err


def test_sweep_rejects_unknown_spec_field(tmp_path, capsys):
    spec = write_sweep_spec(tmp_path, bogus=1)
    rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: bogus: unknown field" in capsys.readouterr().err


def test_sweep_rejects_boolean_counts(tmp_path, capsys):
    spec = write_sweep_spec(tmp_path, replications=True, seed_base=True)
    rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: replications: must be a positive integer" in err
    assert "config error: seed_base: must be a non-negative integer" in err


def test_sweep_missing_base_file(tmp_path, capsys):
    spec = write_sweep_spec(tmp_path, base="missing.json")
    rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err


def test_sweep_spec_must_be_an_object(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text("[1, 2]")
    rc = cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: spec: must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["sweep", "base"])
def test_sweep_file_that_is_not_json(tmp_path, capsys, broken):
    field = "spec" if broken == "sweep" else "base"
    for content in (b'{"seed": 1,', NOT_UTF8):
        (tmp_path / "base.json").write_text(json.dumps(tiny_config()))
        spec = write_sweep_spec(tmp_path, base="base.json")
        (tmp_path / f"{broken}.json").write_bytes(content)
        rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_sweep_base_file_must_hold_an_object(tmp_path, capsys):
    (tmp_path / "base.json").write_text("[]")
    spec = write_sweep_spec(tmp_path, base="base.json")
    rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: base: must be a config object" in capsys.readouterr().err


# --- compare ---------------------------------------------------------------------


def test_compare_needs_two_configs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "a.json", tiny_config())
    rc = cli.main(["compare", "--configs", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "need at least two configs" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_compare_rejects_non_positive_reps(tmp_path, capsys, reps):
    a = write_config(tmp_path, "a.json", tiny_config(name="a"))
    b = write_config(tmp_path, "b.json", tiny_config(name="b"))
    rc = cli.main(["compare", "--configs", a, b, "--out", str(tmp_path / "out"),
                   "--reps", reps])
    assert rc == 2
    assert "config error: reps: must be a positive integer" in capsys.readouterr().err


def test_compare_config_that_is_not_utf8(tmp_path, capsys):
    good = write_config(tmp_path, "a.json", tiny_config())
    bad = tmp_path / "b.json"
    bad.write_bytes(NOT_UTF8)
    rc = cli.main(["compare", "--configs", good, str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: json: ")


def test_compare_rejects_non_policy_difference(tmp_path, capsys):
    a = write_config(tmp_path, "a.json", tiny_config(name="a"))
    b = write_config(tmp_path, "b.json", tiny_config(name="b", duration_s=20.0))
    rc = cli.main(["compare", "--configs", a, b, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "outside policy fields" in capsys.readouterr().err


def test_compare_outputs(tmp_path):
    a = write_config(tmp_path, "a.json", tiny_config(name="short-interval"))
    b = write_config(
        tmp_path, "b.json",
        tiny_config(
            name="long-interval",
            policy={"kind": "periodic", "interval_s": 20.0, "silence_s": 1.0},
        ),
    )
    out = tmp_path / "out"
    rc = cli.main(["compare", "--configs", a, b, "--out", str(out), "--reps", "2"])
    assert rc == 0

    rows = read_csv(out / "comparison.csv")
    runs = [r for r in rows if r["kind"] == "run"]
    assert len(runs) == 4
    assert [r["cell"] for r in runs] == ["short-interval"] * 2 + ["long-interval"] * 2
    assert [r["seed"] for r in runs] == ["3", "4", "3", "4"]

    report = json.loads((out / "comparison.json").read_text())
    assert [entry["name"] for entry in report] == ["short-interval", "long-interval"]
    for entry in report:
        assert set(entry) == {
            "name", "config", "policy", "replications", "metrics_mean", "metrics_std",
        }
        assert entry["replications"] == 2
        assert "mean_awareness_ratio" not in entry["metrics_mean"]  # no samples
        assert entry["metrics_mean"]["n_changes"] > 0
    # fewer changes under the longer interval, visible in the report
    assert (
        report[1]["metrics_mean"]["n_changes"] < report[0]["metrics_mean"]["n_changes"]
    )


def test_compare_loads_each_config_once(tmp_path, monkeypatch):
    loads = collections.Counter()
    real = config_module.load_scenario

    def counting(source, **kw):
        loads[source if isinstance(source, str) else "dict"] += 1
        return real(source, **kw)

    monkeypatch.setattr(config_module, "load_scenario", counting)
    monkeypatch.setattr(cli, "load_scenario", counting)
    a = write_config(tmp_path, "a.json", tiny_config(name="a", duration_s=5.0))
    b = write_config(tmp_path, "b.json", tiny_config(name="b", duration_s=5.0))
    out = tmp_path / "out"
    assert cli.main(["compare", "--configs", a, b, "--out", str(out), "--reps", "3"]) == 0
    # re-seeding a replication validates the seed alone
    assert loads == {a: 1, b: 1}
    runs = [r for r in read_csv(out / "comparison.csv") if r["kind"] == "run"]
    assert [r["seed"] for r in runs] == ["3", "4", "5"] * 2
