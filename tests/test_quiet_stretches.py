"""Quiet stretches: the engine runs the ticks where no event source fires in one step.

``SimulationEngine.run`` runs the five phases only on event ticks and hands
each stretch of quiet ticks between them to ``_advance_quiet``; the
reference engine of the differential test (``oracle_support``) runs the
phases on every tick. These tests pin that the stretch path is taken on the
checked-in fleets with the same bytes, that the reference never takes it,
and that one draw of positioning noise for a stretch equals the per-tick
draws it replaces, on whatever numpy is installed.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SCENARIOS
from oracle_support import ReferenceEngine
from pseudosim.config import load_scenario
from pseudosim.engine import SimulationEngine
from pseudosim.seeds import fork_generator

pytestmark = pytest.mark.ci_budget


def phase_ticks(engine) -> tuple:
    """Run ``engine``: the ticks that ran the five phases, and the result."""
    ticks = []
    mobility = engine._phase_mobility

    def counted(tick):
        ticks.append(tick)
        mobility(tick)

    engine._phase_mobility = counted
    return ticks, engine.run()


# pool_churn's fleet, shortened, and the silence sweep's base; on the full
# 3,300-tick pool_churn run (seed 5) 689 ticks are event ticks
@pytest.mark.parametrize("name, seed, duration_s", [
    ("latency_fleet.json", 5, 60.0),
    ("symmetric_crossing.json", None, None),
])
def test_most_ticks_run_as_quiet_stretches(name, seed, duration_s):
    raw = json.loads((SCENARIOS / name).read_text())
    if duration_s is not None:
        raw["duration_s"] = duration_s
    config = load_scenario(raw)
    if seed is not None:
        config = config.with_seed(seed)
    events, result = phase_ticks(SimulationEngine(config))
    every, reference = phase_ticks(ReferenceEngine(config))
    n_ticks = result.summary["n_ticks"]
    assert every == list(range(n_ticks))  # the reference never takes a stretch
    assert 0 < len(events) < n_ticks / 2
    assert result.summary_json() == reference.summary_json()
    assert result.linkage.to_json() == reference.linkage.to_json()


@given(sizes=st.lists(st.integers(0, 7), max_size=12), seed=st.integers(0, 2**32 - 1),
       sigma=st.sampled_from([0.25, 1.0, 5.0]))
def test_one_noise_draw_equals_the_per_tick_draws(sizes, seed, sigma):
    # a stretch draws the noise of all its CAMs in one call, where each tick
    # drew the rows of its own emissions
    split, batched = fork_generator(seed, "noise"), fork_generator(seed, "noise")
    rows = []
    for n in sizes:
        rows += split.normal(0.0, sigma, (n, 2)).tolist()
    assert batched.normal(0.0, sigma, (sum(sizes), 2)).tolist() == rows
    assert batched.bit_generator.state == split.bit_generator.state
